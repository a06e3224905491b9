"""Compiled-tier process driver for trace-specialized service loops.

The workload specializer (:mod:`repro.workloads.compiled`) flattens each
app archetype's steady-state service loop into a single generator with the
syscall plumbing inlined, and the open-loop client
(:mod:`repro.loadgen.client`) runs its generator and readers the same way
on both sim tiers.  Those generators are *internal*: they only ever
yield live events owned by their own environment, so the full
:class:`~repro.sim.process.Process` resume path — active-process
bookkeeping, yield-type validation, cross-environment checks — is pure
overhead on the simulator's hottest call site.  :class:`FlatProcess` is
the lean driver: same event semantics (it *is* a :class:`Process`, so
joins, ``interrupt`` and the fault injector's kill path keep working),
with a resume that does only the work the flat generators can observe.

Self-driving generators
-----------------------

A flat generator may end its cold-path setup with ``cb = yield
SELF_DRIVE``: :meth:`FlatProcess._resume` sends it ``cb``, a list holding
*its own* ``send`` bound method, and steps aside.  From then on the
generator sets ``event.callbacks = cb`` on every event it is about to
wait on and suspends on a bare ``yield``, so the engine's dispatch loop
resumes it *directly* — ``callback(event)`` is ``gen.send(event)`` — with
no ``_resume`` frame, no callback append, and no fresh event allocation on
the hot path (the specialized loops re-arm one claim and one hold event
per worker).  The yield evaluates to the dispatched event, so
value-carrying waits read ``(yield)._value``.

``cb`` stands in for ``_target``, which a self-driven generator does not
maintain: :meth:`FlatProcess.interrupt` empties it, so no pending event
resumes the generator, and schedules the priority-0 ``Interrupt`` that
:meth:`Process.interrupt` schedules.  A generator that re-arms one
resource claim stores it as :attr:`FlatProcess.claim`; while registered
on ``cb``, that claim is the queued ``Request`` a kill withdraws.  Every
wait after the switch must register ``cb`` itself.  A body may ``yield
from`` a block — a sub-generator whose waits register the same list, so
the engine's ``gen.send`` reaches the block's bare ``yield`` through the
delegation — but never a reference syscall helper, whose waits yield
their event to a driver that is no longer listening and would strand
the process.  Nor may it return: nothing is left to turn its
``StopIteration`` into the end of the process.  A body that finishes
(the client's generator, after its last request) ends its process with
``succeed()`` where a driven one would return, and parks on a bare
``yield``.

The contract mirrors ``repro.ebpf.compiled``'s relationship to the VM
tiers: bit-identical behaviour, pinned by the differential suite in
``tests/workloads/test_compiled_apps.py``.
"""

from __future__ import annotations

from .events import Event
from .process import Process

__all__ = ["FlatProcess", "SELF_DRIVE"]

#: Yielded (once) by a flat generator to switch to the self-driving
#: protocol; answered by sending the generator its callback list.
SELF_DRIVE = object()


class FlatProcess(Process):
    """A :class:`Process` whose resume path is specialized for generated
    flat service loops.

    Dropped relative to :meth:`Process._resume` (all unobservable by the
    generated loops):

    * the ``isinstance(next_target, Event)`` yield validation — generated
      code yields only events (or the :data:`SELF_DRIVE` sentinel, once);
    * the cross-environment check — generated code closes over exactly one
      environment.

    Kept: ``_target`` tracking until the hand-over (``cb`` after it),
    StopIteration/exception conversion, the failed-event throw path, and
    the already-processed-target re-schedule path (a dispatch-queue getter
    can be handed its item while the flat executor is still paying a
    syscall's entry cost, so the target may be processed by the time it is
    yielded — exactly as in the reference path).
    """

    __slots__ = ("cb", "claim")

    def __init__(self, env, generator, name=None) -> None:
        #: The self-driven generator's callback list and reused claim.
        self.cb = self.claim = None
        super().__init__(env, generator, name=name)

    def interrupt(self, cause=None) -> None:
        cb = self.cb
        if not cb or not self.is_alive:
            # Cold path, or the reference errors (dead; already interrupted).
            super().interrupt(cause)
            return
        cb.clear()
        self._throw_interrupt(cause)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event.defuse()
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._target = None
            self.fail(exc)
            return

        if next_target is SELF_DRIVE:
            # Hand over: the generator runs its first self-registered
            # stint right now and the engine drives it directly after.
            generator = self._generator
            self._target = None
            self.cb = cb = [generator.send]
            try:
                generator.send(cb)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return

        self._target = next_target
        if next_target.callbacks is None:
            # Already-processed events resume the process on the next step.
            env = self.env
            resume = Event(env)
            resume._ok = next_target._ok
            resume._value = next_target._value
            if not next_target._ok:
                next_target.defuse()
                resume.defuse()
            resume.callbacks.append(self._resume)
            env._schedule(resume, env._now)
        else:
            next_target.callbacks.append(self._resume)
