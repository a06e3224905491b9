"""Generator-coroutine processes.

A process wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects; the process registers itself as a
callback and resumes the generator with the event's value when it triggers
(or throws the event's exception into it).  A :class:`Process` is itself an
event that triggers when the generator returns, so processes can wait on
each other.

Self-driving generators
-----------------------

A generator may take over its own resumption with ``cb = yield
SELF_DRIVE``: :meth:`Process._resume` sends it ``cb``, a list holding *its
own* ``send`` bound method, and steps aside.  From then on the generator
sets ``event.callbacks = cb`` on every event it is about to wait on and
suspends on a bare ``yield``, so the engine's dispatch loop resumes it
*directly* — ``callback(event)`` is ``gen.send(event)`` — with no
``_resume`` frame, no callback append and no yield validation.  The yield
evaluates to the dispatched event, so value-carrying waits read
``(yield)._value``.  The compiled workload-sim tier's service loops
(:mod:`repro.workloads.compiled`) and the open-loop client
(:mod:`repro.loadgen.client`) run this way; until the hand-over, their
process drives them (a worker's cold setup included) like any other.

``cb`` stands in for ``_target``, which a self-driven process does not
keep: :meth:`Process.interrupt` empties it, so no pending event resumes
the generator, and schedules the same priority-0 ``Interrupt``.  A
generator that re-arms one resource claim stores it as
:attr:`Process.claim`; while registered on ``cb``, that claim is the
queued ``Request`` a kill withdraws.  Every wait after the switch must
register ``cb`` itself.  A body may ``yield from`` a block — a
sub-generator whose waits register the same list, so the engine's
``gen.send`` reaches the block's bare ``yield`` through the delegation —
but never a generator that yields its events (a reference syscall
helper), since no driver listens to them any more and the process would
be stranded.  Nor may it return: nothing is left to turn its
``StopIteration`` into the end of the process.  A body that finishes (the
client's generator, after its last request) ends its process with
``succeed()`` where a driven one would return, and parks on a bare
``yield``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from .events import Event, Interrupt, PENDING

__all__ = ["Process", "SELF_DRIVE"]

#: Yielded (once) by a generator to switch to the self-driving protocol;
#: answered by sending the generator its callback list.
SELF_DRIVE = object()


class Process(Event):
    """A running generator coroutine inside an environment."""

    __slots__ = ("_generator", "_target", "name", "cb", "claim")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator — call the function first")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when running,
        #: finished or self-driven).
        self._target: Optional[Event] = None
        self.name = name or generator.__name__
        #: A self-driven generator's callback list (None before its
        #: ``SELF_DRIVE`` hand-over) and the resource claim it re-arms.
        self.cb: Optional[list] = None
        self.claim: Optional[Event] = None

        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env._schedule(init, env._now)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a dead process is an error; interrupting a process that
        is currently scheduled to resume delivers the interrupt first.  A
        self-driven process waits on whatever event holds its ``cb``, so
        emptying the list makes that event resume nobody.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        cb = self.cb
        if cb:
            cb.clear()
        else:
            target = self._target
            if target is None:
                raise RuntimeError(f"{self!r} is not waiting and cannot be interrupted")
            # Stop listening on the old target: a later trigger of the
            # original event is ignored by this process.
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._target = None

        # Priority 0: ahead of every other event due now.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defuse()
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, self.env._now, priority=0)

    # -- engine plumbing ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        generator = self._generator
        try:
            if event._ok:
                next_target = generator.send(event._value)
            else:
                event.defuse()
                next_target = generator.throw(event._value)
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
            self._target = None
            self.cb = cb = [generator.send]
            try:
                generator.send(cb)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return
        if not isinstance(next_target, Event):
            raise RuntimeError(
                f"process {self.name!r} yielded {next_target!r}, which is not an Event"
            )
        if next_target.env is not self.env:
            raise RuntimeError("process yielded an event from a different environment")
        self._target = next_target
        if next_target.processed:
            # Already-processed events resume the process on the next step.
            resume = Event(self.env)
            resume._ok = next_target._ok
            resume._value = next_target._value
            if not next_target._ok:
                next_target.defuse()
                resume.defuse()
            resume.callbacks.append(self._resume)
            self.env._schedule(resume, self.env._now)
        else:
            next_target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"
