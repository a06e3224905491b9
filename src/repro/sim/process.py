"""Generator-coroutine processes.

A process wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects; the process registers itself as a
callback and resumes the generator with the event's value when it triggers
(or throws the event's exception into it).  A :class:`Process` is itself an
event that triggers when the generator returns, so processes can wait on
each other.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from .events import Event, Interrupt, PENDING

__all__ = ["Process"]


class Process(Event):
    """A running generator coroutine inside an environment."""

    __slots__ = ("_generator", "_target", "name")

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
        #: The event this process is currently waiting on (None when running
        #: or finished).
        self._target: Optional[Event] = None
        self.name = name or generator.__name__

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
        is currently scheduled to resume delivers the interrupt first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is None:
            raise RuntimeError(f"{self!r} is not waiting and cannot be interrupted")

        # Stop listening on the old target: replace our callback so a later
        # trigger of the original event is ignored by this process.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        self._throw_interrupt(cause)

    def _throw_interrupt(self, cause: Any) -> None:
        # Priority 0: ahead of every other event due now.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defuse()
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, self.env._now, priority=0)

    # -- engine plumbing ---------------------------------------------------
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
