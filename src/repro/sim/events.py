"""Event primitives for the discrete-event engine.

The design follows the classic simpy model: an :class:`Event` is a one-shot
future living inside an :class:`~repro.sim.engine.Environment`.  Processes
(generator coroutines, see :mod:`repro.sim.process`) ``yield`` events; when
an event *triggers*, every waiting process resumes with the event's value, or
has the event's exception thrown into it.

Events move through three states:

``pending``   created, not yet triggered;
``triggered`` value/exception decided and the event is queued for callbacks;
``processed`` callbacks have run.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "Interrupt",
    "PENDING",
]

#: Sentinel for "no value decided yet".
PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when :meth:`repro.sim.process.Process.interrupt`
    is called while the process is waiting on an event.

    The ``cause`` attribute carries the value handed to ``interrupt``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        Owning environment.  The event may only be scheduled on its own
        environment's queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        #: Callables invoked (with this event) when the event is processed.
        #: Becomes ``None`` once processed, which doubles as the state flag.
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been decided."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise AttributeError("value of un-triggered event is not available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._schedule(self, env._now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every waiting process.  If nobody is
        waiting when callbacks run, the failure propagates out of
        :meth:`Environment.step` so errors never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._schedule(self, env._now)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the engine."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation.

    Timeouts are the simulator's most-created event (every inter-arrival
    gap, service stint, and watchdog sleep is one), so construction takes
    a dedicated schedule path: the state slots are assigned directly —
    value and ok are decided at creation, skipping the generic
    pending-then-trigger transition — and the heap entry is pushed inline
    instead of going through :meth:`Environment.schedule`'s validation.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, 1, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {hex(id(self))}>"


class AnyOf(Event):
    """Triggers as soon as any constituent event triggers.

    The value is a dict mapping each constituent event that has fired
    successfully by then to its value, in the order the events were
    given.  A constituent's failure fails the condition (if it has not
    fired yet) and is defused either way.  Any of no events fires at
    once, with an empty dict.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env)
        self._events = tuple(events)

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        # Use .processed, not .triggered: a Timeout pre-sets its value at
        # creation, so "triggered" would leak constituents that have not
        # actually fired yet.
        return {ev: ev._value for ev in self._events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed(self._collect())
