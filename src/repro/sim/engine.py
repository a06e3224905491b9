"""The discrete-event environment: clock + event queue + stepper."""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Generator, Iterable, Optional

from .events import AnyOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


#: Priority of the stop event ``run(until=<int>)`` schedules at its
#: horizon: after every priority the engine uses (0 for interrupts, 1 for
#: everything else), so it fires after every other event due then.
_STOP_PRIORITY = 2

#: Canceled-set compaction trigger: below this many dead entries, lazy
#: deletion is always cheaper than a rebuild.
_COMPACT_MIN = 64


class Environment:
    """A simulation environment with an integer-nanosecond clock.

    Events are processed in (time, priority, insertion-order) order, making
    runs fully deterministic: two events scheduled for the same instant fire
    in the order they were scheduled unless priorities differ.

    Internally the schedule is two structures sharing one insertion
    counter: a heap for future (or non-default-priority) events, and a
    plain FIFO deque for events scheduled *at the current instant* with
    default priority — the trigger paths (``succeed``/``fail``, resource
    grants, process resume), which are the bulk of all scheduling.  A
    same-instant default-priority event can never sort before anything
    already due, so appending it to the deque is order-equivalent to
    pushing it on the heap while skipping the heap's sift entirely.  The
    dispatch loop merges the two by comparing the heap head's
    (time, priority, eid) against the deque head's eid at the current
    instant, which preserves the exact total order.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self._now = int(initial_time)
        self._queue: list = []
        #: Same-instant batch lane: (eid, event) pairs scheduled for *now*
        #: at default priority, in insertion order.  Always drained before
        #: the clock can advance.
        self._immediate: deque = deque()
        self._eid = 0
        #: Lazily-canceled events: still sitting in the schedule, but
        #: discarded (callbacks never run, clock not advanced) when popped.
        #: Lazy deletion keeps :meth:`cancel` O(1) instead of rebuilding
        #: the heap; a threshold-based compaction (see :meth:`cancel`)
        #: keeps the dead entries from accumulating without bound when
        #: canceled events are never popped.
        self._canceled: set = set()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0, priority: int = 1) -> None:
        """Queue ``event`` to have its callbacks run after ``delay`` ns."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._eid += 1
        if delay == 0 and priority == 1:
            self._immediate.append((self._eid, event))
        else:
            heappush(self._queue, (self._now + int(delay), priority, self._eid, event))

    def _schedule(self, event: Event, when: int, priority: int = 1) -> None:
        """Internal schedule path: absolute time, no validation.

        The trigger paths (:meth:`Event.succeed`/``fail``, process resume)
        always schedule for *now*, so the public method's delay validation
        and ``int()`` coercion are pure overhead on the hottest call site
        in the simulator; those calls land in the same-instant batch lane.
        """
        self._eid += 1
        if when == self._now and priority == 1:
            self._immediate.append((self._eid, event))
        else:
            heappush(self._queue, (when, priority, self._eid, event))

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled event.

        The event stays in the schedule but is silently discarded when it
        reaches the front: its callbacks never run and the clock does not
        advance to its deadline.  This is O(1) per cancel (no heap
        rebuild) — the right trade for watchdog timers that are almost
        always canceled before they fire.  :meth:`run` cancels its own
        horizon stop event this way when its loop exits with an exception.

        Dead entries would otherwise linger until popped, which is never
        when a run stops before their deadlines (e.g. repeated
        ``run(until=horizon)`` windows canceling watchdogs each window),
        so once the dead entries outnumber the live ones — and there are
        enough of them for a rebuild to beat lazy deletion — the schedule
        is compacted: canceled entries are filtered out and only the
        cancellations that were actually consumed are forgotten (an event
        canceled before it was ever scheduled keeps its suppression).
        """
        if event.callbacks is None:
            raise RuntimeError(f"cannot cancel {event!r}: already processed")
        canceled = self._canceled
        canceled.add(event)
        if (
            len(canceled) > _COMPACT_MIN
            and len(canceled) * 2 > len(self._queue) + len(self._immediate)
        ):
            self._compact()

    def _compact(self) -> None:
        """Physically remove canceled entries from the schedule.

        Both containers are filtered *in place*: the dispatch loop hoists
        them into locals, so rebinding ``self._queue``/``self._immediate``
        here would silently detach a running ``run()`` from the schedule.
        """
        queue = self._queue
        canceled = self._canceled
        kept = [entry for entry in queue if entry[3] not in canceled]
        if len(kept) != len(queue):
            canceled.difference_update(
                entry[3] for entry in queue if entry[3] in canceled
            )
            queue[:] = kept
            heapify(queue)
        immediate = self._immediate
        if immediate:
            kept_now = [e for e in immediate if e[1] not in canceled]
            if len(kept_now) != len(immediate):
                canceled.difference_update(
                    e[1] for e in immediate if e[1] in canceled
                )
                immediate.clear()
                immediate.extend(kept_now)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if queue is empty.

        Canceled events are purged from the front first, so the reported
        time is one that :meth:`step` would actually advance the clock to.
        """
        canceled = self._canceled
        immediate = self._immediate
        while immediate and canceled and immediate[0][1] in canceled:
            canceled.discard(immediate.popleft()[1])
        if immediate:
            return self._now
        queue = self._queue
        while queue and canceled and queue[0][3] in canceled:
            canceled.discard(heappop(queue)[3])
        return queue[0][0] if queue else None

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, un-triggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a process from a generator coroutine."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------
    def _pop_next(self):
        """Pop the next live event honoring the heap/deque merge order.

        Returns ``(when, event)``; raises :class:`EmptySchedule` when no
        live events remain.  The dispatch loop in :meth:`run` inlines the
        same merge; the run-vs-step tests in
        ``tests/sim/test_engine_fastpath.py`` hold the two to one order.
        """
        queue = self._queue
        immediate = self._immediate
        canceled = self._canceled
        while True:
            if immediate:
                if queue:
                    head = queue[0]
                    if head[0] == self._now and (
                        head[1] < 1 or (head[1] == 1 and head[2] < immediate[0][0])
                    ):
                        when, _prio, _eid, event = heappop(queue)
                    else:
                        event = immediate.popleft()[1]
                        when = self._now
                else:
                    event = immediate.popleft()[1]
                    when = self._now
            elif queue:
                when, _prio, _eid, event = heappop(queue)
            else:
                raise EmptySchedule()
            if canceled and event in canceled:
                canceled.discard(event)
                continue
            return when, event

    def step(self) -> None:
        """Process the single next event."""
        when, event = self._pop_next()
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of silently dropping.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * an ``int`` — run until the clock reaches that time (ns);
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).

        All three forms share one inlined dispatch loop that runs until a
        stop event is processed.  ``None`` waits on an event that is never
        scheduled, so the loop ends when the schedule empties.  An ``int``
        schedules a stop event at the horizon with priority
        :data:`_STOP_PRIORITY`, after every priority the engine uses, so
        every event due at or before the horizon runs first, including
        events scheduled during that instant.  Event dispatch is the
        simulator's hottest path: the loop hoists the queue and
        canceled-set lookups out of the loop, and it inlines
        :meth:`_pop_next` and :meth:`step`, dispatching bit-identically to
        them.
        """
        queue = self._queue
        immediate = self._immediate
        canceled = self._canceled
        pop = heappop
        imm_pop = immediate.popleft

        horizon_stop = None
        if until is None:
            stop = Event(self)
        elif isinstance(until, Event):
            stop = until
        else:
            horizon = int(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} lies in the past (now={self._now})")
            stop = horizon_stop = Event(self)
            stop._value = None
            self._schedule(stop, horizon, _STOP_PRIORITY)

        try:
            while stop.callbacks is not None:
                if immediate:
                    if queue:
                        head = queue[0]
                        if head[0] == self._now and (
                            head[1] < 1 or (head[1] == 1 and head[2] < immediate[0][0])
                        ):
                            when, _prio, _eid, event = pop(queue)
                            self._now = when
                        else:
                            event = imm_pop()[1]
                    else:
                        event = imm_pop()[1]
                elif queue:
                    when, _prio, _eid, event = pop(queue)
                    if canceled and event in canceled:
                        canceled.discard(event)
                        continue
                    self._now = when
                elif until is None:
                    return None
                else:
                    raise RuntimeError(
                        f"simulation ran out of events before {stop!r} triggered"
                    )
                if canceled and event in canceled:
                    canceled.discard(event)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except BaseException:
            if horizon_stop is not None:
                # Left pending, the stop event would not end a later run,
                # but as a no-op event it would still move the clock to
                # this stale horizon when nothing later is due.
                self.cancel(horizon_stop)
            raise
        if stop._ok:
            return stop._value
        stop.defuse()
        raise stop._value

    def __repr__(self) -> str:
        pending = len(self._queue) + len(self._immediate)
        return f"<Environment now={self._now} pending={pending}>"
