"""Collection-path faults: the slow / pausing userspace consumer.

Stream-mode monitoring (the paper's first methodology, §III) only matches
the in-kernel collectors while userspace drains the perf ring faster
than events arrive.  :class:`SlowConsumer` models the consumer as a
scheduled process — a fixed drain cadence, optionally interrupted by
periodic pauses (a GC pause, a log rotation, a CPU-starved reader thread).
With a finite ring, every pause longer than the ring can absorb
turns into ``lost_records``, which the monitor surfaces as degraded
confidence instead of silently wrong rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..sim.engine import Environment
from ..sim.timebase import MSEC

__all__ = ["ConsumerSchedule", "SlowConsumer"]


@dataclass(frozen=True)
class ConsumerSchedule:
    """When the userspace consumer polls its perf ring.

    ``drain_interval_ns``
        Cadence of normal polls (bcc's ``perf_buffer_poll`` loop period).
    ``pause_every_ns`` / ``pause_for_ns``
        Optional periodic outage: every ``pause_every_ns`` the consumer
        stops polling for ``pause_for_ns``.  Zero disables pauses.
    """

    drain_interval_ns: int = 1 * MSEC
    pause_every_ns: int = 0
    pause_for_ns: int = 0

    def __post_init__(self) -> None:
        if self.drain_interval_ns <= 0:
            raise ValueError("drain_interval_ns must be positive")
        if self.pause_every_ns < 0 or self.pause_for_ns < 0:
            raise ValueError("pause parameters must be non-negative")
        if (self.pause_every_ns > 0) != (self.pause_for_ns > 0):
            raise ValueError("pause_every_ns and pause_for_ns must be set together")


class SlowConsumer:
    """Drains streaming collectors on a :class:`ConsumerSchedule`.

    Works on anything with a ``drain()`` method (e.g.
    :class:`~repro.core.streaming.StreamingDeltaCollector`); a monitor in
    stream mode exposes two such collectors (send and recv).
    """

    def __init__(
        self,
        env: Environment,
        collectors: Iterable,
        schedule: ConsumerSchedule,
    ) -> None:
        self.env = env
        self.collectors: List = [c for c in collectors if hasattr(c, "drain")]
        self.schedule = schedule
        #: Diagnostics: completed drain sweeps and pauses taken.
        self.drains = 0
        self.pauses = 0
        self._started = False

    def start(self) -> "SlowConsumer":
        if self._started:
            raise RuntimeError("consumer already started")
        self._started = True
        self.env.process(self._run(), name="faults:consumer")
        return self

    def _run(self):
        schedule = self.schedule
        next_pause = schedule.pause_every_ns if schedule.pause_every_ns else None
        while True:
            yield self.env.timeout(schedule.drain_interval_ns)
            if next_pause is not None and self.env.now >= next_pause:
                self.pauses += 1
                yield self.env.timeout(schedule.pause_for_ns)
                next_pause = self.env.now + schedule.pause_every_ns
            for collector in self.collectors:
                collector.drain()
            self.drains += 1
