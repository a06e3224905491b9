"""The open-loop client: tagged requests over a persistent connection pool.

The client is intentionally *not* a kernel task: the paper filters tracing
to the server's tgid, so client syscalls never enter the analysis, and
keeping the client out of the simulated scheduler halves the event count.
Its observable behaviour — request arrival times on the server's sockets
and response latencies — is identical.

The generator and the per-connection readers (257 processes on
data-caching) self-drive (:data:`repro.sim.process.SELF_DRIVE`): each
registers its own callback list on the event it waits on, so the engine
resumes it directly, with no ``Process._resume`` frame.  The retry
watchdog yields its events to its process, which drives it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..kernel.sockets import SocketEndpoint
from ..net.packet import Message
from ..sim.engine import Environment
from ..sim.events import Timeout
from ..sim.process import SELF_DRIVE
from ..sim.rng import Stream
from ..sim.timebase import SEC
from .arrivals import poisson_interarrivals, uniform_interarrivals
from .latency import LatencyTracker

__all__ = ["OpenLoopClient", "ClientReport"]


@dataclass
class ClientReport:
    """What the benchmark harness reports for one run (the ground truth)."""

    offered: int
    completed: int
    duration_ns: int
    latency: LatencyTracker
    qos_latency_ns: Optional[int] = None
    #: Steady-state measurement (trimmed at the last offered arrival, so the
    #: post-arrival drain of retransmission stragglers is excluded).
    steady_completions: int = 0
    steady_span_ns: int = 0
    #: Application-level retransmissions issued by the retry watchdog.
    retried: int = 0
    #: Requests given up on after exhausting retries (fault runs only).
    abandoned: int = 0
    #: Requests refused at the socket layer by an admission gate
    #: (closed-loop shedding runs only).  Rejected requests count toward
    #: run completion but contribute no latency sample.
    rejected: int = 0

    @property
    def achieved_rps(self) -> float:
        """RPS_real: steady-state completions per second.

        Falls back to the full span when the steady window is degenerate.
        """
        if self.steady_span_ns > 0 and self.steady_completions >= 50:
            return self.steady_completions * SEC / self.steady_span_ns
        if self.duration_ns <= 0:
            return 0.0
        return self.completed * SEC / self.duration_ns

    @property
    def p99_ns(self) -> float:
        return self.latency.p99_ns()

    @property
    def qos_violated(self) -> bool:
        if self.qos_latency_ns is None:
            return False
        return self.latency.p99_ns() > self.qos_latency_ns


class OpenLoopClient:
    """Drives tagged requests at a fixed offered rate over a socket pool."""

    def __init__(
        self,
        env: Environment,
        sockets: Sequence[SocketEndpoint],
        stream: Stream,
        rate_rps: float,
        total_requests: int,
        request_size: int = 64,
        qos_latency_ns: Optional[int] = None,
        arrival: str = "poisson",
        arrival_spread: float = 0.1,
        phases: Optional[Sequence] = None,
        retry_timeout_ns: Optional[int] = None,
        max_retries: int = 3,
    ) -> None:
        """``phases`` (optional): a sequence of ``(rate_rps, n_requests)``
        tuples for ramp experiments; overrides ``rate_rps``/``total_requests``.

        ``retry_timeout_ns`` (optional) arms an application-level retry
        watchdog: a request unanswered for that long is re-sent on its
        original connection (latency keeps counting from the *original*
        send, like a real timeout-and-retry client library), and abandoned
        after ``max_retries`` re-sends so ``done`` still fires when a fault
        swallows requests outright (worker crash, connection reset)."""
        if phases is not None:
            phases = [(float(rate), int(count)) for rate, count in phases]
            if not phases or any(r <= 0 or c < 1 for r, c in phases):
                raise ValueError("phases must be non-empty (rate>0, count>=1) pairs")
            total_requests = sum(count for _rate, count in phases)
            rate_rps = phases[0][0]
        self.phases = phases
        if not sockets:
            raise ValueError("client needs at least one connection")
        if total_requests < 1:
            raise ValueError("need at least one request")
        if arrival not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival process {arrival!r}")
        self.env = env
        self.sockets = list(sockets)
        self.stream = stream
        self.rate_rps = rate_rps
        self.total_requests = total_requests
        self.request_size = request_size
        self.qos_latency_ns = qos_latency_ns
        self.arrival = arrival
        self.arrival_spread = arrival_spread
        if retry_timeout_ns is not None and retry_timeout_ns <= 0:
            raise ValueError("retry_timeout_ns must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.retry_timeout_ns = retry_timeout_ns
        self.max_retries = max_retries

        self.latency = LatencyTracker()
        self.offered = 0
        self.completed = 0
        #: Time the final request was offered (steady-state trim boundary).
        self.last_offered_ns: Optional[int] = None
        #: Completion timestamps (for steady-state trimming at report time).
        self._completion_times: List[int] = []
        self._send_times: Dict[int, int] = {}
        #: Last (re)transmission time per outstanding tag (watchdog state;
        #: kept separate so latency always measures from the original send).
        self._last_attempt: Dict[int, int] = {}
        self._retries_of: Dict[int, int] = {}
        self.retried = 0
        self.abandoned = 0
        self.rejected = 0
        self._tags = itertools.count(1)
        #: Timestamped request-outcome events for cross-layer correlation:
        #: ``(t_ns, kind, value)`` with kind in {"offer", "complete",
        #: "retry", "abandon", "reject"} and value = latency_ns for
        #: completions, the request tag otherwise.  ``None`` (off) unless
        #: :meth:`enable_outcome_log` was called — the clean hot path pays
        #: only a ``None`` check per event.
        self.outcome_log: Optional[List[tuple]] = None
        self._first_completion: Optional[int] = None
        self._last_completion: Optional[int] = None
        #: Fires when every offered request has been answered.
        self.done = env.event()
        #: The watchdog's pending sleep, canceled when ``done`` fires so a
        #: finished run does not keep a dead timer in the event queue.
        self._watchdog_sleep = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def enable_outcome_log(self) -> List[tuple]:
        """Turn on the timestamped outcome log (idempotent); returns it.

        Must be called before :meth:`start` so the log covers every event.
        """
        if self._started:
            raise RuntimeError("enable_outcome_log must precede start()")
        if self.outcome_log is None:
            self.outcome_log = []
        return self.outcome_log

    def start(self) -> None:
        """Spawn the generator and one reader per connection."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        env = self.env
        self._gen_process = env.process(self._generator(), name="client:gen")
        for index, sock in enumerate(self.sockets):
            env.process(self._reader(sock), name=f"client:rd{index}")
        if self.retry_timeout_ns is not None:
            env.process(self._watchdog(), name="client:watchdog")

    # -- processes ---------------------------------------------------------
    def _gaps_for(self, rate_rps: float):
        if self.arrival == "poisson":
            return poisson_interarrivals(self.stream, rate_rps)
        # Fixed-rate issue with mild jitter: how TailBench's harness and
        # Triton's perf_analyzer actually pace requests.
        return uniform_interarrivals(self.stream, rate_rps, self.arrival_spread)

    def _generator(self):
        cb = yield SELF_DRIVE
        env = self.env
        sockets = self.sockets
        send_times = self._send_times
        last_attempt = self._last_attempt
        tags = self._tags
        phases = self.phases or [(self.rate_rps, self.total_requests)]
        index = 0
        for rate, count in phases:
            gaps = self._gaps_for(rate)
            for _ in range(count):
                Timeout(env, next(gaps)).callbacks = cb
                yield
                now = env._now
                tag = next(tags)
                send_times[tag] = now
                last_attempt[tag] = now
                self.offered += 1
                self.last_offered_ns = now
                if self.outcome_log is not None:
                    self.outcome_log.append((now, "offer", tag))
                sock = sockets[index % len(sockets)]
                index += 1
                sock.send(Message(payload="request", size=self.request_size, tag=tag))
        # Nothing would catch a self-driven generator's return, so it ends
        # its process here, where a driven one would return, and stays
        # parked: nothing it waited on is pending.
        self._gen_process.succeed()
        yield

    def _reader(self, sock: SocketEndpoint):
        cb = yield SELF_DRIVE
        env = self.env
        rx = sock.rx
        send_times = self._send_times
        while True:
            if not rx:
                sock.wait_readable().callbacks = cb
                yield
            response = rx.popleft()
            sent_at = send_times.pop(response.tag, None)
            if sent_at is None:
                continue  # duplicate or unknown tag; ignore
            self._last_attempt.pop(response.tag, None)
            self._retries_of.pop(response.tag, None)
            now = env._now
            if response.payload == "rejected":
                # Shed at the socket layer: treat as a final refusal (no
                # retry, no latency sample) so the run still completes.
                self.rejected += 1
                if self.outcome_log is not None:
                    self.outcome_log.append((now, "reject", response.tag))
                self._maybe_finish()
                continue
            self.latency.record(now - sent_at)
            if self.outcome_log is not None:
                self.outcome_log.append((now, "complete", now - sent_at))
            self.completed += 1
            self._completion_times.append(now)
            if self._first_completion is None:
                self._first_completion = now
            self._last_completion = now
            self._maybe_finish()

    def _watchdog(self):
        """Re-send stale requests; abandon them after ``max_retries``."""
        timeout = self.retry_timeout_ns
        while not self.done.triggered:
            self._watchdog_sleep = self.env.timeout(timeout)
            yield self._watchdog_sleep
            self._watchdog_sleep = None
            if self.done.triggered:
                return
            now = self.env.now
            stale = [tag for tag, last in self._last_attempt.items()
                     if now - last >= timeout]
            for tag in stale:
                attempts = self._retries_of.get(tag, 0)
                if attempts >= self.max_retries:
                    # Give up: the request is lost to the fault.  Counting
                    # it lets ``done`` fire even when responses never come.
                    self._send_times.pop(tag, None)
                    self._last_attempt.pop(tag, None)
                    self._retries_of.pop(tag, None)
                    self.abandoned += 1
                    if self.outcome_log is not None:
                        self.outcome_log.append((now, "abandon", tag))
                    continue
                self._retries_of[tag] = attempts + 1
                self._last_attempt[tag] = now
                self.retried += 1
                if self.outcome_log is not None:
                    self.outcome_log.append((now, "retry", tag))
                sock = self.sockets[(tag - 1) % len(self.sockets)]
                sock.send(Message(payload="request", size=self.request_size,
                                  tag=tag))
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self.completed + self.abandoned + self.rejected >= self.total_requests
                and not self.done.triggered):
            self.done.succeed(self.report())
            sleep = self._watchdog_sleep
            if sleep is not None and sleep.callbacks is not None:
                # Lazy-cancel the watchdog's pending timer: the run is
                # over, so letting it fire would only pad the event queue.
                self.env.cancel(sleep)
                self._watchdog_sleep = None

    # -- results ---------------------------------------------------------
    def report(self) -> ClientReport:
        if self._first_completion is None or self._last_completion is None:
            duration = 0
        else:
            duration = self._last_completion - self._first_completion
        if self._first_completion is not None and self.last_offered_ns is not None:
            steady_span = max(0, self.last_offered_ns - self._first_completion)
            steady_completions = sum(
                1 for t in self._completion_times if t <= self.last_offered_ns
            )
        else:
            steady_span = 0
            steady_completions = 0
        return ClientReport(
            offered=self.offered,
            completed=self.completed,
            duration_ns=duration,
            latency=self.latency,
            qos_latency_ns=self.qos_latency_ns,
            steady_completions=steady_completions,
            steady_span_ns=steady_span,
            retried=self.retried,
            abandoned=self.abandoned,
            rejected=self.rejected,
        )
