"""Server-side scripted faults: stalls, worker crashes, connection resets.

Each fault is a frozen schedule entry; :class:`FaultOrchestrator` arms one
sim process per fault and applies it at its scheduled instant.  The
orchestrator only uses public hooks — :meth:`repro.kernel.cpu.CPU.inject_stall`,
:meth:`repro.kernel.threads.KProcess.kill_thread` / ``respawn_thread`` and
:meth:`repro.net.channel.Channel.reset` — so the same faults can be aimed
at any workload app built on :class:`~repro.workloads.base.ServerApp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from ..sim.engine import Environment

__all__ = [
    "ChannelStall",
    "ConnectionReset",
    "FaultOrchestrator",
    "FaultReport",
    "SendFragmentation",
    "WorkerCrash",
    "WorkerStall",
]


@dataclass(frozen=True)
class WorkerStall(object):
    """Freeze all compute for ``duration_ns`` starting at ``at_ns`` —
    a stop-the-world pause (GC, cgroup throttle, co-tenant burst)."""

    at_ns: int
    duration_ns: int

    def __post_init__(self) -> None:
        if self.at_ns < 0 or self.duration_ns <= 0:
            raise ValueError("need at_ns >= 0 and duration_ns > 0")


@dataclass(frozen=True)
class WorkerCrash:
    """Kill up to ``count`` worker threads at ``at_ns``; respawn each after
    ``restart_after_ns`` (0 = never — the capacity loss is permanent).

    ``match`` selects victims by task-name substring: ``"/w"`` hits the
    poll-loop workers of every built-in app, ``"/exec"`` the dispatch-pool
    executors.
    """

    at_ns: int
    restart_after_ns: int = 0
    count: int = 1
    match: str = "/w"

    def __post_init__(self) -> None:
        if self.at_ns < 0 or self.restart_after_ns < 0 or self.count < 1:
            raise ValueError("need at_ns/restart_after_ns >= 0 and count >= 1")


@dataclass(frozen=True)
class ConnectionReset:
    """At ``at_ns``, reset the first ``connections`` client connections:
    both directions drop everything in flight and both receive queues are
    flushed (an RST discards queued data)."""

    at_ns: int
    connections: int = 1

    def __post_init__(self) -> None:
        if self.at_ns < 0 or self.connections < 1:
            raise ValueError("need at_ns >= 0 and connections >= 1")


@dataclass(frozen=True)
class SendFragmentation:
    """From ``at_ns`` for ``duration_ns``, every response is sent as
    exactly ``chunks`` small writes instead of one — a buffering regression
    (TCP_NODELAY flipped on, a shrunk userspace write buffer, a serializer
    change).  Requests still complete on time, so the app layer reports
    nothing; only the send-delta dispersion sees the many-small-writes
    pattern (the APP_SILENT archetype)."""

    at_ns: int
    duration_ns: int
    chunks: int = 12

    def __post_init__(self) -> None:
        if self.at_ns < 0 or self.duration_ns <= 0:
            raise ValueError("need at_ns >= 0 and duration_ns > 0")
        if self.chunks < 2:
            raise ValueError("chunks must be >= 2 (1 is the healthy case)")


@dataclass(frozen=True)
class ChannelStall:
    """At ``at_ns``, head-of-line stall the client→server direction of the
    first ``connections`` connections (0 = all) for ``duration_ns``:
    requests sent during the stall queue upstream and arrive in a burst
    afterwards — delayed accepts / a saturated listen backlog.  The server's
    syscalls see only a quiet spell, which is exactly what an idle server
    looks like (the KERNEL_SILENT archetype)."""

    at_ns: int
    duration_ns: int
    connections: int = 0

    def __post_init__(self) -> None:
        if self.at_ns < 0 or self.duration_ns <= 0:
            raise ValueError("need at_ns >= 0 and duration_ns > 0")
        if self.connections < 0:
            raise ValueError("connections must be >= 0 (0 = all)")


Fault = Union[WorkerStall, WorkerCrash, ConnectionReset, SendFragmentation,
              ChannelStall]


@dataclass
class FaultReport:
    """What the orchestrator actually did (for result records)."""

    #: Human-readable ``(at_ns, description)`` entries, in application order.
    applied: List[tuple] = field(default_factory=list)
    killed: int = 0
    respawned: int = 0
    resets: int = 0
    stalls: int = 0
    fragmentations: int = 0
    channel_stalls: int = 0
    #: Messages discarded by connection resets (queued + in flight).
    discarded_messages: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class FaultOrchestrator:
    """Arms and applies a schedule of faults against one running app."""

    def __init__(self, env: Environment, kernel, app, faults) -> None:
        self.env = env
        self.kernel = kernel
        self.app = app
        self.faults = list(faults)
        self.report = FaultReport()
        self._started = False

    def start(self) -> "FaultOrchestrator":
        """Arm every fault, on either workload-sim tier."""
        if self._started:
            raise RuntimeError("orchestrator already started")
        self._started = True
        for index, fault in enumerate(self.faults):
            self.env.process(self._arm(fault), name=f"faults:f{index}")
        return self

    # -- application -------------------------------------------------------
    def _arm(self, fault: Fault):
        yield self.env.timeout(fault.at_ns)
        if isinstance(fault, WorkerStall):
            self._apply_stall(fault)
        elif isinstance(fault, WorkerCrash):
            yield from self._apply_crash(fault)
        elif isinstance(fault, ConnectionReset):
            self._apply_reset(fault)
        elif isinstance(fault, SendFragmentation):
            yield from self._apply_fragmentation(fault)
        elif isinstance(fault, ChannelStall):
            self._apply_channel_stall(fault)
        else:
            raise TypeError(f"unknown fault {fault!r}")

    def _record(self, description: str) -> None:
        self.report.applied.append((self.env.now, description))

    def _apply_stall(self, fault: WorkerStall) -> None:
        self.kernel.cpu.inject_stall(fault.duration_ns)
        self.report.stalls += 1
        self._record(f"stall {fault.duration_ns}ns")

    def _apply_crash(self, fault: WorkerCrash):
        process = self.app.process
        victims = [
            task for task in process.tasks
            if fault.match in task.name
            and task.sim_process is not None and task.sim_process.is_alive
        ][: fault.count]
        for task in victims:
            if process.kill_thread(task, cause="fault:crash"):
                self.report.killed += 1
                self._record(f"crash {task.name}")
        if fault.restart_after_ns and victims:
            yield self.env.timeout(fault.restart_after_ns)
            for task in victims:
                process.respawn_thread(task)
                self.report.respawned += 1
                self._record(f"respawn {task.name}")

    def _apply_fragmentation(self, fault: SendFragmentation):
        self.app._fragment_override = fault.chunks
        self.report.fragmentations += 1
        self._record(f"fragment responses into {fault.chunks} sends")
        yield self.env.timeout(fault.duration_ns)
        self.app._fragment_override = None
        self._record("fragmentation cleared")

    def _apply_channel_stall(self, fault: ChannelStall) -> None:
        sockets = self.app.client_sockets
        if fault.connections:
            sockets = sockets[: fault.connections]
        for sock in sockets:
            # The client endpoint's tx channel is the client→server
            # direction: stalling it holds requests upstream of the server.
            sock._tx.stall(fault.duration_ns)
        self.report.channel_stalls += 1
        self._record(
            f"channel stall {fault.duration_ns}ns on {len(sockets)} connections"
        )

    def _apply_reset(self, fault: ConnectionReset) -> None:
        sockets = self.app.client_sockets[: fault.connections]
        for sock in sockets:
            discarded = 0
            for endpoint in (sock, sock.peer):
                if endpoint is None:
                    continue
                discarded += len(endpoint.rx)
                endpoint.rx.clear()
                if endpoint._tx is not None:
                    endpoint._tx.reset()
            self.report.resets += 1
            self.report.discarded_messages += discarded
            self._record(f"reset {sock.name} (flushed {discarded})")
