"""Plain-Python syscall trace recording.

A :class:`TraceRecorder` attaches to both ``raw_syscalls`` tracepoints and
reconstructs completed syscall records (enter + exit paired per task, the
same way Listing 1's BPF hash map pairs them).  It is the reference
implementation used by tests, by Fig. 1's timeline study, and by the
"native" fast path of the collectors in :mod:`repro.core.collectors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .syscalls import SYSCALL_NAMES, SyscallFamily, family_of
from .tracepoints import TracepointBus

__all__ = ["SyscallRecord", "TraceRecorder"]


@dataclass(frozen=True)
class SyscallRecord:
    """One completed syscall invocation."""

    pid_tgid: int
    syscall_nr: int
    enter_ns: int
    exit_ns: int
    ret: int

    @property
    def duration_ns(self) -> int:
        return self.exit_ns - self.enter_ns

    @property
    def tgid(self) -> int:
        return self.pid_tgid >> 32

    @property
    def tid(self) -> int:
        return self.pid_tgid & 0xFFFFFFFF

    @property
    def name(self) -> str:
        return SYSCALL_NAMES.get(self.syscall_nr, f"sys_{self.syscall_nr}")

    @property
    def family(self) -> SyscallFamily:
        return family_of(self.syscall_nr)

    def __repr__(self) -> str:
        return (
            f"<SyscallRecord {self.name} tid={self.tid} "
            f"[{self.enter_ns}..{self.exit_ns}] ret={self.ret}>"
        )


class TraceRecorder:
    """Records completed syscalls, optionally filtered by tgid.

    ``probe_cost_ns`` lets tests model per-firing probe cost (the eBPF path
    charges real interpreted-instruction costs instead).
    """

    def __init__(
        self,
        bus: TracepointBus,
        tgid: Optional[int] = None,
        probe_cost_ns: int = 0,
    ) -> None:
        self._bus = bus
        self._tgid = tgid
        self._probe_cost_ns = probe_cost_ns
        self.records: List[SyscallRecord] = []
        self._open: Dict[Tuple[int, int], int] = {}
        self._attached = False

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "TraceRecorder":
        if self._attached:
            raise RuntimeError("recorder already attached")
        self._bus.sys_enter.attach(self._on_enter)
        self._bus.sys_exit.attach(self._on_exit)
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self._bus.sys_enter.detach(self._on_enter)
            self._bus.sys_exit.detach(self._on_exit)
            self._attached = False

    def __enter__(self) -> "TraceRecorder":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- probes ------------------------------------------------------------
    def _wanted(self, pid_tgid: int) -> bool:
        return self._tgid is None or (pid_tgid >> 32) == self._tgid

    def _on_enter(self, pid_tgid: int, nr: int, args, ktime_ns: int) -> int:
        if self._wanted(pid_tgid):
            self._open[(pid_tgid, nr)] = ktime_ns
        return self._probe_cost_ns

    def _on_exit(self, pid_tgid: int, nr: int, ret: int, ktime_ns: int) -> int:
        if self._wanted(pid_tgid):
            enter_ns = self._open.pop((pid_tgid, nr), None)
            if enter_ns is not None:
                self.records.append(
                    SyscallRecord(
                        pid_tgid=pid_tgid,
                        syscall_nr=nr,
                        enter_ns=enter_ns,
                        exit_ns=ktime_ns,
                        ret=ret,
                    )
                )
        return self._probe_cost_ns

    # -- queries ---------------------------------------------------------
    def by_syscall(self, nr: int) -> List[SyscallRecord]:
        return [r for r in self.records if r.syscall_nr == nr]

    def enter_times(self, nrs) -> List[int]:
        """Sorted sys_enter timestamps for the given syscall numbers."""
        wanted = set(nrs)
        times = [r.enter_ns for r in self.records if r.syscall_nr in wanted]
        times.sort()
        return times

    def __len__(self) -> int:
        return len(self.records)
