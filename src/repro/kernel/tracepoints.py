"""The ``raw_syscalls`` tracepoint bus.

Every syscall the simulated kernel executes fires ``raw_syscalls:sys_enter``
on entry and ``raw_syscalls:sys_exit`` on return, exactly like a real Linux
kernel.  Attached probes (eBPF programs via :mod:`repro.ebpf.bcc`, or plain
Python callables for tests) receive a context object mirroring the
tracepoint's format struct.

Probes may report a *cost* in nanoseconds (the simulated time spent running
the probe in kernel context); the kernel charges that cost to the traced
syscall, which is how the overhead experiment (EXP-OVH) measures the <1 %
tail-latency impact of tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["SysEnterCtx", "SysExitCtx", "TracepointBus", "Tracepoint"]


@dataclass(slots=True)
class SysEnterCtx:
    """Context for ``raw_syscalls:sys_enter`` (cf. its format file).

    One object per firing, shared by every attached probe; probes treat
    it as read-only.  ``_record`` holds the packed tracepoint record once
    the first eBPF probe of the firing has built it
    (:func:`repro.ebpf.context.pack_sys_enter`).
    """

    #: ``bpf_get_current_pid_tgid()`` value: (tgid << 32) | tid.
    pid_tgid: int
    #: Syscall number (``args->id`` in Listing 1).
    syscall_nr: int
    #: Up to six syscall arguments (integers; fds etc.).
    args: Tuple[int, ...] = ()
    #: Timestamp (``bpf_ktime_get_ns()``) the tracepoint fired.
    ktime_ns: int = 0
    _record: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    @property
    def tgid(self) -> int:
        return self.pid_tgid >> 32

    @property
    def tid(self) -> int:
        return self.pid_tgid & 0xFFFFFFFF


@dataclass(slots=True)
class SysExitCtx:
    """Context for ``raw_syscalls:sys_exit``; shared and memoized like
    :class:`SysEnterCtx`."""

    pid_tgid: int
    syscall_nr: int
    ret: int = 0
    ktime_ns: int = 0
    _record: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    @property
    def tgid(self) -> int:
        return self.pid_tgid >> 32

    @property
    def tid(self) -> int:
        return self.pid_tgid & 0xFFFFFFFF


#: A probe takes the context and returns its execution cost in ns (or None).
Probe = Callable[[object], Optional[int]]


class Tracepoint:
    """One attachable tracepoint (e.g. ``raw_syscalls:sys_enter``)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._probes: List[Probe] = []
        #: Diagnostics: number of firings.
        self.fired = 0

    def attach(self, probe: Probe) -> None:
        self._probes.append(probe)

    def detach(self, probe: Probe) -> None:
        self._probes.remove(probe)

    @property
    def probe_count(self) -> int:
        return len(self._probes)

    def fire(self, ctx) -> int:
        """Run all probes; returns the summed probe cost in ns."""
        self.fired += 1
        if not self._probes:
            return 0
        cost = 0
        for probe in self._probes:
            probe_cost = probe(ctx)
            if probe_cost:
                cost += probe_cost
        return cost


class TracepointBus:
    """The kernel's tracepoint registry (the two the paper uses)."""

    SYS_ENTER = "raw_syscalls:sys_enter"
    SYS_EXIT = "raw_syscalls:sys_exit"

    def __init__(self) -> None:
        self.sys_enter = Tracepoint(self.SYS_ENTER)
        self.sys_exit = Tracepoint(self.SYS_EXIT)
        self._by_name = {
            self.SYS_ENTER: self.sys_enter,
            self.SYS_EXIT: self.sys_exit,
        }

    def get(self, name: str) -> Tracepoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown tracepoint {name!r}; available: {sorted(self._by_name)}"
            ) from None

    @property
    def any_probes(self) -> bool:
        """Fast path check: True if any probe is attached anywhere."""
        return bool(self.sys_enter.probe_count or self.sys_exit.probe_count)

    def fire_enter(self, pid_tgid: int, nr: int, args: Tuple[int, ...], ktime_ns: int) -> int:
        if not self.sys_enter.probe_count:
            self.sys_enter.fired += 1
            return 0
        return self.sys_enter.fire(SysEnterCtx(pid_tgid, nr, args, ktime_ns))

    def fire_exit(self, pid_tgid: int, nr: int, ret: int, ktime_ns: int) -> int:
        if not self.sys_exit.probe_count:
            self.sys_exit.fired += 1
            return 0
        return self.sys_exit.fire(SysExitCtx(pid_tgid, nr, ret, ktime_ns))
