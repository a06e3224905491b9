"""The ``raw_syscalls`` tracepoint bus.

Every syscall the simulated kernel executes fires ``raw_syscalls:sys_enter``
on entry and ``raw_syscalls:sys_exit`` on return, exactly like a real Linux
kernel.  A firing hands its attached probes the tracepoint's arguments as
they are, the way ``raw_tp`` programs read them in a real kernel:
``probe(pid_tgid, nr, arg, ktime_ns)``, where ``arg`` is the syscall's
argument tuple on sys_enter and its return value on sys_exit.  No context
object is built; a probe that needs the tracepoint's packed record (a
classic tracepoint program) packs it from those arguments.

Each tracepoint runs its whole attach set through one *dispatcher*, built
on the first firing after an attach or detach.  A plain probe is a
callable.  A probe may instead carry ``fuse(probes)``, which returns the
dispatcher for the whole attach set: eBPF probes do, and their generated
dispatcher runs compiled programs inline and calls every other probe
directly (:mod:`repro.ebpf.bcc`).  Without such a probe the dispatcher
calls each probe in attach order.

Probes may report a *cost* in nanoseconds (the simulated time spent running
the probe in kernel context); the kernel charges that cost to the traced
syscall, which is how the overhead experiment (EXP-OVH) measures the <1 %
tail-latency impact of tracing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["TracepointBus", "Tracepoint"]

#: A probe takes ``(pid_tgid, nr, arg, ktime_ns)`` and returns its
#: execution cost in ns (or None).
Probe = Callable[[int, int, object, int], Optional[int]]

#: A dispatcher runs an attach set on one firing; returns the summed cost.
Dispatcher = Callable[[int, int, object, int], int]


def _no_probes(pid_tgid: int, nr: int, arg, ktime_ns: int) -> int:
    return 0


_no_probes.slots = ()


def _call_each(probes: Tuple[Probe, ...]) -> Dispatcher:
    """The dispatcher of an attach set of plain callables."""

    def dispatch(pid_tgid: int, nr: int, arg, ktime_ns: int) -> int:
        cost = 0
        for probe in probes:
            probe_cost = probe(pid_tgid, nr, arg, ktime_ns)
            if probe_cost:
                cost += probe_cost
        return cost

    dispatch.slots = ("call",) * len(probes)
    return dispatch


class Tracepoint:
    """One attachable tracepoint (e.g. ``raw_syscalls:sys_enter``)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._probes: List[Probe] = []
        #: Diagnostics: number of firings.
        self.fired = 0
        #: What a firing runs; ``None`` until the attach set's next firing.
        self._dispatch: Optional[Dispatcher] = _no_probes

    def attach(self, probe: Probe) -> None:
        self._probes.append(probe)
        self._dispatch = None

    def detach(self, probe: Probe) -> None:
        self._probes.remove(probe)
        self._dispatch = None

    @property
    def probes(self) -> Tuple[Probe, ...]:
        """The attached probes, in attach order."""
        return tuple(self._probes)

    @property
    def probe_count(self) -> int:
        return len(self._probes)

    def fire(self, pid_tgid: int, nr: int, arg, ktime_ns: int) -> int:
        """Run every attached probe; returns the summed probe cost in ns."""
        self.fired += 1
        dispatch = self._dispatch
        if dispatch is None:
            dispatch = self.dispatcher()
        return dispatch(pid_tgid, nr, arg, ktime_ns)

    def dispatcher(self) -> Dispatcher:
        """The function a firing runs, built now if an attach or detach
        changed the attach set since the last firing.  Its ``slots`` name
        how it runs each probe, in attach order: ``"call"`` for a direct
        call, or a kind the probe's ``fuse`` defines."""
        if self._dispatch is None:
            probes = tuple(self._probes)
            fuse = next((probe.fuse for probe in probes if hasattr(probe, "fuse")), None)
            if fuse is not None:
                self._dispatch = fuse(probes)
            else:
                self._dispatch = _call_each(probes) if probes else _no_probes
        return self._dispatch


class TracepointBus:
    """The kernel's tracepoint registry (the two the paper uses).

    ``fire_enter(pid_tgid, nr, args, ktime_ns)`` and ``fire_exit(pid_tgid,
    nr, ret, ktime_ns)`` fire the two tracepoints; each returns the cost
    its probes charge to the syscall.
    """

    SYS_ENTER = "raw_syscalls:sys_enter"
    SYS_EXIT = "raw_syscalls:sys_exit"

    def __init__(self) -> None:
        self.sys_enter = Tracepoint(self.SYS_ENTER)
        self.sys_exit = Tracepoint(self.SYS_EXIT)
        self._by_name = {
            self.SYS_ENTER: self.sys_enter,
            self.SYS_EXIT: self.sys_exit,
        }
        self.fire_enter = self.sys_enter.fire
        self.fire_exit = self.sys_exit.fire

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
