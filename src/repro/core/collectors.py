"""In-kernel metric collectors.

Two collector shapes cover everything the paper measures:

* :class:`DeltaCollector` — for ``send``/``recv`` families: accumulates
  {count, sum, sumsq} of **inter-syscall deltas** across *all threads of the
  target process, aggregated into a single trace* (§IV-C-1's "most effective
  strategy").  Feeds Eq. 1 (``RPS_obsv``) and Eq. 2 (variance).
* :class:`DurationCollector` — for the ``poll`` family: Listing 1's
  enter-timestamp hash keyed by ``pid_tgid`` plus duration accumulation.
  Feeds the saturation-slack signal (Fig. 4).

Each collector runs in one of two modes:

* ``mode="vm"`` — a genuine eBPF program, assembled here, verified, and
  interpreted per tracepoint firing (the honest reproduction);
* ``mode="native"`` — a Python probe performing the **identical integer
  arithmetic** (a fast path for large parameter sweeps).

Equivalence of the two modes on identical traces is asserted by
``tests/core/test_collectors.py`` and, end to end,
``tests/integration/test_monitor_mode_equivalence.py``; ABL-VM
benchmarks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..ebpf.asm import Asm
from ..ebpf.bcc import BPF
from ..ebpf.context import ProgType
from ..ebpf.insn import Insn
from ..ebpf.maps import ArrayMap, HashMap
from ..ebpf.opcodes import MemSize, Reg
from ..ebpf.helpers import Helper
from ..ebpf.program import Program
from ..kernel.kernel import Kernel
from .config import CollectorConfig, resolve_collector_config
from .deltas import DeltaStats
from .histograms import NBUCKETS, DeltaHistogram

__all__ = ["DeltaCollector", "DurationCollector", "DurationStats",
           "build_delta_program", "build_duration_programs"]

# Slot offsets (bytes) in the delta collector's single array entry.
_LAST = 0
_COUNT = 8
_SUM = 16
_SUMSQ = 24
_FIRST = 32
_EVENTS = 40
_DELTA_VALUE_SIZE = 48

# Slot offsets in the duration collector's entry.
_D_COUNT = 0
_D_SUM = 8
_D_SUMSQ = 16
_DUR_VALUE_SIZE = 24

_U64 = (1 << 64) - 1

#: Argument tuples whose assembled instructions the builders keep.  The
#: builders are pure, ``Insn`` is frozen and map references are still
#: names, so a kept tuple pins no cell's maps; every call still returns a
#: fresh ``Program`` with its own ``insns`` list.
_ASSEMBLY_MEMO = 128


def _emit_prologue(asm: Asm, tgid: int, syscall_nrs: Sequence[int]) -> None:
    """Common filter: bail unless current tgid and syscall id match."""
    asm.mov_reg(Reg.R9, Reg.R1)  # save ctx across helper calls
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.rsh_imm(Reg.R0, 32)
    asm.jne_imm(Reg.R0, tgid, "out")
    asm.ldx(MemSize.DW, Reg.R8, Reg.R9, 8)  # args->id
    for nr in syscall_nrs:
        asm.jeq_imm(Reg.R8, nr, "matched")
    asm.ja("out")
    asm.label("matched")


def _emit_epilogue(asm: Asm) -> None:
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()


def _emit_hist_update(asm: Asm, hist_map: str) -> None:
    """In-probe log2 bucketing: count the delta in R3 into ``hist_map``.

    Emitted inside the ``have_last`` branch with R0 = the delta state
    pointer and R3 = the just-accumulated delta.  The bucket index is the
    delta's bit length, computed by an unrolled binary search (shifts and
    compares only — no loops, verifier-clean), and keys the hist array
    directly.  R0 is saved in callee-saved R6 across the lookup and
    restored, so the surrounding program is undisturbed.  Note the 64-bit
    delta cannot be compared against a 32-bit jump immediate directly; the
    top half is tested via ``rsh 32``.
    """
    asm.mov_reg(Reg.R6, Reg.R0)          # save state pointer
    asm.mov_imm(Reg.R5, 0)               # R5 = bit length accumulator
    asm.mov_reg(Reg.R4, Reg.R3)          # R4 = working copy of delta
    asm.mov_reg(Reg.R1, Reg.R4)
    asm.rsh_imm(Reg.R1, 32)
    asm.jeq_imm(Reg.R1, 0, "bl32")
    asm.rsh_imm(Reg.R4, 32)
    asm.add_imm(Reg.R5, 32)
    asm.label("bl32")
    for shift, bound in ((16, 0xFFFF), (8, 0xFF), (4, 0xF), (2, 0x3), (1, 0x1)):
        asm.jle_imm(Reg.R4, bound, f"bl{shift}")
        asm.rsh_imm(Reg.R4, shift)
        asm.add_imm(Reg.R5, shift)
        asm.label(f"bl{shift}")
    asm.jeq_imm(Reg.R4, 0, "bl0")
    asm.add_imm(Reg.R5, 1)
    asm.label("bl0")
    asm.stx(MemSize.W, Reg.R10, -8, Reg.R5)
    asm.ld_map_fd(Reg.R1, hist_map)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -8)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "hist_done")
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, 0)
    asm.add_imm(Reg.R1, 1)
    asm.stx(MemSize.DW, Reg.R0, 0, Reg.R1)
    asm.label("hist_done")
    asm.mov_reg(Reg.R0, Reg.R6)          # restore state pointer


def build_delta_program(map_name: str, tgid: int, syscall_nrs: Sequence[int],
                        prog_name: str = "delta_enter",
                        hist_map: Optional[str] = None) -> Program:
    """sys_enter program accumulating inter-call delta statistics.

    The state lives in a single array slot (key 0): every thread of the
    process folds into one trace (§IV-C-1).  The simulated kernel runs
    probes one at a time, so the slot needs no per-CPU split.

    ``hist_map`` names an optional ``NBUCKETS``-slot array map; when given,
    the same program also buckets each delta into an in-probe log2
    histogram (the export pipeline's distribution signal) — one combined
    program, so enabling export costs a bucket computation on the existing
    probe rather than a second prologue + clock read + state lookup.
    """
    if not syscall_nrs:
        raise ValueError("need at least one syscall number")
    insns = _delta_insns(map_name, tgid, tuple(syscall_nrs), hist_map)
    return Program(prog_name, list(insns), ProgType.tracepoint_sys_enter())


@lru_cache(maxsize=_ASSEMBLY_MEMO)
def _delta_insns(map_name: str, tgid: int, syscall_nrs: Tuple[int, ...],
                 hist_map: Optional[str]) -> Tuple[Insn, ...]:
    asm = Asm()
    _emit_prologue(asm, tgid, syscall_nrs)
    asm.call(Helper.KTIME_GET_NS)
    asm.mov_reg(Reg.R7, Reg.R0)  # now
    # state = lookup(map, key = 0)
    asm.st_imm(MemSize.W, Reg.R10, -4, 0)
    asm.ld_map_fd(Reg.R1, map_name)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "out")
    # if (events == 0) { first = now; } else { accumulate delta }
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, _EVENTS)
    asm.jne_imm(Reg.R1, 0, "have_last")
    asm.stx(MemSize.DW, Reg.R0, _FIRST, Reg.R7)
    asm.ja("finish")
    asm.label("have_last")
    asm.ldx(MemSize.DW, Reg.R2, Reg.R0, _LAST)
    asm.mov_reg(Reg.R3, Reg.R7)
    asm.sub_reg(Reg.R3, Reg.R2)  # delta = now - last
    asm.ldx(MemSize.DW, Reg.R4, Reg.R0, _COUNT)
    asm.add_imm(Reg.R4, 1)
    asm.stx(MemSize.DW, Reg.R0, _COUNT, Reg.R4)
    asm.ldx(MemSize.DW, Reg.R4, Reg.R0, _SUM)
    asm.add_reg(Reg.R4, Reg.R3)
    asm.stx(MemSize.DW, Reg.R0, _SUM, Reg.R4)
    asm.mov_reg(Reg.R5, Reg.R3)
    asm.mul_reg(Reg.R5, Reg.R3)  # delta^2
    asm.ldx(MemSize.DW, Reg.R4, Reg.R0, _SUMSQ)
    asm.add_reg(Reg.R4, Reg.R5)
    asm.stx(MemSize.DW, Reg.R0, _SUMSQ, Reg.R4)
    if hist_map is not None:
        _emit_hist_update(asm, hist_map)
    asm.label("finish")
    asm.stx(MemSize.DW, Reg.R0, _LAST, Reg.R7)
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, _EVENTS)
    asm.add_imm(Reg.R1, 1)
    asm.stx(MemSize.DW, Reg.R0, _EVENTS, Reg.R1)
    _emit_epilogue(asm)
    return tuple(asm.build())


def build_duration_programs(
    start_map: str,
    state_map: str,
    tgid: int,
    syscall_nrs: Sequence[int],
    prog_prefix: str = "dur",
) -> Tuple[Program, Program]:
    """Listing-1-style (enter, exit) programs measuring syscall duration."""
    if not syscall_nrs:
        raise ValueError("need at least one syscall number")
    enter, exit_ = _duration_insns(start_map, state_map, tgid, tuple(syscall_nrs))
    return (
        Program(f"{prog_prefix}_enter", list(enter), ProgType.tracepoint_sys_enter()),
        Program(f"{prog_prefix}_exit", list(exit_), ProgType.tracepoint_sys_exit()),
    )


@lru_cache(maxsize=_ASSEMBLY_MEMO)
def _duration_insns(start_map: str, state_map: str, tgid: int,
                    syscall_nrs: Tuple[int, ...]) -> Tuple[Tuple[Insn, ...], Tuple[Insn, ...]]:
    enter = Asm()
    _emit_prologue(enter, tgid, syscall_nrs)
    # start[pid_tgid] = ktime
    enter.call(Helper.GET_CURRENT_PID_TGID)
    enter.stx(MemSize.DW, Reg.R10, -8, Reg.R0)
    enter.call(Helper.KTIME_GET_NS)
    enter.stx(MemSize.DW, Reg.R10, -16, Reg.R0)
    enter.ld_map_fd(Reg.R1, start_map)
    enter.mov_reg(Reg.R2, Reg.R10)
    enter.add_imm(Reg.R2, -8)
    enter.mov_reg(Reg.R3, Reg.R10)
    enter.add_imm(Reg.R3, -16)
    enter.mov_imm(Reg.R4, 0)
    enter.call(Helper.MAP_UPDATE_ELEM)
    _emit_epilogue(enter)

    exit_ = Asm()
    _emit_prologue(exit_, tgid, syscall_nrs)
    # start_ns = start[pid_tgid]; if missing, skip
    exit_.call(Helper.GET_CURRENT_PID_TGID)
    exit_.stx(MemSize.DW, Reg.R10, -8, Reg.R0)
    exit_.ld_map_fd(Reg.R1, start_map)
    exit_.mov_reg(Reg.R2, Reg.R10)
    exit_.add_imm(Reg.R2, -8)
    exit_.call(Helper.MAP_LOOKUP_ELEM)
    exit_.jeq_imm(Reg.R0, 0, "out")
    exit_.ldx(MemSize.DW, Reg.R6, Reg.R0, 0)
    # duration = ktime - start_ns
    exit_.call(Helper.KTIME_GET_NS)
    exit_.sub_reg(Reg.R0, Reg.R6)
    exit_.mov_reg(Reg.R7, Reg.R0)
    # state = lookup(state_map, 0); accumulate
    exit_.st_imm(MemSize.W, Reg.R10, -4, 0)
    exit_.ld_map_fd(Reg.R1, state_map)
    exit_.mov_reg(Reg.R2, Reg.R10)
    exit_.add_imm(Reg.R2, -4)
    exit_.call(Helper.MAP_LOOKUP_ELEM)
    exit_.jeq_imm(Reg.R0, 0, "out")
    exit_.ldx(MemSize.DW, Reg.R1, Reg.R0, _D_COUNT)
    exit_.add_imm(Reg.R1, 1)
    exit_.stx(MemSize.DW, Reg.R0, _D_COUNT, Reg.R1)
    exit_.ldx(MemSize.DW, Reg.R1, Reg.R0, _D_SUM)
    exit_.add_reg(Reg.R1, Reg.R7)
    exit_.stx(MemSize.DW, Reg.R0, _D_SUM, Reg.R1)
    exit_.mov_reg(Reg.R5, Reg.R7)
    exit_.mul_reg(Reg.R5, Reg.R7)
    exit_.ldx(MemSize.DW, Reg.R1, Reg.R0, _D_SUMSQ)
    exit_.add_reg(Reg.R1, Reg.R5)
    exit_.stx(MemSize.DW, Reg.R0, _D_SUMSQ, Reg.R1)
    _emit_epilogue(exit_)
    return tuple(enter.build()), tuple(exit_.build())


def _read_u64(entry: bytearray, offset: int) -> int:
    return int.from_bytes(entry[offset : offset + 8], "little")


def _write_u64(entry: bytearray, offset: int, value: int) -> None:
    entry[offset : offset + 8] = (value & _U64).to_bytes(8, "little")


class DeltaCollector:
    """Inter-syscall delta statistics for one syscall set of one process.

    Every thread of the process folds into one trace (§IV-C-1's "most
    effective strategy"): one {count, sum, sumsq, last} state, in one
    array slot in vm mode.

    Construction is driven by a :class:`~repro.core.config.CollectorConfig`
    (or a bare mode string); a config with ``export`` set additionally
    maintains the in-probe log2 delta histogram the export pipeline
    consumes (:meth:`hist_snapshot`).
    """

    def __init__(
        self,
        kernel: Kernel,
        tgid: int,
        syscall_nrs: Iterable[int],
        config: Union[None, str, CollectorConfig] = None,
        *,
        name: str = "delta",
    ) -> None:
        config = resolve_collector_config(config, "DeltaCollector")
        if config.mode not in ("native", "vm"):
            raise ValueError(f"unknown mode {config.mode!r}")
        self.config = config
        self.kernel = kernel
        self.tgid = tgid
        self.syscall_nrs = tuple(syscall_nrs)
        if not self.syscall_nrs:
            raise ValueError("need at least one syscall number")
        self.mode = config.mode
        self.name = name
        with_hist = config.export is not None
        self._attached = False
        if self.mode == "vm":
            self._map = ArrayMap(value_size=_DELTA_VALUE_SIZE,
                                 max_entries=1, name=f"{name}_state")
            maps = {f"{name}_state": self._map}
            self._hist_map: Optional[ArrayMap] = None
            if with_hist:
                self._hist_map = ArrayMap(value_size=8, max_entries=NBUCKETS,
                                          name=f"{name}_hist")
                maps[f"{name}_hist"] = self._hist_map
            program = build_delta_program(
                f"{name}_state", tgid, self.syscall_nrs,
                prog_name=f"{name}_enter",
                hist_map=f"{name}_hist" if with_hist else None,
            )
            self._bpf = BPF(kernel, maps=maps, programs=[program],
                            config=config)
            # The in-kernel _EVENTS slot doubles as the "have an anchor
            # timestamp" flag, so after reset_window() it reads 1 even
            # though the anchor belongs to the previous window; userspace
            # tracks carried-ness so snapshots report true event counts.
            self._carried = False
        else:
            self._bpf = None
            self._stats = DeltaStats()
            self._hist: Optional[DeltaHistogram] = (
                DeltaHistogram() if with_hist else None)
            self._nr_set = frozenset(self.syscall_nrs)

    @property
    def bpf(self) -> Optional[BPF]:
        """The underlying BPF object (``None`` in native mode)."""
        return self._bpf

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "DeltaCollector":
        if self._attached:
            raise RuntimeError("collector already attached")
        if self.mode == "vm":
            self._bpf.attach_tracepoint("raw_syscalls:sys_enter", f"{self.name}_enter")
        else:
            self.kernel.tracepoints.sys_enter.attach(self._native_probe)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        if self.mode == "vm":
            self._bpf.detach_all()
        else:
            self.kernel.tracepoints.sys_enter.detach(self._native_probe)
        self._attached = False

    def _native_probe(self, pid_tgid: int, nr: int, args, ktime_ns: int) -> int:
        if pid_tgid >> 32 != self.tgid:
            return 0
        if nr not in self._nr_set:
            return 0
        if self._hist is not None and self._stats.last_ns is not None:
            self._hist.observe(ktime_ns - self._stats.last_ns)
        self._stats.add_timestamp(ktime_ns)
        return 0

    # -- window access -----------------------------------------------------
    def snapshot(self) -> DeltaStats:
        """Current window's statistics (a copy; window keeps accumulating)."""
        if self.mode == "native":
            s = self._stats
            if s.events == 0 and not s.carried:
                return DeltaStats()
            return DeltaStats(count=s.count, sum=s.sum, sumsq=s.sumsq,
                              first_ns=s.first_ns, last_ns=s.last_ns,
                              carried=s.carried, events=s.events)
        entry = self._map.lookup(self._map.key_of(0))
        events = _read_u64(entry, _EVENTS)
        if events == 0:
            return DeltaStats()
        # While no event has landed since reset, the entry still holds the
        # carried anchor only; once events grow past the anchor the window
        # is carried iff it was reset with an anchor.  The in-kernel slot
        # counts the anchor, so the window's own event count excludes it.
        return DeltaStats(
            count=_read_u64(entry, _COUNT),
            sum=_read_u64(entry, _SUM),
            sumsq=_read_u64(entry, _SUMSQ),
            first_ns=_read_u64(entry, _FIRST),
            last_ns=_read_u64(entry, _LAST),
            carried=self._carried,
            events=events - 1 if self._carried else events,
        )

    def hist_snapshot(self) -> Optional[DeltaHistogram]:
        """Current window's log2 delta histogram (a copy).

        ``None`` unless the collector was built with ``export`` enabled.
        The histogram buckets exactly the deltas the window's
        :class:`~repro.core.deltas.DeltaStats` accumulates, so
        ``hist_snapshot().total == snapshot().count`` always holds.
        """
        if self.config.export is None:
            return None
        if self.mode == "native":
            return self._hist.copy()
        return DeltaHistogram(self._hist_map.lookup_int(bucket)
                              for bucket in range(NBUCKETS))

    def reset_window(self) -> None:
        """Zero the accumulators; the next delta spans the boundary."""
        if self.mode == "native":
            self._stats.reset_window()
            if self._hist is not None:
                self._hist.reset()
            return
        entry = self._map.lookup(self._map.key_of(0))
        events = _read_u64(entry, _EVENTS)
        _write_u64(entry, _COUNT, 0)
        _write_u64(entry, _SUM, 0)
        _write_u64(entry, _SUMSQ, 0)
        if events > 0:
            _write_u64(entry, _FIRST, _read_u64(entry, _LAST))
            _write_u64(entry, _EVENTS, 1)
            self._carried = True
        if self._hist_map is not None:
            for slot in range(NBUCKETS):
                self._hist_map.update_int(slot, 0)


@dataclass
class DurationStats:
    """Accumulated syscall durations (integer ns, eBPF-computable)."""

    count: int = 0
    sum: int = 0
    sumsq: int = 0

    def mean_ns(self) -> int:
        return self.sum // self.count if self.count else 0

    def variance_ns2(self) -> int:
        if not self.count:
            return 0
        mean = self.sum // self.count
        return self.sumsq // self.count - mean * mean

    def merge(self, other: "DurationStats") -> "DurationStats":
        """Combine two disjoint windows (duration populations concatenate)."""
        return DurationStats(
            count=self.count + other.count,
            sum=self.sum + other.sum,
            sumsq=self.sumsq + other.sumsq,
        )


class DurationCollector:
    """Syscall duration statistics (Listing 1 generalized to a process).

    Takes the same :class:`~repro.core.config.CollectorConfig` (or mode
    string) as :class:`DeltaCollector`; fields with no duration-side
    meaning (``capacity``, ``export``) are ignored, which is what lets one
    config describe a whole monitor's collector set.
    """

    def __init__(
        self,
        kernel: Kernel,
        tgid: int,
        syscall_nrs: Iterable[int],
        config: Union[None, str, CollectorConfig] = None,
        *,
        name: str = "dur",
    ) -> None:
        config = resolve_collector_config(config, "DurationCollector")
        if config.mode not in ("native", "vm"):
            raise ValueError(f"unknown mode {config.mode!r}")
        self.config = config
        self.kernel = kernel
        self.tgid = tgid
        self.syscall_nrs = tuple(syscall_nrs)
        if not self.syscall_nrs:
            raise ValueError("need at least one syscall number")
        self.mode = config.mode
        self.name = name
        self._attached = False
        if self.mode == "vm":
            self._start = HashMap(key_size=8, value_size=8, max_entries=4096,
                                  name=f"{name}_start")
            self._state = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1,
                                   name=f"{name}_state")
            enter, exit_ = build_duration_programs(
                f"{name}_start", f"{name}_state", tgid, self.syscall_nrs,
                prog_prefix=name,
            )
            self._bpf = BPF(
                kernel,
                maps={f"{name}_start": self._start, f"{name}_state": self._state},
                programs=[enter, exit_],
                config=config,
            )
        else:
            self._bpf = None
            self._open: Dict[int, int] = {}
            self._stats = DurationStats()
            self._nr_set = frozenset(self.syscall_nrs)

    @property
    def bpf(self) -> Optional[BPF]:
        """The underlying BPF object (``None`` in native mode)."""
        return self._bpf

    def attach(self) -> "DurationCollector":
        if self._attached:
            raise RuntimeError("collector already attached")
        if self.mode == "vm":
            self._bpf.attach_tracepoint("raw_syscalls:sys_enter", f"{self.name}_enter")
            self._bpf.attach_tracepoint("raw_syscalls:sys_exit", f"{self.name}_exit")
        else:
            self.kernel.tracepoints.sys_enter.attach(self._native_enter)
            self.kernel.tracepoints.sys_exit.attach(self._native_exit)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        if self.mode == "vm":
            self._bpf.detach_all()
        else:
            self.kernel.tracepoints.sys_enter.detach(self._native_enter)
            self.kernel.tracepoints.sys_exit.detach(self._native_exit)
        self._attached = False

    def _native_enter(self, pid_tgid: int, nr: int, args, ktime_ns: int) -> int:
        if pid_tgid >> 32 == self.tgid and nr in self._nr_set:
            self._open[pid_tgid] = ktime_ns
        return 0

    def _native_exit(self, pid_tgid: int, nr: int, ret: int, ktime_ns: int) -> int:
        if pid_tgid >> 32 == self.tgid and nr in self._nr_set:
            start_ns = self._open.get(pid_tgid)
            if start_ns is not None:
                duration = ktime_ns - start_ns
                self._stats.count += 1
                self._stats.sum += duration
                self._stats.sumsq += duration * duration
        return 0

    def snapshot(self) -> DurationStats:
        if self.mode == "native":
            s = self._stats
            return DurationStats(count=s.count, sum=s.sum, sumsq=s.sumsq)
        entry = self._state.lookup(self._state.key_of(0))
        return DurationStats(
            count=_read_u64(entry, _D_COUNT),
            sum=_read_u64(entry, _D_SUM),
            sumsq=_read_u64(entry, _D_SUMSQ),
        )

    def reset_window(self) -> None:
        if self.mode == "native":
            self._stats = DurationStats()
            return
        entry = self._state.lookup(self._state.key_of(0))
        for offset in (_D_COUNT, _D_SUM, _D_SUMSQ):
            _write_u64(entry, offset, 0)
