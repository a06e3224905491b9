"""Stream-to-userspace collection — the paper's *first* methodology.

§III: "Initially, we streamed all available eBPF trace data to user space
to explore potential correlations with request-level metrics.
Subsequently, we leveraged eBPF capabilities to compute these metrics
directly within the eBPF space."

This module implements that first stage faithfully: a sys_enter program
that emits one ``(timestamp, syscall_nr)`` record per matching event
through a ``PERF_EVENT_ARRAY`` (bcc's ``perf_buffer`` path), with the
statistics computed in userspace from the drained records.  The ABL-STREAM
benchmark quantifies why the paper moved on: per-event streaming costs
bytes and probe time linear in the event rate, while the in-kernel
collector's state is 48 bytes flat.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple, Union

from ..ebpf.asm import Asm
from ..ebpf.bcc import BPF
from ..ebpf.context import ProgType
from ..ebpf.helpers import Helper
from ..ebpf.insn import Insn
from ..ebpf.maps import PerfEventArray
from ..ebpf.opcodes import MemSize, Reg
from ..ebpf.program import Program
from ..kernel.kernel import Kernel
from .collectors import _ASSEMBLY_MEMO, _emit_epilogue, _emit_prologue
from .config import CollectorConfig, resolve_collector_config
from .deltas import DeltaStats
from .histograms import DeltaHistogram

__all__ = ["StreamingDeltaCollector", "RECORD_SIZE"]

#: One streamed record: u64 timestamp + u64 syscall nr (padding-free).
RECORD_SIZE = 16
_RECORD = struct.Struct("<QQ")


def build_streaming_program(
    map_name: str, tgid: int, syscall_nrs: Iterable[int],
    prog_name: str = "stream_enter",
) -> Program:
    """sys_enter program emitting one perf record per matching syscall."""
    nrs = tuple(syscall_nrs)
    if not nrs:
        raise ValueError("need at least one syscall number")
    insns = _streaming_insns(map_name, tgid, nrs)
    return Program(prog_name, list(insns), ProgType.tracepoint_sys_enter())


@lru_cache(maxsize=_ASSEMBLY_MEMO)
def _streaming_insns(map_name: str, tgid: int, syscall_nrs: Tuple[int, ...]) -> Tuple[Insn, ...]:
    asm = Asm()
    _emit_prologue(asm, tgid, syscall_nrs)  # saves ctx in r9, leaves args->id in r8
    # record = { ktime, syscall_nr } on the stack
    asm.call(Helper.KTIME_GET_NS)
    asm.stx(MemSize.DW, Reg.R10, -16, Reg.R0)
    asm.stx(MemSize.DW, Reg.R10, -8, Reg.R8)
    # bpf_perf_event_output(ctx, &events, flags=0, &record, sizeof(record))
    asm.mov_reg(Reg.R1, Reg.R9)
    asm.ld_map_fd(Reg.R2, map_name)
    asm.mov_imm(Reg.R3, 0)
    asm.mov_reg(Reg.R4, Reg.R10)
    asm.add_imm(Reg.R4, -16)
    asm.mov_imm(Reg.R5, RECORD_SIZE)
    asm.call(Helper.PERF_EVENT_OUTPUT)
    _emit_epilogue(asm)
    return tuple(asm.build())


class StreamingDeltaCollector:
    """DeltaCollector-compatible API over per-event perf streaming.

    The statistics are identical to the in-kernel collector's *provided the
    userspace consumer drains fast enough*; a full perf buffer drops
    records (``lost_records``), which is precisely the operational hazard
    the in-kernel computation avoids.
    """

    def __init__(
        self,
        kernel: Kernel,
        tgid: int,
        syscall_nrs: Iterable[int],
        config: Union[None, str, CollectorConfig] = None,
        *,
        name: str = "stream",
    ) -> None:
        config = resolve_collector_config(config, "StreamingDeltaCollector")
        if config.mode == "native":
            # The default CollectorConfig mode; a streaming collector is
            # stream-mode by construction, so don't force callers to say so.
            config = config.replace(mode="stream")
        if config.mode != "stream":
            raise ValueError(f"unknown mode {config.mode!r}")
        self.config = config
        self.kernel = kernel
        self.tgid = tgid
        self.syscall_nrs = tuple(syscall_nrs)
        self.name = name
        self.events = PerfEventArray(capacity=config.capacity, name=f"{name}_events")
        program = build_streaming_program(
            f"{name}_events", tgid, self.syscall_nrs, prog_name=f"{name}_enter"
        )
        self._bpf = BPF(kernel, maps={f"{name}_events": self.events},
                        programs=[program], config=config)
        self._stats = DeltaStats()
        self._hist: Optional[DeltaHistogram] = (
            DeltaHistogram() if config.export is not None else None)
        self._attached = False
        #: Total record bytes shipped to userspace (the ablation's metric).
        self.bytes_streamed = 0
        #: ``events.lost`` at the last window boundary, so per-window loss
        #: can be attributed to the window it degraded.
        self._window_lost_base = 0

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "StreamingDeltaCollector":
        if self._attached:
            raise RuntimeError("collector already attached")
        self._bpf.attach_tracepoint("raw_syscalls:sys_enter", f"{self.name}_enter")
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self._bpf.detach_all()
            self._attached = False

    # -- userspace consumption ----------------------------------------------
    def drain(self) -> List[Tuple[int, int]]:
        """Drain the perf ring; returns decoded (timestamp, nr) records in
        arrival order and folds them into the running statistics.

        The ring arrives as one contiguous byte block
        (:meth:`~repro.ebpf.maps.PerfEventArray.drain`).  The program emits
        only :data:`RECORD_SIZE`-byte records, so one ``struct.iter_unpack``
        call decodes exactly the records record-at-a-time ``poll()`` would
        have produced (pinned by ``tests/ebpf/test_perf_batch.py``).
        """
        data = self.events.drain()
        if not data:
            return []
        records = list(_RECORD.iter_unpack(data))
        timestamps = [timestamp for timestamp, _nr in records]
        if self._hist is not None:
            # Bucket the same deltas the statistics accumulate: chain from
            # the last timestamp of the previous drain (or the carried
            # window anchor) exactly as add_timestamps does.
            last = self._stats.last_ns
            for ts_ns in timestamps:
                if last is not None:
                    self._hist.observe(ts_ns - last)
                last = ts_ns
        self._stats.add_timestamps(timestamps)
        self.bytes_streamed += len(data)
        return records

    @property
    def lost_records(self) -> int:
        """Records dropped because userspace drained too slowly."""
        return self.events.lost

    @property
    def lost_in_window(self) -> int:
        """Records dropped since the current window opened."""
        return self.events.lost - self._window_lost_base

    def snapshot(self) -> DeltaStats:
        """Drain, then return a copy of the accumulated statistics."""
        self.drain()
        s = self._stats
        return DeltaStats(count=s.count, sum=s.sum, sumsq=s.sumsq,
                          first_ns=s.first_ns, last_ns=s.last_ns,
                          carried=s.carried, events=s.events)

    def hist_snapshot(self) -> Optional[DeltaHistogram]:
        """Current window's log2 delta histogram (a copy), after a drain.

        ``None`` unless the collector was built with ``export`` enabled.
        Buckets exactly the deltas :meth:`snapshot` has accumulated, so
        ``hist_snapshot().total == snapshot().count`` holds at every drain
        point (lost records are missing from both sides alike).
        """
        if self._hist is None:
            return None
        self.drain()
        return self._hist.copy()

    def reset_window(self) -> List[Tuple[int, int]]:
        """Close the current window at the drain point.

        Records still sitting in the perf buffer fired *before* the
        boundary, so they are drained into the closing window first — and
        returned, so a caller that already snapshotted the window can
        account for the late-arriving tail instead of it being silently
        folded into a window that is then immediately zeroed.  An empty
        return means the last snapshot told the whole story, i.e. the
        windowed stream agrees with the in-kernel collector.
        """
        tail = self.drain()
        self._stats.reset_window()
        if self._hist is not None:
            self._hist.reset()
        self._window_lost_base = self.events.lost
        return tail
