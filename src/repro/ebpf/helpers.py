"""BPF helper functions: ids, signatures (for the verifier) and the runtime.

Helper ids match ``enum bpf_func_id`` so programs are numerically faithful
to real eBPF.  The :class:`HelperRuntime` supplies the kernel facilities a
helper needs at execution time (clock, current task, maps, output buffers).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import VmFault
from .maps import PerfEventArray, RingBuf

__all__ = ["Helper", "HelperSig", "HELPER_SIGS", "HelperRuntime", "ArgKind", "RetKind"]


class Helper(IntEnum):
    """``enum bpf_func_id`` values for the helpers the substrate supports."""

    MAP_LOOKUP_ELEM = 1
    MAP_UPDATE_ELEM = 2
    MAP_DELETE_ELEM = 3
    KTIME_GET_NS = 5
    TRACE_PRINTK = 6
    GET_PRANDOM_U32 = 7
    GET_SMP_PROCESSOR_ID = 8
    GET_CURRENT_PID_TGID = 14
    PERF_EVENT_OUTPUT = 25
    RINGBUF_OUTPUT = 130


class ArgKind(IntEnum):
    """Argument constraint kinds (simplified ``bpf_arg_type``)."""

    NONE = 0
    SCALAR = 1
    CONST_MAP = 2
    PTR_TO_MAP_KEY = 3
    PTR_TO_MAP_VALUE = 4
    PTR_TO_CTX = 5
    PTR_TO_MEM = 6  # stack/map memory, length given by next SIZE arg
    SIZE = 7


class RetKind(IntEnum):
    """Return value kinds (simplified ``bpf_return_type``)."""

    SCALAR = 0
    MAP_VALUE_OR_NULL = 1


@dataclass(frozen=True)
class HelperSig:
    """Verifier-facing helper signature."""

    helper: Helper
    args: Tuple[ArgKind, ...]
    ret: RetKind
    #: Extra interpreted cost in ns beyond plain instructions (cost model).
    cost_ns: int = 0


HELPER_SIGS: Dict[int, HelperSig] = {
    sig.helper: sig
    for sig in (
        HelperSig(
            Helper.MAP_LOOKUP_ELEM,
            (ArgKind.CONST_MAP, ArgKind.PTR_TO_MAP_KEY),
            RetKind.MAP_VALUE_OR_NULL,
            cost_ns=40,
        ),
        HelperSig(
            Helper.MAP_UPDATE_ELEM,
            (ArgKind.CONST_MAP, ArgKind.PTR_TO_MAP_KEY, ArgKind.PTR_TO_MAP_VALUE, ArgKind.SCALAR),
            RetKind.SCALAR,
            cost_ns=60,
        ),
        HelperSig(
            Helper.MAP_DELETE_ELEM,
            (ArgKind.CONST_MAP, ArgKind.PTR_TO_MAP_KEY),
            RetKind.SCALAR,
            cost_ns=50,
        ),
        HelperSig(Helper.KTIME_GET_NS, (), RetKind.SCALAR, cost_ns=20),
        HelperSig(
            Helper.TRACE_PRINTK,
            (ArgKind.PTR_TO_MEM, ArgKind.SIZE),
            RetKind.SCALAR,
            cost_ns=1000,
        ),
        HelperSig(Helper.GET_PRANDOM_U32, (), RetKind.SCALAR, cost_ns=15),
        HelperSig(Helper.GET_SMP_PROCESSOR_ID, (), RetKind.SCALAR, cost_ns=10),
        HelperSig(Helper.GET_CURRENT_PID_TGID, (), RetKind.SCALAR, cost_ns=15),
        HelperSig(
            Helper.PERF_EVENT_OUTPUT,
            (ArgKind.PTR_TO_CTX, ArgKind.CONST_MAP, ArgKind.SCALAR, ArgKind.PTR_TO_MEM, ArgKind.SIZE),
            RetKind.SCALAR,
            cost_ns=250,
        ),
        HelperSig(
            Helper.RINGBUF_OUTPUT,
            (ArgKind.CONST_MAP, ArgKind.PTR_TO_MEM, ArgKind.SIZE, ArgKind.SCALAR),
            RetKind.SCALAR,
            cost_ns=200,
        ),
    )
}


class HelperRuntime:
    """Kernel facilities handed to the VM for one program invocation."""

    def __init__(
        self,
        ktime_ns: int = 0,
        pid_tgid: int = 0,
        prandom: Optional[Callable[[], int]] = None,
    ) -> None:
        self.ktime_ns = ktime_ns
        self.pid_tgid = pid_tgid
        self._prandom = prandom or (lambda: 4)  # chosen by fair dice roll
        self.printed: list = []

    def ktime(self) -> int:
        return self.ktime_ns

    def current_pid_tgid(self) -> int:
        return self.pid_tgid

    def smp_processor_id(self) -> int:
        # The simulated kernel runs probes one at a time, all on CPU 0.
        return 0

    def prandom_u32(self) -> int:
        return self._prandom() & 0xFFFFFFFF

    def printk(self, text: str) -> None:
        self.printed.append(text)

    def perf_output(self, perf_map: PerfEventArray, data: bytes) -> int:
        return 0 if perf_map.output(data) else -4  # -EINTR-ish

    def ringbuf_output(self, ring: RingBuf, data: bytes) -> int:
        return 0 if ring.output(data) else -1
