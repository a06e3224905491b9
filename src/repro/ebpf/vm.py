"""The eBPF interpreter.

Faithful 64-bit semantics: registers are unsigned 64-bit; 32-bit ALU ops
zero-extend; signed jump/shift variants use two's complement; division by
zero yields 0 (and modulo leaves dst unchanged), per the BPF ISA spec.

Memory is modelled with fat pointers — ``(region, offset)`` pairs over the
512-byte stack, the read-only context record, and map value storage — with
runtime bounds checks.  A verified program should never fault; the checks
catch verifier gaps and support direct VM use in tests.

The interpreter also carries the probe **cost model**: each executed
instruction costs :data:`DEFAULT_INSN_COST_NS` simulated nanoseconds and
helpers add their signature cost, which the kernel charges to the traced
syscall (EXP-OVH).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .errors import VmFault
from .helpers import HELPER_SIGS, ArgKind, Helper, HelperRuntime, RetKind
from .insn import Insn
from .maps import BpfMap, PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp, MemMode, MemSize, Reg

__all__ = ["Vm", "VmResult", "MemRegion", "Pointer", "MapRef", "STACK_SIZE",
           "DEFAULT_INSN_COST_NS", "MAX_STEPS", "call_helper", "RUNTIME_HELPERS",
           "map_delete_r0", "trace_printk_r0", "perf_output_r0", "ringbuf_output_r0"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

STACK_SIZE = 512
MAX_STEPS = 1 << 20

#: Interpreted-instruction cost (ns) used by the overhead model.
DEFAULT_INSN_COST_NS = 4


def _to_signed(value: int, bits: int) -> int:
    sign_bit = 1 << (bits - 1)
    return (value & ((1 << bits) - 1)) - ((value & sign_bit) << 1)


class MemRegion:
    """A bounds-checked byte region the VM can point into."""

    __slots__ = ("kind", "data", "writable")

    def __init__(self, kind: str, data, writable: bool) -> None:
        self.kind = kind
        self.data = data
        self.writable = writable

    def __len__(self) -> int:
        return len(self.data)


class Pointer:
    """A fat pointer: region + byte offset."""

    __slots__ = ("region", "offset")

    def __init__(self, region: MemRegion, offset: int) -> None:
        self.region = region
        self.offset = offset

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.offset + delta)

    def __repr__(self) -> str:
        return f"<ptr {self.region.kind}+{self.offset}>"


class MapRef:
    """Register value produced by an LD_IMM64 map load."""

    __slots__ = ("bpf_map",)

    def __init__(self, bpf_map) -> None:
        self.bpf_map = bpf_map

    def __repr__(self) -> str:
        return f"<mapref {getattr(self.bpf_map, 'name', '?')}>"


RegValue = Union[int, Pointer, MapRef, None]


@dataclass
class VmResult:
    """Outcome of one program invocation."""

    r0: int
    steps: int
    cost_ns: int


class Vm:
    """Interprets verified eBPF programs."""

    def __init__(self, insn_cost_ns: int = DEFAULT_INSN_COST_NS) -> None:
        self.insn_cost_ns = insn_cost_ns

    # ------------------------------------------------------------------
    def template(self, insns: Sequence[Insn], ctx_size: int, key: Optional[bytes] = None):
        """The compiled tier's translation of ``insns``, which a tracepoint
        runs inline; ``None`` here: the reference interpreter runs every
        program through :meth:`prepare`."""
        return None

    def prepare(self, insns: Sequence[Insn], ctx_size: Optional[int] = None,
                key: Optional[bytes] = None):
        """Bind a per-program executor: ``run(ctx, runtime) -> VmResult``.

        Attach sites that run one program many times on packed records
        (:mod:`repro.ebpf.bcc`'s probe for a program no fused dispatcher
        runs inline) call this once per program, passing the size of the
        records they will run it on and the translation key the loader
        computed.  The compiled tier overrides it to resolve its
        translation for that size up front so each run skips every cache
        probe; the reference interpreter ignores both and simply curries
        :meth:`execute`.
        """
        execute = self.execute

        def run(ctx: bytes, runtime: Optional[HelperRuntime] = None) -> VmResult:
            return execute(insns, ctx, runtime)

        return run

    # ------------------------------------------------------------------
    def execute(
        self,
        insns: Sequence[Insn],
        ctx: bytes,
        runtime: Optional[HelperRuntime] = None,
    ) -> VmResult:
        """Run a program over a context record; returns r0 and cost."""
        runtime = runtime or HelperRuntime()
        stack = MemRegion("stack", bytearray(STACK_SIZE), writable=True)
        ctx_region = MemRegion("ctx", bytes(ctx), writable=False)

        regs: List[RegValue] = [None] * 11
        regs[Reg.R1] = Pointer(ctx_region, 0)
        regs[Reg.R10] = Pointer(stack, STACK_SIZE)

        pc = 0
        steps = 0
        cost = 0
        n = len(insns)
        while True:
            if pc < 0 or pc >= n:
                raise VmFault(f"pc {pc} out of program bounds")
            steps += 1
            if steps > MAX_STEPS:
                raise VmFault("instruction budget exhausted (runaway program)")
            insn = insns[pc]
            klass = insn.opcode & 0x07

            if klass in (InsnClass.ALU, InsnClass.ALU64):
                self._alu(insn, regs, is64=(klass == InsnClass.ALU64))
                pc += 1
            elif klass == InsnClass.LDX:
                regs[insn.dst] = self._load(regs[insn.src], insn.off, insn.mem_size)
                pc += 1
            elif klass == InsnClass.STX:
                src_val = regs[insn.src]
                if not isinstance(src_val, int):
                    raise VmFault(f"store of non-scalar {src_val!r}")
                self._store(regs[insn.dst], insn.off, insn.mem_size, src_val)
                pc += 1
            elif klass == InsnClass.ST:
                self._store(regs[insn.dst], insn.off, insn.mem_size, insn.imm & _MASK64)
                pc += 1
            elif klass == InsnClass.LD:
                if not insn.is_ld_imm64 or pc + 1 >= n:
                    raise VmFault(f"unsupported LD insn {insn!r}")
                if insn.is_map_load:
                    ref = insn.map_ref
                    if not isinstance(ref, (BpfMap, RingBuf, PerfEventArray)):
                        raise VmFault(f"unresolved map reference {ref!r}")
                    regs[insn.dst] = MapRef(ref)
                else:
                    low = insn.imm & _MASK32
                    high = insns[pc + 1].imm & _MASK32
                    regs[insn.dst] = (high << 32) | low
                pc += 2
            elif klass in (InsnClass.JMP, InsnClass.JMP32):
                op = insn.opcode & 0xF0
                if op == JmpOp.CALL:
                    cost += self._call(insn.imm, regs, ctx_region, runtime)
                    pc += 1
                elif op == JmpOp.EXIT:
                    r0 = regs[Reg.R0]
                    if not isinstance(r0, int):
                        raise VmFault(f"exit with non-scalar r0 {r0!r}")
                    return VmResult(r0=r0, steps=steps, cost_ns=cost + steps * self.insn_cost_ns)
                else:
                    taken = self._branch(insn, regs, is32=(klass == InsnClass.JMP32))
                    pc += 1 + (insn.off if taken else 0)
            else:  # pragma: no cover - all classes handled
                raise VmFault(f"unknown instruction class {klass}")

    # ------------------------------------------------------------------
    # ALU
    # ------------------------------------------------------------------
    def _alu(self, insn: Insn, regs: List[RegValue], is64: bool) -> None:
        op = insn.opcode & 0xF0
        dst = regs[insn.dst]
        operand: RegValue
        if insn.uses_reg_source:
            operand = regs[insn.src]
        else:
            # Negative immediates sign-extend (to 64 bits for ALU64), which
            # Python's & on a negative int produces directly.
            operand = insn.imm & (_MASK64 if is64 else _MASK32)

        # Pointer arithmetic: ADD/SUB scalar on a pointer, or MOV of anything.
        if op == AluOp.MOV:
            if isinstance(operand, MapRef) or isinstance(operand, Pointer):
                regs[insn.dst] = operand
            elif operand is None:
                raise VmFault(f"mov from uninitialized r{insn.src}")
            else:
                regs[insn.dst] = operand & (_MASK64 if is64 else _MASK32)
            return
        if isinstance(dst, Pointer):
            if op == AluOp.ADD and isinstance(operand, int):
                regs[insn.dst] = dst.moved(_to_signed(operand, 64))
                return
            if op == AluOp.SUB and isinstance(operand, int):
                regs[insn.dst] = dst.moved(-_to_signed(operand, 64))
                return
            if op == AluOp.SUB and isinstance(operand, Pointer) and operand.region is dst.region:
                regs[insn.dst] = (dst.offset - operand.offset) & _MASK64
                return
            raise VmFault(f"invalid pointer arithmetic {AluOp(op).name} on {dst!r}")
        if dst is None:
            raise VmFault(f"ALU on uninitialized r{insn.dst}")
        if not isinstance(operand, int):
            raise VmFault(f"ALU with non-scalar operand {operand!r}")

        mask = _MASK64 if is64 else _MASK32
        bits = 64 if is64 else 32
        a = dst & mask
        b = operand & mask
        shift_mask = bits - 1

        if op == AluOp.ADD:
            result = a + b
        elif op == AluOp.SUB:
            result = a - b
        elif op == AluOp.MUL:
            result = a * b
        elif op == AluOp.DIV:
            result = a // b if b else 0  # BPF ISA: div by zero -> 0
        elif op == AluOp.MOD:
            result = a % b if b else a  # BPF ISA: mod by zero -> dst
        elif op == AluOp.OR:
            result = a | b
        elif op == AluOp.AND:
            result = a & b
        elif op == AluOp.XOR:
            result = a ^ b
        elif op == AluOp.LSH:
            result = a << (b & shift_mask)
        elif op == AluOp.RSH:
            result = a >> (b & shift_mask)
        elif op == AluOp.ARSH:
            result = _to_signed(a, bits) >> (b & shift_mask)
        elif op == AluOp.NEG:
            result = -a
        else:
            raise VmFault(f"unknown ALU op {op:#x}")
        regs[insn.dst] = result & mask

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------
    def _branch(self, insn: Insn, regs: List[RegValue], is32: bool) -> bool:
        op = insn.opcode & 0xF0
        if op == JmpOp.JA:
            return True
        dst = regs[insn.dst]
        operand: RegValue = regs[insn.src] if insn.uses_reg_source else insn.imm

        # Null checks: pointers compare non-equal to 0 and equal to nothing
        # else; MapRefs behave likewise (verified programs only null-check).
        if isinstance(dst, (Pointer, MapRef)) or isinstance(operand, (Pointer, MapRef)):
            if op == JmpOp.JEQ:
                return self._ptr_eq(dst, operand)
            if op == JmpOp.JNE:
                return not self._ptr_eq(dst, operand)
            raise VmFault(f"invalid pointer comparison {JmpOp(op).name}")
        if dst is None or operand is None:
            raise VmFault("branch on uninitialized register")

        bits = 32 if is32 else 64
        mask = _MASK32 if is32 else _MASK64
        a = dst & mask
        b = operand & mask
        sa, sb = _to_signed(a, bits), _to_signed(b, bits)

        if op == JmpOp.JEQ:
            return a == b
        if op == JmpOp.JNE:
            return a != b
        if op == JmpOp.JGT:
            return a > b
        if op == JmpOp.JGE:
            return a >= b
        if op == JmpOp.JLT:
            return a < b
        if op == JmpOp.JLE:
            return a <= b
        if op == JmpOp.JSET:
            return bool(a & b)
        if op == JmpOp.JSGT:
            return sa > sb
        if op == JmpOp.JSGE:
            return sa >= sb
        if op == JmpOp.JSLT:
            return sa < sb
        if op == JmpOp.JSLE:
            return sa <= sb
        raise VmFault(f"unknown jump op {op:#x}")

    @staticmethod
    def _ptr_eq(a: RegValue, b: RegValue) -> bool:
        if isinstance(a, int) and a == 0 and isinstance(b, (Pointer, MapRef)):
            return False
        if isinstance(b, int) and b == 0 and isinstance(a, (Pointer, MapRef)):
            return False
        if isinstance(a, Pointer) and isinstance(b, Pointer):
            return a.region is b.region and a.offset == b.offset
        raise VmFault(f"invalid pointer comparison between {a!r} and {b!r}")

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _load(self, target: RegValue, off: int, size: MemSize) -> int:
        return mem_load(target, off, size)

    def _store(self, target: RegValue, off: int, size: MemSize, value: int) -> None:
        mem_store(target, off, size, value)

    # ------------------------------------------------------------------
    # helper calls
    # ------------------------------------------------------------------
    def _call(self, helper_id: int, regs: List[RegValue], ctx_region: MemRegion,
              runtime: HelperRuntime) -> int:
        try:
            sig = HELPER_SIGS[helper_id]
        except KeyError:
            raise VmFault(f"unknown helper id {helper_id}") from None
        return call_helper(sig, regs, runtime)


# ----------------------------------------------------------------------
# memory access and operand checks (the reference interpreter's own: the
# code generated by :mod:`repro.ebpf.compiled` resolves its operands at
# translation time and calls none of these)
# ----------------------------------------------------------------------
def _resolve(target: RegValue, off: int, size: int, for_write: bool):
    if not isinstance(target, Pointer):
        raise VmFault(f"memory access through non-pointer {target!r}")
    region = target.region
    start = target.offset + off
    if start < 0 or start + size > len(region):
        raise VmFault(
            f"out-of-bounds {'write' if for_write else 'read'} at "
            f"{region.kind}+{start} size {size}"
        )
    if for_write and not region.writable:
        raise VmFault(f"write to read-only region {region.kind}")
    return region, start


def mem_load(target: RegValue, off: int, size: MemSize) -> int:
    region, start = _resolve(target, off, size.nbytes, for_write=False)
    return int.from_bytes(region.data[start : start + size.nbytes], "little")


def mem_store(target: RegValue, off: int, size: MemSize, value: int) -> None:
    region, start = _resolve(target, off, size.nbytes, for_write=True)
    region.data[start : start + size.nbytes] = (value & ((1 << (8 * size.nbytes)) - 1)).to_bytes(
        size.nbytes, "little"
    )


def read_mem(pointer: RegValue, length: int) -> bytes:
    region, start = _resolve(pointer, 0, length, for_write=False)
    return bytes(region.data[start : start + length])


def _arg_map(value: RegValue):
    if not isinstance(value, MapRef):
        raise VmFault(f"helper expected a map, got {value!r}")
    return value.bpf_map


def _arg_scalar(value: RegValue) -> int:
    if not isinstance(value, int):
        raise VmFault(f"helper expected a scalar, got {value!r}")
    return value


# ----------------------------------------------------------------------
# helper semantics (shared by the reference interpreter and the code
# generated by :mod:`repro.ebpf.compiled`)
# ----------------------------------------------------------------------
#: Helpers that read only the runtime: r0 is ``runtime.<method>()``, masked
#: with ``mask`` when one is given.
RUNTIME_HELPERS = {
    Helper.KTIME_GET_NS: ("ktime", _MASK64),
    Helper.GET_CURRENT_PID_TGID: ("current_pid_tgid", _MASK64),
    Helper.GET_SMP_PROCESSOR_ID: ("smp_processor_id", _MASK64),
    Helper.GET_PRANDOM_U32: ("prandom_u32", None),
}

_ENOENT = -2 & _MASK64


def map_delete_r0(bpf_map, key: bytes) -> int:
    """``bpf_map_delete_elem`` on a resolved map and key; returns r0."""
    return 0 if bpf_map.delete(key) else _ENOENT


def trace_printk_r0(runtime: HelperRuntime, data: bytes) -> int:
    """``bpf_trace_printk`` on the format bytes; returns r0."""
    text = data.decode("latin-1").rstrip("\x00")
    runtime.printk(text)
    return len(text)


def perf_output_r0(runtime: HelperRuntime, perf_map: PerfEventArray, data: bytes) -> int:
    """``bpf_perf_event_output`` of ``data`` to ``perf_map``; returns r0."""
    return runtime.perf_output(perf_map, data) & _MASK64


def ringbuf_output_r0(runtime: HelperRuntime, ring: RingBuf, data: bytes) -> int:
    """``bpf_ringbuf_output`` of ``data`` to ``ring``; returns r0."""
    return runtime.ringbuf_output(ring, data) & _MASK64


def call_helper(sig, regs: List[RegValue], runtime: HelperRuntime) -> int:
    """Run one helper call against the register file; returns its cost_ns.

    Register operands are resolved here; what a helper does with them is
    the map and runtime methods plus the ``*_r0`` functions above, which
    the compiled tier's generated code calls with operands it resolved at
    translation time.  Helper costs come from the signature in both
    tiers, which keeps EXP-OVH bit-for-bit stable across them.
    """
    args = [regs[r] for r in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)]
    r0: RegValue
    helper = sig.helper

    if helper in RUNTIME_HELPERS:
        method, mask = RUNTIME_HELPERS[helper]
        r0 = getattr(runtime, method)()
        if mask is not None:
            r0 &= mask
    elif helper == Helper.MAP_LOOKUP_ELEM:
        bpf_map = _arg_map(args[0])
        entry = bpf_map.lookup(read_mem(args[1], bpf_map.key_size))
        if entry is None:
            r0 = 0
        else:
            r0 = Pointer(MemRegion("map_value", entry, writable=True), 0)
    elif helper == Helper.MAP_UPDATE_ELEM:
        bpf_map = _arg_map(args[0])
        key = read_mem(args[1], bpf_map.key_size)
        value = read_mem(args[2], bpf_map.value_size)
        bpf_map.update(key, value)
        r0 = 0
    elif helper == Helper.MAP_DELETE_ELEM:
        bpf_map = _arg_map(args[0])
        r0 = map_delete_r0(bpf_map, read_mem(args[1], bpf_map.key_size))
    elif helper == Helper.TRACE_PRINTK:
        length = _arg_scalar(args[1])
        r0 = trace_printk_r0(runtime, read_mem(args[0], length))
    elif helper == Helper.PERF_EVENT_OUTPUT:
        perf_map = _arg_map(args[1])
        if not isinstance(perf_map, PerfEventArray):
            raise VmFault("perf_event_output needs a PERF_EVENT_ARRAY map")
        length = _arg_scalar(args[4])
        r0 = perf_output_r0(runtime, perf_map, read_mem(args[3], length))
    elif helper == Helper.RINGBUF_OUTPUT:
        ring = _arg_map(args[0])
        if not isinstance(ring, RingBuf):
            raise VmFault("ringbuf_output needs a RINGBUF map")
        length = _arg_scalar(args[2])
        r0 = ringbuf_output_r0(runtime, ring, read_mem(args[1], length))
    else:  # pragma: no cover - signature table covers all
        raise VmFault(f"unimplemented helper {sig.helper!r}")

    regs[Reg.R0] = r0
    for scratch in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5):
        regs[scratch] = None
    return sig.cost_ns
