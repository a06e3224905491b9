"""The eBPF verifier: static safety analysis before a program may load.

This reproduces the checks that shape how the paper's collectors must be
written (§III-A: "fixed stack size, reduced instruction set, prohibition of
floating-point arithmetic and loops"):

* bounded program size; all jump targets inside the program;
* **no back-edges** — loops are rejected outright (pre-5.3 semantics, which
  the paper's BCC-era programs target);
* registers must be initialized before use; ``r10`` is a read-only frame
  pointer;
* stack access stays within the 512-byte frame and reads require previously
  written bytes;
* context loads stay inside the tracepoint record; context is read-only;
* a map lookup result **must be null-checked** before dereference;
* helper calls are checked against their signatures (map args, key/value
  pointers of the right size, constant buffer lengths);
* ``exit`` requires an initialized scalar ``r0``.

There is — structurally — no floating point: the ISA has no float ops, so
all collector arithmetic (including Eq. 2's variance) is integer-only.

The analysis walks every control-flow path with abstract register states
(no loops → termination), deduplicating visited states, and raises
:class:`~repro.ebpf.errors.VerifierError` with a kernel-style message on
the first violation.  :func:`path_states` runs the same walk and returns
every register state it proved, per pc: the facts the compiled VM tier
generates its typed code from.

A map operand is tracked by its **load site** (:class:`MapSite`: the pc of
the ``ld_imm64`` that produced it), never by map identity, so the walk is
a function of the wire encoding, the ctx size and each site's map shape
alone, and nothing proved here assumes two sites alias one map.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

from .context import ProgType
from .errors import VerifierError
from .helpers import HELPER_SIGS, ArgKind, RetKind
from .insn import Insn
from .maps import BpfMap, PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp, Reg

__all__ = ["verify", "path_states", "MapSite", "MAX_INSNS", "MAP_CLASSES"]

MAX_INSNS = 4096
MAX_STATES = 200_000
STACK_SIZE = 512

#: What a map-load site must hold once the loader resolved it; any other
#: reference is rejected as unresolved.
MAP_CLASSES = (BpfMap, RingBuf, PerfEventArray)

# Abstract values are tuples; first element is the kind tag.  A scalar's
# constant, when known, is the exact register value in [0, 2**64).
UNINIT = ("uninit",)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _signed64(value: int) -> int:
    return value - ((value & (1 << 63)) << 1)


def _scalar(const: Optional[int] = None) -> tuple:
    return ("scalar", const)


def _is_scalar(value: tuple) -> bool:
    return value[0] == "scalar"


def _is_pointer(value: tuple) -> bool:
    return value[0] in ("ptr_stack", "ptr_ctx", "ptr_map_value")


class MapSite(NamedTuple):
    """A map operand: the ``ld_imm64`` at ``pc`` that loaded ``map``.

    Abstract values carry it as ``("map_ref", site)``,
    ``("map_or_null", site)`` and ``("ptr_map_value", site, offset)``.
    """

    pc: int
    map: object


class _State:
    """Abstract machine state along one path."""

    __slots__ = ("regs", "stack_init")

    def __init__(self, regs: Tuple[tuple, ...], stack_init: int) -> None:
        self.regs = regs
        self.stack_init = stack_init  # 512-bit bitmask of initialized bytes

    def key(self, pc: int) -> tuple:
        return (pc, self.regs, self.stack_init)

    def with_reg(self, index: int, value: tuple) -> "_State":
        regs = list(self.regs)
        regs[index] = value
        return _State(tuple(regs), self.stack_init)

    def with_stack(self, stack_init: int) -> "_State":
        return _State(self.regs, stack_init)


def verify(insns: List[Insn], prog_type: ProgType) -> None:
    """Verify a program; raises :class:`VerifierError` when rejected."""
    _walk(insns, prog_type.ctx_size, None)


def path_states(insns: List[Insn], ctx_size: int) -> List[Set[tuple]]:
    """Verify ``insns`` against a ``ctx_size``-byte context and return,
    per pc, the set of abstract register files (11-tuples of abstract
    values) the walk reached it with.  The second slot of an ``ld_imm64``
    pair gets an empty set.  Raises :class:`VerifierError` exactly when
    :func:`verify` would for a program type of that ctx size.
    """
    states: List[Set[tuple]] = [set() for _ in insns]
    _walk(insns, ctx_size, states)
    return states


def _walk(insns: List[Insn], ctx_size: int, record: Optional[List[Set[tuple]]]) -> None:
    n = len(insns)
    if n == 0:
        raise VerifierError("empty program")
    if n > MAX_INSNS:
        raise VerifierError(f"program too large: {n} > {MAX_INSNS} insns")

    _check_structure(insns)

    initial_regs = [UNINIT] * 11
    initial_regs[Reg.R1] = ("ptr_ctx", 0)
    initial_regs[Reg.R10] = ("ptr_stack", STACK_SIZE)
    worklist: List[Tuple[int, _State]] = [(0, _State(tuple(initial_regs), 0))]
    visited: Set[tuple] = set()
    reached: Set[int] = set()
    processed = 0

    while worklist:
        pc, state = worklist.pop()
        key = state.key(pc)
        if key in visited:
            continue
        visited.add(key)
        processed += 1
        if processed > MAX_STATES:
            raise VerifierError("verification state budget exhausted")
        if pc >= n:
            raise VerifierError("control flow falls off the end of the program", pc)
        reached.add(pc)
        if record is not None:
            record[pc].add(state.regs)

        insn = insns[pc]
        klass = insn.opcode & 0x07

        if klass in (InsnClass.ALU, InsnClass.ALU64):
            worklist.append((pc + 1, _alu(insn, state, pc)))
        elif klass == InsnClass.LDX:
            worklist.append((pc + 1, _load(insn, state, pc, ctx_size)))
        elif klass in (InsnClass.ST, InsnClass.STX):
            worklist.append((pc + 1, _store(insn, state, pc, klass)))
        elif klass == InsnClass.LD:
            worklist.append(_ld_imm64(insn, insns, state, pc))
        elif klass in (InsnClass.JMP, InsnClass.JMP32):
            op = insn.opcode & 0xF0
            if op == JmpOp.EXIT:
                r0 = state.regs[Reg.R0]
                if not _is_scalar(r0):
                    raise VerifierError(f"R0 !read_ok at exit (r0 is {r0[0]})", pc)
                continue
            if op == JmpOp.CALL:
                worklist.append((pc + 1, _call(insn, state, pc)))
                continue
            for edge in _branch(insn, state, pc, n):
                worklist.append(edge)
        else:  # pragma: no cover — classes are exhaustive
            raise VerifierError(f"unknown instruction class {klass}", pc)

    # The kernel rejects dead code ("unreachable insn"); LD_IMM64 second
    # slots are data, reached implicitly with their first slot.
    index = 0
    while index < n:
        if index not in reached:
            raise VerifierError("unreachable insn", index)
        index += 2 if insns[index].is_ld_imm64 else 1


# ----------------------------------------------------------------------
# structural checks
# ----------------------------------------------------------------------
def _check_structure(insns: List[Insn]) -> None:
    n = len(insns)
    index = 0
    while index < n:
        insn = insns[index]
        if insn.is_ld_imm64:
            if index + 1 >= n:
                raise VerifierError("LD_IMM64 missing second slot", index)
            index += 2
            continue
        if insn.is_jump:
            op = insn.opcode & 0xF0
            if op not in (JmpOp.CALL, JmpOp.EXIT):
                target = index + 1 + insn.off
                if not 0 <= target < n:
                    raise VerifierError(f"jump out of range to {target}", index)
                if target <= index:
                    raise VerifierError(
                        f"back-edge from insn {index} to insn {target} (loops are not allowed)",
                        index,
                    )
        index += 1


# ----------------------------------------------------------------------
# transfer functions
# ----------------------------------------------------------------------
def _alu(insn: Insn, state: _State, pc: int) -> _State:
    if insn.dst == Reg.R10:
        raise VerifierError("frame pointer R10 is read-only", pc)
    op = insn.opcode & 0xF0
    is64 = (insn.opcode & 0x07) == InsnClass.ALU64
    mask = _MASK64 if is64 else _MASK32
    dst = state.regs[insn.dst]
    if insn.uses_reg_source:
        operand = state.regs[insn.src]
        if operand == UNINIT:
            raise VerifierError(f"R{insn.src} !read_ok", pc)
        operand_const = operand[1] if _is_scalar(operand) else None
    else:
        operand_const = insn.imm & mask
        operand = _scalar(operand_const)

    if op == AluOp.MOV:
        if _is_scalar(operand) and operand_const is not None:
            operand = _scalar(operand_const & mask)
        return state.with_reg(insn.dst, operand)

    if dst == UNINIT:
        raise VerifierError(f"R{insn.dst} !read_ok", pc)

    if _is_pointer(dst):
        if not is64:
            raise VerifierError("32-bit arithmetic on pointer", pc)
        if op in (AluOp.ADD, AluOp.SUB) and _is_scalar(operand):
            if operand_const is None:
                raise VerifierError("pointer arithmetic with unbounded scalar", pc)
            delta = _signed64(operand_const)
            if op == AluOp.SUB:
                delta = -delta
            kind, *rest = dst
            if kind == "ptr_map_value":
                return state.with_reg(insn.dst, (kind, rest[0], rest[1] + delta))
            return state.with_reg(insn.dst, (kind, rest[0] + delta))
        if op == AluOp.SUB and _is_pointer(operand) and operand[0] == dst[0]:
            return state.with_reg(insn.dst, _scalar(None))
        raise VerifierError(f"invalid operation {AluOp(op).name} on pointer", pc)

    if not _is_scalar(dst):
        raise VerifierError(f"ALU on non-scalar R{insn.dst} ({dst[0]})", pc)
    if _is_pointer(operand):
        raise VerifierError("scalar ALU with pointer operand", pc)
    # Constant folding is only needed for buffer-length args and pointer
    # offsets; keep ADD/SUB/MUL, wrapped to the operation width exactly
    # as the VM computes them.
    const: Optional[int] = None
    if dst[1] is not None and operand_const is not None:
        a, b = dst[1] & mask, operand_const & mask
        if op == AluOp.ADD:
            const = (a + b) & mask
        elif op == AluOp.SUB:
            const = (a - b) & mask
        elif op == AluOp.MUL:
            const = (a * b) & mask
    return state.with_reg(insn.dst, _scalar(const))


def _stack_bounds(offset: int, size: int, pc: int, access: str) -> range:
    start = offset
    if start < 0 or start + size > STACK_SIZE:
        raise VerifierError(
            f"invalid stack {access} off={start - STACK_SIZE} size={size}", pc
        )
    return range(start, start + size)


def _load(insn: Insn, state: _State, pc: int, ctx_size: int) -> _State:
    if insn.dst == Reg.R10:
        raise VerifierError("frame pointer R10 is read-only", pc)
    src = state.regs[insn.src]
    size = insn.mem_size.nbytes
    kind = src[0]
    if kind == "ptr_stack":
        span = _stack_bounds(src[1] + insn.off, size, pc, "read")
        for byte in span:
            if not (state.stack_init >> byte) & 1:
                raise VerifierError(
                    f"invalid read from uninitialized stack byte {byte - STACK_SIZE}", pc
                )
    elif kind == "ptr_ctx":
        start = src[1] + insn.off
        if start < 0 or start + size > ctx_size:
            raise VerifierError(
                f"invalid ctx read off={start} size={size} (ctx is {ctx_size}B)", pc
            )
    elif kind == "ptr_map_value":
        start = src[2] + insn.off
        if start < 0 or start + size > src[1].map.value_size:
            raise VerifierError(f"map value read out of bounds off={start} size={size}", pc)
    elif kind == "map_or_null":
        raise VerifierError("R%d invalid mem access 'map_value_or_null'" % insn.src, pc)
    else:
        raise VerifierError(f"memory load through non-pointer R{insn.src} ({kind})", pc)
    return state.with_reg(insn.dst, _scalar(None))


def _store(insn: Insn, state: _State, pc: int, klass: int) -> _State:
    dst = state.regs[insn.dst]
    size = insn.mem_size.nbytes
    if klass == InsnClass.STX:
        src = state.regs[insn.src]
        if src == UNINIT:
            raise VerifierError(f"R{insn.src} !read_ok", pc)
        if not _is_scalar(src):
            raise VerifierError("pointer spill to memory is not supported here", pc)
    kind = dst[0]
    if kind == "ptr_stack":
        span = _stack_bounds(dst[1] + insn.off, size, pc, "write")
        stack_init = state.stack_init
        for byte in span:
            stack_init |= 1 << byte
        return state.with_stack(stack_init)
    if kind == "ptr_map_value":
        start = dst[2] + insn.off
        if start < 0 or start + size > dst[1].map.value_size:
            raise VerifierError(f"map value write out of bounds off={start} size={size}", pc)
        return state
    if kind == "ptr_ctx":
        raise VerifierError("context is read-only", pc)
    if kind == "map_or_null":
        raise VerifierError(f"R{insn.dst} invalid mem access 'map_value_or_null'", pc)
    raise VerifierError(f"memory store through non-pointer R{insn.dst} ({kind})", pc)


def _ld_imm64(insn: Insn, insns: List[Insn], state: _State, pc: int) -> Tuple[int, _State]:
    if not insn.is_ld_imm64:
        raise VerifierError("unsupported LD-class instruction", pc)
    if insn.dst == Reg.R10:
        raise VerifierError("frame pointer R10 is read-only", pc)
    if insn.is_map_load:
        ref = insn.map_ref
        if not isinstance(ref, MAP_CLASSES):
            raise VerifierError(f"unresolved map reference {ref!r}", pc)
        return (pc + 2, state.with_reg(insn.dst, ("map_ref", MapSite(pc, ref))))
    low = insn.imm & 0xFFFFFFFF
    high = insns[pc + 1].imm & 0xFFFFFFFF
    return (pc + 2, state.with_reg(insn.dst, _scalar((high << 32) | low)))


def _branch(insn: Insn, state: _State, pc: int, n: int) -> List[Tuple[int, _State]]:
    op = insn.opcode & 0xF0
    target = pc + 1 + insn.off
    if op == JmpOp.JA:
        return [(target, state)]

    dst = state.regs[insn.dst]
    if dst == UNINIT:
        raise VerifierError(f"R{insn.dst} !read_ok", pc)
    if insn.uses_reg_source:
        operand = state.regs[insn.src]
        if operand == UNINIT:
            raise VerifierError(f"R{insn.src} !read_ok", pc)
    else:
        operand = _scalar(insn.imm)

    # NULL-check refinement for map lookup results.
    if dst[0] == "map_or_null" and _is_scalar(operand) and operand[1] == 0:
        null_state = state.with_reg(insn.dst, _scalar(0))
        ptr_state = state.with_reg(insn.dst, ("ptr_map_value", dst[1], 0))
        if op == JmpOp.JEQ:
            return [(target, null_state), (pc + 1, ptr_state)]
        if op == JmpOp.JNE:
            return [(target, ptr_state), (pc + 1, null_state)]
        raise VerifierError("map_value_or_null may only be compared ==/!= 0", pc)

    if dst[0] == "map_or_null":
        raise VerifierError("map_value_or_null may only be compared ==/!= 0", pc)
    if not _is_scalar(dst):
        # Pointers may only be null-checked: ==/!= against constant 0
        # (anything else would leak or misuse a kernel address).
        if op not in (JmpOp.JEQ, JmpOp.JNE):
            raise VerifierError("pointer may only be compared with ==/!=", pc)
        if not (_is_scalar(operand) and operand[1] == 0):
            raise VerifierError("pointer comparison only allowed against 0", pc)
    if _is_pointer(operand) or operand[0] in ("map_or_null", "map_ref"):
        raise VerifierError("comparison with pointer operand", pc)

    return [(target, state), (pc + 1, state)]


def _call(insn: Insn, state: _State, pc: int) -> _State:
    helper_id = insn.imm
    sig = HELPER_SIGS.get(helper_id)
    if sig is None:
        raise VerifierError(f"invalid func id {helper_id}", pc)

    arg_regs = (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)
    const_site: Optional[MapSite] = None
    pending_mem: Optional[tuple] = None
    for position, kind in enumerate(sig.args):
        value = state.regs[arg_regs[position]]
        reg_name = f"R{arg_regs[position]}"
        if value == UNINIT:
            raise VerifierError(f"{reg_name} !read_ok in call to {sig.helper.name}", pc)
        if kind == ArgKind.SCALAR:
            if not _is_scalar(value):
                raise VerifierError(f"{reg_name} must be a scalar", pc)
        elif kind == ArgKind.CONST_MAP:
            if value[0] != "map_ref":
                raise VerifierError(f"{reg_name} must be a map", pc)
            const_site = value[1]
        elif kind in (ArgKind.PTR_TO_MAP_KEY, ArgKind.PTR_TO_MAP_VALUE):
            if const_site is None:
                raise VerifierError("map argument must precede key/value pointer", pc)
            attr = "key_size" if kind == ArgKind.PTR_TO_MAP_KEY else "value_size"
            needed = getattr(const_site.map, attr, None)
            if needed is None:
                raise VerifierError(
                    f"cannot pass map {type(const_site.map).__name__} into func "
                    f"{sig.helper.name}", pc
                )
            _check_mem_arg(state, value, needed, reg_name, pc)
        elif kind == ArgKind.PTR_TO_CTX:
            if value[0] != "ptr_ctx":
                raise VerifierError(f"{reg_name} must point to ctx", pc)
        elif kind == ArgKind.PTR_TO_MEM:
            pending_mem = (value, reg_name)
        elif kind == ArgKind.SIZE:
            if not _is_scalar(value) or value[1] is None:
                raise VerifierError(f"{reg_name} must be a known-constant size", pc)
            if pending_mem is None:
                raise VerifierError("SIZE argument without a preceding memory pointer", pc)
            mem_value, mem_reg = pending_mem
            _check_mem_arg(state, mem_value, value[1], mem_reg, pc)
            pending_mem = None

    new_state = state
    for reg in arg_regs:
        new_state = new_state.with_reg(reg, UNINIT)
    if sig.ret == RetKind.MAP_VALUE_OR_NULL:
        new_state = new_state.with_reg(Reg.R0, ("map_or_null", const_site))
    else:
        new_state = new_state.with_reg(Reg.R0, _scalar(None))
    return new_state


def _check_mem_arg(state: _State, value: tuple, size: int, reg_name: str, pc: int) -> None:
    if size <= 0:
        raise VerifierError(f"{reg_name}: zero-size memory argument", pc)
    if value[0] == "ptr_stack":
        span = _stack_bounds(value[1], size, pc, "helper access")
        for byte in span:
            if not (state.stack_init >> byte) & 1:
                raise VerifierError(
                    f"{reg_name}: helper reads uninitialized stack byte "
                    f"{byte - STACK_SIZE}",
                    pc,
                )
    elif value[0] == "ptr_map_value":
        start = value[2]
        if start < 0 or start + size > value[1].map.value_size:
            raise VerifierError(f"{reg_name}: map value access out of bounds", pc)
    elif value[0] == "ptr_ctx":
        raise VerifierError(f"{reg_name}: ctx cannot be passed as raw memory", pc)
    else:
        raise VerifierError(f"{reg_name} must point to initialized memory", pc)
