"""The compiled eBPF tier: verified programs compiled to typed Python.

The two VM tiers share one bit-for-bit semantics contract:

* :class:`~repro.ebpf.vm.Vm` — the reference interpreter, re-deriving
  everything per step;
* :class:`CompiledVm` (this module) — each program translated **once**
  into a single Python function and compiled with ``compile()``/``exec``,
  so the steady state pays no per-instruction Python call at all.

The generator works from the verifier's proof, the way a kernel JIT
emits unchecked code for a program the verifier accepted.
:func:`~repro.ebpf.verifier.path_states` walks the program against the
ctx size it will run with and returns every abstract register state per
pc.  For each register an instruction reads, every path must agree on
its type (scalar, ctx/stack pointer at a fixed offset, map value of a
given load site at a fixed offset, …); the generator then emits:

* scalars as plain ``int`` locals ``r0``..``r9``, with no type guards;
* ctx and stack accesses as constant-offset ``struct`` reads and writes
  of the ``bytes`` record and of the bound program's one stack
  ``bytearray`` (one stack per binding is safe: the verifier proves every
  stack byte a run reads was written earlier in that run);
* map values as the map's own slot ``bytearray`` — a lookup yields it or
  ``None``, and the null check is the only runtime test;
* register copies, pointer arithmetic and null checks on proven pointers
  as nothing at all: they are resolved at translation time;
* helpers as direct calls on the load site's map and the runtime, through
  the same map methods, ``HelperRuntime`` methods and ``*_r0`` functions
  of :mod:`repro.ebpf.vm` that the reference ``call_helper`` uses.

Control flow is linearized into basic blocks (verified programs only
jump forward): block ``k`` runs under ``if _skip <= k:`` where an earlier
jump may skip it, a taken jump sets ``_skip``, and a jump to a short
exit tail returns in place.  Steps are counted per block (a fused
``ld_imm64`` counts one step) and the cost is ``helper_cost + steps *
insn_cost_ns``, exactly as the interpreter counts.

Two kinds of program run on the reference interpreter instead, which is
also the fault-message oracle: programs the verifier rejects for the ctx
size they run with, and programs whose path states disagree on a
register an instruction reads — plus the few verified shapes the typed
code does not model (see :class:`_Codegen`).  :class:`CompiledVm` is therefore total
over the reference's input space, and the translation cache counts every
such hand-over as ``declined``.

A translation is a function of the instruction wire encoding, the ctx
size and each map-load site's ``(map class, key_size, value_size)``
(:func:`key_material`) — never of map identity, so the cached template
never assumes two sites load one map.  The process-wide
:class:`~repro.ebpf.translation.TranslationCache` keeps only that
map-free template; every attach site binds it to its own live maps and a
fresh stack with :meth:`CompiledProgram.bind`.

The same walk also renders the program as an :class:`InlineBody`: the
typed code a tracepoint's fused dispatcher (:func:`fused_source`) runs in
place on the firing's arguments ``(pid_tgid, nr, arg, ktime_ns)``,
reading ctx fields, ``ktime`` and ``pid_tgid`` from them instead of from
a packed record and a helper runtime.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .context import SYS_ENTER_CTX_SIZE, field_load
from .errors import VerifierError, VmFault
from .helpers import HELPER_SIGS, Helper, HelperRuntime
from .insn import Insn, encode
from .maps import PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp
from .verifier import path_states
from .vm import (
    DEFAULT_INSN_COST_NS,
    RUNTIME_HELPERS,
    STACK_SIZE,
    Vm,
    VmResult,
    _to_signed,
    map_delete_r0,
    perf_output_r0,
    ringbuf_output_r0,
    trace_printk_r0,
)

__all__ = [
    "CompiledProgram",
    "CompiledVm",
    "InlineBody",
    "VM_TIERS",
    "DEFAULT_VM_TIER",
    "compile_insns",
    "decline_reason",
    "fused_source",
    "key_material",
    "rebind_namespace",
    "make_vm",
    "translate",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_SIGN32 = 1 << 31
_SIGN64 = 1 << 63

#: The VM tiers, lowest to highest.  ``make_vm`` accepts either.
VM_TIERS = ("reference", "compiled")

#: Tier picked by attach sites when the caller does not choose one.
DEFAULT_VM_TIER = "compiled"

#: Longest exit tail (in executed instructions) a jump returns through in
#: place instead of skipping forward to it.
_TAIL_MAX = 4


# ----------------------------------------------------------------------
# translation keys
# ----------------------------------------------------------------------

def _site_shape(ref) -> str:
    cls = type(ref)
    return (f"{cls.__module__}.{cls.__qualname__}:"
            f"{getattr(ref, 'key_size', None)}:{getattr(ref, 'value_size', None)}")


def key_material(insns: Sequence[Insn], ctx_size: int) -> bytes:
    """Everything a translation is a function of, as bytes: the wire
    encoding, the ctx size, and each map-load site's map class and
    key/value sizes.  The translation cache keys on it."""
    sites = "|".join(_site_shape(insn.map_ref) for insn in insns if insn.is_map_load)
    return b"%s|%d|%s" % (encode(insns), ctx_size, sites.encode())


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

class _Decline(Exception):
    """Internal: the program runs on the reference :class:`Vm`."""


#: The type of every scalar: constants do not matter to the generator.
_SCALAR = ("scalar",)


def _type_of(value: tuple) -> tuple:
    """Project a verifier abstract value onto what the generated code
    depends on: the map site's pc instead of the map object."""
    tag = value[0]
    if tag == "scalar":
        return _SCALAR
    if tag == "ptr_map_value":
        return (tag, value[1].pc, value[2])
    if tag in ("map_ref", "map_or_null"):
        return (tag, value[1].pc)
    return value  # ("ptr_ctx", off), ("ptr_stack", off), ("uninit",)


def _reads(insn: Insn) -> tuple:
    """Registers ``insn`` reads."""
    klass = insn.opcode & 0x07
    op = insn.opcode & 0xF0
    src = (insn.src,) if insn.uses_reg_source else ()
    if klass in (InsnClass.ALU, InsnClass.ALU64):
        return src if op == AluOp.MOV else (insn.dst,) + src
    if klass == InsnClass.LDX:
        return (insn.src,)
    if klass == InsnClass.STX:
        return (insn.dst, insn.src)
    if klass == InsnClass.ST:
        return (insn.dst,)
    if klass in (InsnClass.JMP, InsnClass.JMP32):
        if op == JmpOp.CALL:
            sig = HELPER_SIGS.get(insn.imm)
            return tuple(range(1, 1 + len(sig.args))) if sig is not None else ()
        if op == JmpOp.EXIT:
            return (0,)
        if op == JmpOp.JA:
            return ()
        return (insn.dst,) + src
    return ()


def _facts(insns: Sequence[Insn], ctx_size: int) -> List[Optional[Dict[int, tuple]]]:
    """Per pc, the agreed type of each register the instruction reads
    (``None`` for the second slot of an ``ld_imm64``)."""
    try:
        states = path_states(insns, ctx_size)
    except VerifierError as error:
        raise _Decline(f"verifier: {error}") from None
    facts: List[Optional[Dict[int, tuple]]] = []
    for pc, insn in enumerate(insns):
        if not states[pc]:
            facts.append(None)
            continue
        agreed = {}
        for reg in _reads(insn):
            types = {_type_of(regs[reg]) for regs in states[pc]}
            if len(types) != 1:
                raise _Decline(f"paths disagree on r{reg} at pc {pc}")
            agreed[reg] = types.pop()
        facts.append(agreed)
    return facts


def _leaders(insns: Sequence[Insn]) -> List[int]:
    """Basic-block leaders of a verified (forward-jumping) program."""
    n = len(insns)
    leaders = {0}
    pc = 0
    while pc < n:
        insn = insns[pc]
        klass = insn.opcode & 0x07
        if insn.is_ld_imm64:
            pc += 2
            continue
        if klass in (InsnClass.JMP, InsnClass.JMP32):
            op = insn.opcode & 0xF0
            if op == JmpOp.EXIT:
                leaders.add(pc + 1)
            elif op != JmpOp.CALL:
                leaders.add(pc + 1 + insn.off)
                leaders.add(pc + 1)
        pc += 1
    leaders.discard(n)
    return sorted(leaders)


def _is_ja(insn: Insn) -> bool:
    return (insn.opcode & 0x07) in (InsnClass.JMP, InsnClass.JMP32) \
        and (insn.opcode & 0xF0) == JmpOp.JA


def _sx_expr(var: str, bits: int) -> str:
    sign = _SIGN64 if bits == 64 else _SIGN32
    return f"({var} - (({var} & {sign}) << 1))"


_ALU_OPS = frozenset(
    (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.DIV, AluOp.MOD, AluOp.OR,
     AluOp.AND, AluOp.XOR, AluOp.LSH, AluOp.RSH, AluOp.ARSH, AluOp.NEG)
)
_JMP_RELATIONS = {
    JmpOp.JEQ: "==", JmpOp.JNE: "!=", JmpOp.JGT: ">", JmpOp.JGE: ">=",
    JmpOp.JLT: "<", JmpOp.JLE: "<=",
}
_SIGNED_RELATIONS = {
    JmpOp.JSGT: ">", JmpOp.JSGE: ">=", JmpOp.JSLT: "<", JmpOp.JSLE: "<=",
}

#: Pointer types into one fixed region (a map value pointer's region is
#: the lookup that made it).
_STATIC_REGIONS = frozenset(("ptr_ctx", "ptr_stack"))

#: Placeholder suffix of an inline body's per-binding names (maps, stack,
#: runtime); a fused dispatcher replaces it with its slot's suffix.
_SLOT = "@"

#: Helpers whose value an inline body reads from the firing's arguments.
_FIRING_HELPERS = {Helper.KTIME_GET_NS: "ktime_ns", Helper.GET_CURRENT_PID_TGID: "pid_tgid"}

#: Little-endian unsigned struct per access width; generated code reads
#: with ``_ld<n>(buf, offset)[0]`` and writes with ``_st<n>(buf, offset,
#: value)`` (single bytes are indexed directly).
_WIDTH_STRUCTS = {8: struct.Struct("<Q"), 4: struct.Struct("<I"), 2: struct.Struct("<H")}


class _Codegen:
    """Typed code for one verified program at one ctx size.

    Besides the two program kinds the module docstring names, the
    generator declines (raises :class:`_Decline`) the few verified shapes
    its typed code does not model: subtraction of two map-value pointers
    (region identity is per lookup), scalar ALU with a map or
    lookup-result operand, an unknown ALU or jump opcode, and output
    helpers handed a map of the wrong class.  The reference, which then
    runs them, faults on each (on a lookup-result operand, unless the
    lookup missed).
    """

    def __init__(self, insns: Sequence[Insn], ctx_size: int, name: str) -> None:
        self.insns = insns
        self.n = len(insns)
        self.name = name
        self.ctx_size = ctx_size
        self.facts = _facts(insns, ctx_size)
        self.maps = {pc: insn.map_ref for pc, insn in enumerate(insns) if insn.is_map_load}
        self.leaders = _leaders(insns)
        self.block_of = {pc: index for index, pc in enumerate(self.leaders)}
        self.nblocks = len(self.leaders)
        bounds = self.leaders + [self.n]
        self.blocks = [
            [pc for pc in range(bounds[k], bounds[k + 1]) if self.facts[pc] is not None]
            for k in range(self.nblocks)
        ]
        self._reset(inline=False)

    def _reset(self, inline: bool) -> None:
        """Start a fresh emission: a standalone function, or an inline body
        (see :meth:`inline_body`)."""
        self.inline = inline
        #: Suffix of the per-binding names: maps, stack and runtime.
        self.local = _SLOT if inline else ""
        self.names = set()
        self.lines: List[str] = []
        self.indent = 1
        #: Highest block a taken jump emitted so far may skip forward to.
        self.pending = 0
        #: Whether some load straddles two record fields (inline only).
        self.reads_record = False

    # -- output -----------------------------------------------------------
    def put(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _use(self, name: str) -> str:
        self.names.add(name)
        return name

    def _map(self, site_pc: int) -> str:
        return self._use(f"M{site_pc}{self.local}")

    def _runtime(self) -> str:
        # A standalone function takes the runtime as a parameter.
        return self._use(f"runtime{self.local}") if self.inline else "runtime"

    def _base(self, ptype: tuple, reg: int) -> str:
        """Expression of the memory a pointer type addresses."""
        if ptype[0] == "ptr_map_value":
            return f"r{reg}"
        if ptype[0] == "ptr_stack":
            return self._use(f"stack{self.local}")
        if self.inline:
            self.reads_record = True
            return "rec"
        return "ctx"

    def _access(self, ptype: tuple, reg: int, offset: int):
        """(buffer expression, constant offset) of an access through a
        ``ptype`` pointer held in ``reg``."""
        return self._base(ptype, reg), ptype[-1] + offset

    def _mem(self, ptype: tuple, reg: int, size: int) -> str:
        """The ``size`` bytes a ``ptype`` pointer addresses, as bytes."""
        base, start = self._access(ptype, reg, 0)
        return f"bytes({base}[{start}:{start + size}])"

    # -- instructions -----------------------------------------------------
    def _alu(self, insn: Insn, pc: int, is64: bool, types: dict) -> None:
        op = insn.opcode & 0xF0
        mask = _MASK64 if is64 else _MASK32
        bits = 64 if is64 else 32
        dst, src = insn.dst, insn.src
        if op == AluOp.MOV:
            if not insn.uses_reg_source:
                self.put(f"r{dst} = {insn.imm & mask}")
            elif types[src] == _SCALAR:
                if not is64:
                    self.put(f"r{dst} = r{src} & {_MASK32}")
                elif dst != src:
                    self.put(f"r{dst} = r{src}")
            elif types[src][0] in ("ptr_map_value", "map_or_null") and dst != src:
                self.put(f"r{dst} = r{src}")
            return
        if op not in _ALU_OPS:
            raise _Decline(f"unknown ALU op {op:#x} at pc {pc}")
        dtype = types[dst]
        if dtype != _SCALAR:
            # Verified pointer arithmetic: +/- a proven constant moves a
            # proven offset (nothing to emit); ptr - ptr of one ctx/stack
            # region is a constant.
            stype = types[src] if insn.uses_reg_source else _SCALAR
            if stype == _SCALAR:
                return
            if dtype[0] in _STATIC_REGIONS:
                self.put(f"r{dst} = {(dtype[1] - stype[1]) & _MASK64}")
                return
            raise _Decline(f"map value pointers subtracted at pc {pc}")
        a = f"r{dst}" if is64 else f"(r{dst} & {_MASK32})"
        if insn.uses_reg_source:
            if types[src] != _SCALAR:
                raise _Decline(f"scalar ALU with a non-scalar operand at pc {pc}")
            b = f"r{src}" if is64 else f"(r{src} & {_MASK32})"
            shift = f"({b} & {bits - 1})"
        else:
            value = insn.imm & mask
            b = str(value)
            shift = str(value & (bits - 1))
        self.put(f"r{dst} = {self._alu_expr(op, a, b, shift, mask, bits)}")

    @staticmethod
    def _alu_expr(op: int, a: str, b: str, shift: str, mask: int, bits: int) -> str:
        """The result expression.  ``a``/``b`` arrive masked to the
        operation width (every scalar register already lies in
        ``[0, 2**64)``), so outputs are masked only where an operation can
        leave that domain."""
        if op == AluOp.ADD:
            return f"({a} + {b}) & {mask}"
        if op == AluOp.SUB:
            return f"({a} - {b}) & {mask}"
        if op == AluOp.MUL:
            return f"({a} * {b}) & {mask}"
        if op == AluOp.DIV:
            if b.isdigit():
                return f"{a} // {b}" if int(b) else "0"
            return f"({a} // {b}) if {b} else 0"
        if op == AluOp.MOD:
            if b.isdigit():
                return f"{a} % {b}" if int(b) else a
            return f"({a} % {b}) if {b} else {a}"
        if op == AluOp.OR:
            return f"{a} | {b}"
        if op == AluOp.AND:
            return f"{a} & {b}"
        if op == AluOp.XOR:
            return f"{a} ^ {b}"
        if op == AluOp.LSH:
            return f"({a} << {shift}) & {mask}"
        if op == AluOp.RSH:
            return f"{a} >> {shift}"
        if op == AluOp.ARSH:
            return f"({_sx_expr(a, bits)} >> {shift}) & {mask}"
        return f"(-{a}) & {mask}"  # NEG

    def _ldx(self, insn: Insn, types: dict) -> None:
        size = insn.mem_size.nbytes
        ptype = types[insn.src]
        if self.inline and ptype[0] == "ptr_ctx":
            value = field_load(self.ctx_size, ptype[1] + insn.off, size)
            if value is not None:
                self.put(f"r{insn.dst} = {value}")
                return
        base, start = self._access(ptype, insn.src, insn.off)
        if size == 1:
            self.put(f"r{insn.dst} = {base}[{start}]")
        else:
            self.put(f"r{insn.dst} = {self._use(f'_ld{size}')}({base}, {start})[0]")

    def _store(self, insn: Insn, types: dict, value: str) -> None:
        size = insn.mem_size.nbytes
        base, start = self._access(types[insn.dst], insn.dst, insn.off)
        if size == 1:
            self.put(f"{base}[{start}] = {value}")
        else:
            self.put(f"{self._use(f'_st{size}')}({base}, {start}, {value})")

    def _stx(self, insn: Insn, types: dict) -> None:
        size = insn.mem_size.nbytes
        # Scalars already lie in [0, 2**64): 8-byte stores need no mask.
        value = f"r{insn.src}" if size == 8 else f"r{insn.src} & {(1 << (8 * size)) - 1}"
        self._store(insn, types, value)

    def _st(self, insn: Insn, types: dict) -> None:
        self._store(insn, types, str(insn.imm & ((1 << (8 * insn.mem_size.nbytes)) - 1)))

    def _sized_mem(self, ptype: tuple, reg: int, size_reg: int) -> str:
        """A helper's ``PTR_TO_MEM`` + ``SIZE`` operand as bytes.  The
        verifier proved the size register's exact value on every path
        fits the region; paths may differ in it, so it is read here."""
        base, start = self._access(ptype, reg, 0)
        return f"bytes({base}[{start}:{start} + r{size_reg}])"

    def _call(self, insn: Insn, pc: int, types: dict) -> int:
        """Emit a helper call; returns its cost."""
        sig = HELPER_SIGS[insn.imm]
        helper = sig.helper
        if helper in RUNTIME_HELPERS:
            method, mask = RUNTIME_HELPERS[helper]
            suffix = f" & {mask}" if mask is not None else ""
            value = _FIRING_HELPERS.get(helper) if self.inline else None
            if value is None:
                value = f"{self._runtime()}.{method}()"
            self.put(f"r0 = {value}{suffix}")
            return sig.cost_ns
        if helper in (Helper.MAP_LOOKUP_ELEM, Helper.MAP_UPDATE_ELEM, Helper.MAP_DELETE_ELEM):
            site = types[1][1]
            bpf_map = self._map(site)
            key = self._mem(types[2], 2, self.maps[site].key_size)
            if helper == Helper.MAP_LOOKUP_ELEM:
                self.put(f"r0 = {bpf_map}.lookup({key})")
            elif helper == Helper.MAP_UPDATE_ELEM:
                value = self._mem(types[3], 3, self.maps[site].value_size)
                self.put(f"{bpf_map}.update({key}, {value})")
                self.put("r0 = 0")
            else:
                self.put(f"r0 = {self._use('_delete')}({bpf_map}, {key})")
            return sig.cost_ns
        if helper == Helper.TRACE_PRINTK:
            data = self._sized_mem(types[1], 1, 2)
            self.put(f"r0 = {self._use('_printk')}({self._runtime()}, {data})")
            return sig.cost_ns
        if helper == Helper.PERF_EVENT_OUTPUT:
            map_reg, mem_reg, size_reg, cls, fn = 2, 4, 5, PerfEventArray, "_perf"
        else:  # RINGBUF_OUTPUT
            map_reg, mem_reg, size_reg, cls, fn = 1, 2, 3, RingBuf, "_ring"
        site = types[map_reg][1]
        if not isinstance(self.maps[site], cls):
            raise _Decline(f"{helper.name} on a {type(self.maps[site]).__name__} at pc {pc}")
        data = self._sized_mem(types[mem_reg], mem_reg, size_reg)
        self.put(f"r0 = {self._use(fn)}({self._runtime()}, {self._map(site)}, {data})")
        return sig.cost_ns

    def _branch(self, insn: Insn, pc: int, is32: bool, types: dict):
        """A conditional jump as ``(condition, taken_lines, fall_lines)``;
        ``condition`` is ``True``/``False`` when the proof decides it."""
        op = insn.opcode & 0xF0
        dtype = types[insn.dst]
        if dtype != _SCALAR:
            # The verifier admits only ==/!= against a proven 0 here; a
            # proven pointer is never null, a lookup result is null
            # exactly when it is None.
            equal = op == JmpOp.JEQ
            if dtype[0] != "map_or_null":
                return (not equal), [], []
            reg = f"r{insn.dst}"
            null = [f"{reg} = 0"]
            if equal:
                return f"{reg} is None", null, []
            return f"{reg} is not None", [], null
        bits = 32 if is32 else 64
        mask = _MASK32 if is32 else _MASK64
        a = f"(r{insn.dst} & {_MASK32})" if is32 else f"r{insn.dst}"
        if insn.uses_reg_source:
            b = f"(r{insn.src} & {_MASK32})" if is32 else f"r{insn.src}"
            sb = _sx_expr(b, bits)
        else:
            value = insn.imm & mask
            b = str(value)
            sb = str(_to_signed(value, bits))
        if op in _JMP_RELATIONS:
            return f"{a} {_JMP_RELATIONS[op]} {b}", [], []
        if op in _SIGNED_RELATIONS:
            return f"{_sx_expr(a, bits)} {_SIGNED_RELATIONS[op]} {sb}", [], []
        if op == JmpOp.JSET:
            return f"{a} & {b}", [], []
        raise _Decline(f"unknown jump op {op:#x} at pc {pc}")

    # -- control flow -----------------------------------------------------
    def _exit_tail(self, block: int) -> Optional[List[int]]:
        """The pcs (``ja`` included) a jump to ``block`` runs before
        ``exit`` when that path is short and branch/call free."""
        if block >= self.nblocks:
            return None
        tail: List[int] = []
        pc = self.leaders[block]
        while len(tail) < _TAIL_MAX and pc < self.n:
            insn = self.insns[pc]
            tail.append(pc)
            klass = insn.opcode & 0x07
            op = insn.opcode & 0xF0
            if klass in (InsnClass.JMP, InsnClass.JMP32):
                if op == JmpOp.EXIT:
                    return tail
                if op != JmpOp.JA:
                    return None
                pc += 1 + insn.off
            else:
                pc += 2 if insn.is_ld_imm64 else 1
        return None

    def _goto(self, block: int) -> None:
        """Continue at ``block``: return through its exit tail, or skip
        every block before it."""
        tail = self._exit_tail(block)
        if tail is not None:
            self.put(f"S += {len(tail)}")
            for pc in tail:
                if not _is_ja(self.insns[pc]):
                    self._emit(pc)
            return
        self.put(f"_skip = {block}")
        self.pending = max(self.pending, block)

    def _emit(self, pc: int) -> int:
        """Emit the instruction at ``pc``; returns its helper cost."""
        insn = self.insns[pc]
        types = self.facts[pc]
        klass = insn.opcode & 0x07
        if klass in (InsnClass.ALU, InsnClass.ALU64):
            self._alu(insn, pc, klass == InsnClass.ALU64, types)
        elif klass == InsnClass.LDX:
            self._ldx(insn, types)
        elif klass == InsnClass.STX:
            self._stx(insn, types)
        elif klass == InsnClass.ST:
            self._st(insn, types)
        elif klass == InsnClass.LD:
            if not insn.is_map_load:
                value = ((self.insns[pc + 1].imm & _MASK32) << 32) | (insn.imm & _MASK32)
                self.put(f"r{insn.dst} = {value}")
        else:
            op = insn.opcode & 0xF0
            if op == JmpOp.CALL:
                return self._call(insn, pc, types)
            if op == JmpOp.EXIT:
                self.put("break" if self.inline else "return r0, S, C + S * insn_cost_ns")
            elif op == JmpOp.JA:
                self._jump(pc + 1 + insn.off, pc)
            else:
                self._cond(insn, pc, klass == InsnClass.JMP32, types)
        return 0

    def _jump(self, target: int, pc: int) -> None:
        block = self.block_of.get(target, self.nblocks)
        if block != self.block_of.get(pc + 1, self.nblocks):
            self._goto(block)

    def _cond(self, insn: Insn, pc: int, is32: bool, types: dict) -> None:
        cond, taken, fall = self._branch(insn, pc, is32, types)
        target = pc + 1 + insn.off
        if cond is True:
            self._jump(target, pc)
            return
        if cond is False:
            return
        jumps = self.block_of[target] != self.block_of.get(pc + 1, self.nblocks)
        if not (taken or fall or jumps):
            return
        self.put(f"if {cond}:")
        self.indent += 1
        for line in taken:
            self.put(line)
        if jumps:
            self._jump(target, pc)
        elif not taken:
            self.put("pass")
        self.indent -= 1
        if fall:
            self.put("else:")
            self.put(f"    {fall[0]}")

    def _body(self) -> List[str]:
        """The program's lines at function-body indent."""
        for index, pcs in enumerate(self.blocks):
            self.indent = 1
            if self.pending > index:
                self.put(f"if _skip <= {index}:")
                self.indent = 2
            self.put(f"S {'=' if index == 0 else '+='} {len(pcs)}")
            cost_at = len(self.lines)
            cost = sum(self._emit(pc) for pc in pcs)
            if cost or index == 0:
                # Helper costs of a block are charged on entry: a block is
                # left early only by raising.
                self.lines.insert(cost_at, "    " * self.indent
                                  + f"C {'=' if index == 0 else '+='} {cost}")
        self.indent = 1
        self.put(f"raise VmFault('pc {self.n} out of program bounds')")
        head = ["    _skip = 0"] if self.pending else []
        return head + self.lines

    def generate(self) -> str:
        """The standalone function ``name(ctx, runtime, insn_cost_ns)``."""
        self._reset(inline=False)
        body = self._body()
        # Hot names ride in as default arguments so the generated code
        # resolves them through fast locals instead of namespace globals.
        header = f"def {self.name}(ctx, runtime, insn_cost_ns{_defaults(self.names)}):"
        return "\n".join([header] + body) + f"\n\n\n_prog = {self.name}\n"

    def inline_body(self) -> "InlineBody":
        """The program as lines a fused dispatcher runs in place (see
        :func:`fused_source`)."""
        self._reset(inline=True)
        lines = tuple(line[4:] for line in self._body())
        return InlineBody(lines, frozenset(self.names), self.reads_record)


def _defaults(names) -> str:
    """``, name=name`` for each name, in sorted order."""
    return "".join(f", {name}={name}" for name in sorted(names))


class InlineBody(NamedTuple):
    """A program's code for a fused dispatcher (:func:`fused_source`).

    ``lines`` are the standalone function's body, except that a ctx load
    reads the firing's field (:func:`~repro.ebpf.context.field_load`),
    ``ktime`` and ``get_current_pid_tgid`` read the firing's
    ``ktime_ns`` and ``pid_tgid``, ``exit`` breaks out of the loop the
    dispatcher wraps the body in, and the per-binding names (maps, stack,
    runtime) end in the :data:`_SLOT` placeholder.  ``names`` are the
    names the lines read from the exec namespace.  ``reads_record`` says
    a load straddles two record fields: it reads the packed record
    ``rec`` instead.
    """

    lines: Tuple[str, ...]
    names: FrozenSet[str]
    reads_record: bool


# ----------------------------------------------------------------------
# compiled programs
# ----------------------------------------------------------------------

class CompiledProgram:
    """A program translated to one compiled Python function.

    ``fn(ctx_bytes, runtime, insn_cost_ns)`` returns the ``(r0, steps,
    cost_ns)`` triple for a ``ctx_bytes`` of exactly the ctx size the
    translation was proven for; ``source`` keeps the generated text for
    diagnostics and tests, and ``code`` the compiled module code object —
    the piece the translation cache keeps (it is map-free: maps and the
    stack ride in through the exec namespace).

    A program with ``fn=None`` is a *template*: the map-free half of a
    translation, shared by every copy of the same key.  :meth:`bind`
    turns it into a runnable program for one set of maps, and a
    template's ``inline`` is the same translation as a fused dispatcher's
    :class:`InlineBody`.
    """

    __slots__ = ("fn", "source", "n", "code", "inline")

    def __init__(self, fn, source: str, n: int, code=None,
                 inline: Optional[InlineBody] = None) -> None:
        self.fn = fn
        self.source = source
        self.n = n
        self.code = code
        self.inline = inline

    def bind(self, insns: Sequence[Insn]) -> "CompiledProgram":
        """Execute ``code`` against a namespace built from ``insns``, so
        the returned program reads and writes the caller's live maps and
        a stack of its own.  ``insns`` must have the :func:`key_material`
        this translation was made from.  Every hit of the translation cache
        binds through here.
        """
        namespace = rebind_namespace(insns)
        exec(self.code, namespace)  # noqa: S102 - our own codegen output
        return CompiledProgram(namespace["_prog"], self.source, self.n, self.code)


def decline_reason(insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE) -> Optional[str]:
    """Why the compiled tier runs ``insns`` on the reference VM for
    ``ctx_size``-byte contexts, or ``None`` when it compiles them."""
    try:
        _Codegen(insns, ctx_size, "_prog").generate()
    except _Decline as reason:
        return str(reason)
    return None


def translate(insns: Sequence[Insn], ctx_size: int) -> Optional[CompiledProgram]:
    """The map-free template of ``insns`` for ``ctx_size``-byte contexts,
    its inline body included, or ``None`` when the program runs on the
    reference :class:`~repro.ebpf.vm.Vm` instead (see the module
    docstring).  One verifier walk serves both renderings."""
    material = key_material(insns, ctx_size)
    name = "_prog_" + hashlib.sha256(material).hexdigest()[:12]
    try:
        codegen = _Codegen(insns, ctx_size, name)
        source = codegen.generate()
        inline = codegen.inline_body()
    except _Decline:
        return None
    code = compile(source, "<ebpf-compiled>", "exec")
    return CompiledProgram(None, source, len(insns), code, inline)


def compile_insns(insns: Sequence[Insn],
                  ctx_size: int = SYS_ENTER_CTX_SIZE) -> Optional[CompiledProgram]:
    """Translate a program for ``ctx_size``-byte contexts, bound to the
    maps ``insns`` references, or ``None`` when it runs on the reference
    :class:`~repro.ebpf.vm.Vm` instead (see the module docstring)."""
    template = translate(insns, ctx_size)
    return None if template is None else template.bind(insns)


#: Names every generated program's namespace carries besides its maps
#: and stack: the shared helper semantics of :mod:`repro.ebpf.vm`.
_STATIC_NS = {
    "VmFault": VmFault,
    "_delete": map_delete_r0,
    "_printk": trace_printk_r0,
    "_perf": perf_output_r0,
    "_ring": ringbuf_output_r0,
    **{f"_ld{size}": fmt.unpack_from for size, fmt in _WIDTH_STRUCTS.items()},
    **{f"_st{size}": fmt.pack_into for size, fmt in _WIDTH_STRUCTS.items()},
}


def rebind_namespace(insns: Sequence[Insn], suffix: str = "") -> dict:
    """The exec namespace of a generated program for ``insns``.

    The generated source is a pure function of :func:`key_material` —
    map loads compile to nothing and helper calls name the load site's
    map as ``M<pc>`` — so this binds every map-load site's ``M<pc>`` to
    the *caller's* live map, plus a fresh ``stack`` for this binding.
    A fused dispatcher's slot binds the same names ending in its
    ``suffix``.
    """
    ns = dict(_STATIC_NS)
    ns[f"stack{suffix}"] = bytearray(STACK_SIZE)
    for pc, insn in enumerate(insns):
        if insn.is_map_load:
            ns[f"M{pc}{suffix}"] = insn.map_ref
    return ns


# ----------------------------------------------------------------------
# fused tracepoint dispatchers
# ----------------------------------------------------------------------

def fused_source(name: str, slots: Sequence[tuple]) -> str:
    """Source of one tracepoint's dispatcher ``name(pid_tgid, nr, arg,
    ktime_ns)``, which runs ``slots`` in attach order and returns their
    summed cost.  A slot is one of

    * ``("call",)``: ``P_<i>(pid_tgid, nr, arg, ktime_ns)``, a probe
      taking the firing's arguments;
    * ``("record",)``: ``P_<i>(rec, pid_tgid, ktime_ns)``, a program the
      reference interpreter runs on the packed record ``rec``;
    * ``("inline", body, charge_cost, insn_cost_ns)``: an
      :class:`InlineBody` run in place, its per-binding names suffixed
      ``_<i>``; it adds one to ``I_<i>[N_<i>]`` and its steps to
      ``X_<i>[N_<i>]`` (the program's invocation and instruction
      counters), and its cost when ``charge_cost`` is set.

    ``rec`` is packed once, with ``_pack(pid_tgid, nr, arg)``, when some
    slot reads it.  The text is a function of ``slots`` alone, never of
    program names or maps, which the exec namespace binds.
    """
    names = set()
    lines = ["cost = 0"]
    if any(slot[0] == "record" or (slot[0] == "inline" and slot[1].reads_record)
           for slot in slots):
        lines.append("rec = _pack(pid_tgid, nr, arg)")
        names.add("_pack")
    for index, slot in enumerate(slots):
        suffix = f"_{index}"
        if slot[0] != "inline":
            args = "pid_tgid, nr, arg, ktime_ns" if slot[0] == "call" else "rec, pid_tgid, ktime_ns"
            lines += [f"c = P{suffix}({args})", "if c:", "    cost += c"]
            names.add(f"P{suffix}")
            continue
        _kind, body, charge_cost, insn_cost_ns = slot
        lines.append("while True:")
        for line in body.lines:
            if charge_cost or not line.lstrip().startswith(("C = ", "C += ")):
                lines.append("    " + line.replace(_SLOT, suffix))
        names.update(name.replace(_SLOT, suffix) for name in body.names)
        names.update(f"{counter}{suffix}" for counter in "IXN")
        lines += [f"I{suffix}[N{suffix}] += 1", f"X{suffix}[N{suffix}] += S"]
        if charge_cost:
            lines.append(f"cost += C + S * {insn_cost_ns}")
    lines.append("return cost")
    header = f"def {name}(pid_tgid, nr, arg, ktime_ns{_defaults(names)}):"
    body = "\n".join("    " + line for line in lines)
    return f"{header}\n{body}\n\n\n_dispatch = {name}\n"


# ----------------------------------------------------------------------
# the compiled-tier VM
# ----------------------------------------------------------------------

class CompiledVm(Vm):
    """Drop-in :class:`Vm` executing typed translations.

    Bit-for-bit identical to the reference interpreter (enforced by the
    differential suites in ``tests/ebpf/``); programs the generator
    declines for a ctx size run on the inherited reference
    :meth:`Vm.execute`.
    """

    def __init__(self, insn_cost_ns: int = DEFAULT_INSN_COST_NS,
                 cache=None) -> None:
        super().__init__(insn_cost_ns)
        # Imported here: the translation cache module imports this one.
        from .translation import _GLOBAL_CACHE

        self.cache = cache if cache is not None else _GLOBAL_CACHE
        #: ``(id(insns), ctx_size)`` -> ``(insns, bound program or None)``.
        #: Bound programs belong to the attach site (a VM serves one
        #: ``BPF`` object), never to the shared cache, so they die with it.
        self._bound: dict = {}

    def _compiled(self, insns: Sequence[Insn], ctx_size: int,
                  key: Optional[bytes] = None) -> Optional[CompiledProgram]:
        """``insns``'s translation for ``ctx_size`` bound to its maps,
        once per program and size."""
        site = (id(insns), ctx_size)
        memo = self._bound.get(site)
        if memo is None or memo[0] is not insns:
            memo = self._bound[site] = (insns, self.cache.get_compiled(insns, ctx_size, key))
        return memo[1]

    def template(self, insns: Sequence[Insn], ctx_size: int,
                 key: Optional[bytes] = None) -> Optional[CompiledProgram]:
        """The translation cache's map-free template of ``insns`` for
        ``ctx_size``-byte records, bound to nothing: a fused dispatcher
        runs its :class:`InlineBody`.  ``None`` when the program runs on
        the reference interpreter; that verdict is kept for the
        :meth:`prepare` that follows, so the program is looked up once."""
        template = self.cache.template(insns, ctx_size, key)
        if template is None:
            self._bound[(id(insns), ctx_size)] = (insns, None)
        return template

    def prepare(self, insns: Sequence[Insn], ctx_size: Optional[int] = None,
                key: Optional[bytes] = None):
        """Per-program executor with the translation for ``ctx_size``-byte
        records (default: the ``sys_enter`` record) bound directly.
        ``key`` is the program's :func:`key_material` for that size when
        the loader already computed it.  ``run`` takes a context of any
        length and sends one of another length through :meth:`execute`.
        """
        if ctx_size is None:
            ctx_size = SYS_ENTER_CTX_SIZE
        compiled = self._compiled(insns, ctx_size, key)
        if compiled is None:
            return super().prepare(insns)
        fn = compiled.fn
        insn_cost_ns = self.insn_cost_ns
        execute = self.execute

        def run(ctx: bytes, runtime: Optional[HelperRuntime] = None) -> VmResult:
            if runtime is None:
                runtime = HelperRuntime()
            if type(ctx) is not bytes:
                ctx = bytes(ctx)
            if len(ctx) != ctx_size:
                return execute(insns, ctx, runtime)
            r0, steps, cost = fn(ctx, runtime, insn_cost_ns)
            return VmResult(r0=r0, steps=steps, cost_ns=cost)

        return run

    def execute(
        self,
        insns: Sequence[Insn],
        ctx: bytes,
        runtime: Optional[HelperRuntime] = None,
    ) -> VmResult:
        if type(ctx) is not bytes:
            ctx = bytes(ctx)
        compiled = self._compiled(insns, len(ctx))
        if compiled is None:
            return super().execute(insns, ctx, runtime)
        r0, steps, cost = compiled.fn(
            ctx, runtime if runtime is not None else HelperRuntime(), self.insn_cost_ns
        )
        return VmResult(r0=r0, steps=steps, cost_ns=cost)


def make_vm(tier: str = DEFAULT_VM_TIER,
            insn_cost_ns: int = DEFAULT_INSN_COST_NS,
            cache=None) -> Vm:
    """Build the VM for a tier name (``reference`` or ``compiled``).

    Both tiers are bit-for-bit identical; the compiled tier is faster.
    Attach sites (``BPF``, the collectors, ``ExperimentSpec``)
    accept the tier name so cached experiment results record which tier
    produced them.
    """
    if tier == "reference":
        return Vm(insn_cost_ns)
    if tier == "compiled":
        return CompiledVm(insn_cost_ns, cache=cache)
    raise ValueError(f"unknown vm tier {tier!r}; available: {VM_TIERS}")
