"""The compiled eBPF tier: whole-program translation to one Python function.

The two VM tiers share one bit-for-bit semantics contract:

* :class:`~repro.ebpf.vm.Vm` — the reference interpreter, re-deriving
  everything per step;
* :class:`CompiledVm` (this module) — the whole program translated
  **once** into a single Python source function and compiled with
  ``compile()``/``exec``, so the steady state pays no per-instruction
  Python call at all.

The code generator linearizes the program into basic blocks.  Verified
programs are loop-free (the verifier rejects back-edges), so every jump
is forward and control flow can be emitted as straight-line blocks with
cheap *forward-goto* guards: block ``k`` is wrapped in ``if _skip <= k:``
and a taken jump simply sets ``_skip`` to the target block id.  A not
taken branch falls through with ``_skip`` unchanged.  Registers live in
local variables ``r0``..``r10``; constants, masked immediates, helper
signatures, map references, and pre-encoded store blobs are bound into
the function's namespace at translation time.

Semantics contract: identical ``(r0, steps, cost_ns)``, identical map
effects, and identical fault messages to the reference interpreter.
Every emitted instruction handles the common case (plain integers,
in-bounds stack/ctx/map-value pointers) inline and falls back to the
*reference* routines (``Vm._alu``, ``Vm._branch``, ``mem_load``,
``mem_store``, ``call_helper``) for anything exotic — uninitialized
registers, pointer arithmetic oddities, out-of-bounds accesses — so
faults reproduce the reference messages verbatim.  Instruction steps are
accumulated per block (each executed slot counts exactly once, a fused
``ld_imm64`` counts one step, exactly as the interpreter counts), and
the cost model is ``helper_cost + steps * insn_cost_ns``, shared with
the interpreter through :func:`~repro.ebpf.vm.call_helper`.

Programs the generator does not support — backward jumps (unverified
input), jumps into the second slot of an ``ld_imm64`` pair, unresolved
map references, unknown helpers or opcodes, non-imm64 LD forms —
**fall back to the reference interpreter**, the fault-message oracle,
so :meth:`CompiledVm.execute` is total over the same input space as
:class:`~repro.ebpf.vm.Vm`.  Translations are cached in the
process-wide :class:`~repro.ebpf.translation.TranslationCache`, keyed
on the instruction wire encoding alone — the same map-free key the
on-disk cache uses.  The cache keeps only the map-free template (source
and code object); every attach site binds it to its own live maps with
:meth:`CompiledProgram.bind`, so a program is translated once per
process, however many cells load it, and the cache never keeps a cell's
maps alive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import VmFault
from .helpers import HELPER_SIGS, INLINE_SAFE_HELPERS, Helper, HelperRuntime
from .insn import Insn
from .maps import ArrayMap, BpfMap, PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp, MemSize
from .vm import (
    DEFAULT_INSN_COST_NS,
    MAX_STEPS,
    STACK_SIZE,
    MapRef,
    MemRegion,
    Pointer,
    Vm,
    VmResult,
    _to_signed,
    call_helper,
    mem_load,
    mem_store,
)

__all__ = [
    "CompiledProgram",
    "CompiledVm",
    "VM_TIERS",
    "DEFAULT_VM_TIER",
    "CODEGEN_TAG",
    "compile_insns",
    "rebind_namespace",
    "make_vm",
]

#: Version stamp of the code generator's output contract.  The on-disk
#: compiled-code cache (:mod:`repro.ebpf.diskcache`) keys entries on this
#: tag: bump it whenever the generated source, the namespace binding
#: scheme (``I``/``G``/``Z``/``B``/``M`` names), or the calling
#: convention of ``_prog`` changes shape, so stale entries can never be
#: executed by a newer generator.
CODEGEN_TAG = "cg1"

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_SIGN32 = 1 << 31
_SIGN64 = 1 << 63

#: Reference interpreter whose ``_alu``/``_branch`` the slow paths reuse
#: (stateless, so one shared instance is safe).
_REF = Vm()

#: The VM tiers, lowest to highest.  ``make_vm`` accepts either.
VM_TIERS = ("reference", "compiled")

#: Tier picked by attach sites when the caller does not choose one.
DEFAULT_VM_TIER = "compiled"


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

class _Unsupported(Exception):
    """Internal: construct the generator cannot translate (-> reference Vm)."""


class _Emitter:
    """Accumulates generated source lines at a given indent level."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 1

    def put(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def putall(self, lines: Sequence[str]) -> None:
        for line in lines:
            self.put(line)


def _find_leaders(insns: Sequence[Insn]) -> tuple:
    """Basic-block leaders + the set of ld_imm64 second slots.

    Raises :class:`_Unsupported` for control flow the generator cannot
    express (backward jumps, jumps into a fused pair, targets outside
    ``[0, n]``).
    """
    n = len(insns)
    leaders = {0}
    skip_slots = set()
    pc = 0
    while pc < n:
        insn = insns[pc]
        klass = insn.opcode & 0x07
        if klass == InsnClass.LD:
            if not insn.is_ld_imm64 or pc + 1 >= n:
                raise _Unsupported(f"unsupported LD at pc {pc}")
            skip_slots.add(pc + 1)
            pc += 2
            continue
        if klass in (InsnClass.JMP, InsnClass.JMP32):
            op = insn.opcode & 0xF0
            if op == JmpOp.CALL:
                pc += 1
                continue
            if op == JmpOp.EXIT:
                leaders.add(pc + 1)
                pc += 1
                continue
            target = pc + 1 + insn.off
            if target <= pc:
                raise _Unsupported(f"backward jump at pc {pc}")
            if not 0 <= target <= n:
                raise _Unsupported(f"jump target {target} outside program")
            if target < n:
                leaders.add(target)
            leaders.add(pc + 1)
        pc += 1
    if leaders & skip_slots:
        raise _Unsupported("jump into the second slot of an ld_imm64 pair")
    leaders.discard(n)
    return sorted(leaders), skip_slots


def _sx_expr(var: str, bits: int) -> str:
    sign = _SIGN64 if bits == 64 else _SIGN32
    return f"({var} - (({var} & {sign}) << 1))"


class _Codegen:
    def __init__(self, insns: Sequence[Insn]) -> None:
        self.insns = insns
        self.n = len(insns)
        self.ns: dict = {
            "VmFault": VmFault,
            "Pointer": Pointer,
            "MapRef": MapRef,
            "MemRegion": MemRegion,
            "ArrayMap": ArrayMap,
            "PerfEventArray": PerfEventArray,
            "_alu": _REF._alu,
            "_branch": _REF._branch,
            "_load": mem_load,
            "_store": mem_store,
            "_call": call_helper,
            "_ifb": int.from_bytes,
        }
        self.emitter = _Emitter()
        leaders, self.skip_slots = _find_leaders(insns)
        self.block_of = {pc: index for index, pc in enumerate(leaders)}
        self.leaders = leaders
        self.nblocks = len(leaders)

    # -- namespace helpers ------------------------------------------------
    def _bind(self, prefix: str, pc: int, value) -> str:
        name = f"{prefix}{pc}"
        self.ns[name] = value
        return name

    def _target_block(self, target: int) -> int:
        """Block id for a jump target; ``n`` maps past the last block."""
        return self.nblocks if target == self.n else self.block_of[target]

    # -- instruction emission ---------------------------------------------
    def _emit_alu(self, insn: Insn, pc: int, is64: bool) -> None:
        put = self.emitter.put
        op = insn.opcode & 0xF0
        mask = _MASK64 if is64 else _MASK32
        bits = 64 if is64 else 32
        dst = f"r{insn.dst}"

        if op == AluOp.MOV:
            if not insn.uses_reg_source:
                put(f"{dst} = {insn.imm & mask}")
                return
            src = f"r{insn.src}"
            if is64:
                # Ints copy unmasked (the register invariant keeps every
                # int in [0, 2**64)) and pointers copy by reference, so
                # only the uninitialized case needs a guard.
                put(f"if {src} is None:")
                put(f"    raise VmFault('mov from uninitialized r{insn.src}')")
                put(f"{dst} = {src}")
            else:
                put(f"if type({src}) is int:")
                put(f"    {dst} = {src} & {_MASK32}")
                put(f"elif {src} is None:")
                put(f"    raise VmFault('mov from uninitialized r{insn.src}')")
                put("else:")
                put(f"    {dst} = {src}")
            return

        if op not in _ALU_OPS:
            raise _Unsupported(f"unknown ALU op {op:#x} at pc {pc}")
        iname = self._bind("I", pc, insn)
        a_expr = dst if is64 else f"({dst} & {_MASK32})"
        fallback = [
            f"    scratch[{insn.dst}] = {dst}",
            f"    _alu({iname}, scratch, {is64})",
            f"    {dst} = scratch[{insn.dst}]",
        ]

        if not insn.uses_reg_source:
            b = insn.imm & mask
            expr = self._alu_expr(op, a_expr, str(b), is64,
                                  shift_const=b & (bits - 1))
            put(f"if type({dst}) is int:")
            put(f"    {dst} = {expr}")
            if op in (AluOp.ADD, AluOp.SUB):
                # Pointer bumps (r2 = r10; r2 += -8) fire on every probe
                # invocation: give them an inline case.
                delta = _to_signed(b, 64)
                if op == AluOp.SUB:
                    delta = -delta
                put(f"elif {dst}.__class__ is Pointer:")
                put(f"    {dst} = Pointer({dst}.region, {dst}.offset + {delta})")
            put("else:")
            self.emitter.putall(fallback)
            return

        src = f"r{insn.src}"
        b_expr = src if is64 else f"({src} & {_MASK32})"
        put(f"if type({dst}) is int and type({src}) is int:")
        put(f"    {dst} = {self._alu_expr(op, a_expr, b_expr, is64)}")
        put("else:")
        put(f"    scratch[{insn.src}] = {src}")
        self.emitter.putall(fallback)

    def _alu_expr(self, op: int, a: str, b: str, is64: bool,
                  shift_const: Optional[int] = None) -> str:
        """The int/int result expression.

        ``a``/``b`` arrive as pre-masked expressions: immediates are
        masked at translation time, 32-bit register operands get an
        inline ``& 0xFFFFFFFF``, and 64-bit register operands need no
        mask at all because every write path keeps int registers in
        ``[0, 2**64)``.  Outputs are masked only where the operation can
        leave that domain.
        """
        mask = _MASK64 if is64 else _MASK32
        bits = 64 if is64 else 32
        shift = (f"{shift_const}" if shift_const is not None
                 else f"({b} & {bits - 1})")
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
        if op == AluOp.NEG:
            return f"(-{a}) & {mask}"
        raise _Unsupported(f"unknown ALU op {op:#x}")

    def _emit_jmp(self, insn: Insn, pc: int, is32: bool) -> None:
        put = self.emitter.put
        op = insn.opcode & 0xF0
        if op == JmpOp.CALL:
            sig = HELPER_SIGS.get(insn.imm)
            if sig is None:
                raise _Unsupported(f"unknown helper id {insn.imm}")
            # Register-only helpers (no memory, no map side effects) are
            # inlined: the same runtime method call_helper would make,
            # the same masking, the same R1-R5 clobber, the same cost.
            pure = _PURE_HELPER_EXPRS.get(sig.helper)
            if pure is not None:
                put(f"r0 = {pure}")
                put("r1 = r2 = r3 = r4 = r5 = None")
                put(f"C += {sig.cost_ns}")
                return
            # Map/memory helpers on the probe hot path get a guarded inline
            # expansion: the exact reads, writes, allocations, clobbers and
            # cost of the matching call_helper arm, with anything the guard
            # cannot prove (wrong classes, out-of-bounds, non-array maps)
            # dispatched through call_helper so faults and error returns
            # stay reference-verbatim.  ``_fb`` is the fallback flag.
            inline = _INLINE_HELPER_EMITTERS.get(sig.helper)
            if inline is not None:
                put("_fb = 1")
                self.emitter.putall(inline(sig.cost_ns))
            gname = self._bind("G", pc, sig)
            if inline is not None:
                put("if _fb:")
                body = self.emitter
                body.put("    scratch[1] = r1")
                body.put("    scratch[2] = r2")
                body.put("    scratch[3] = r3")
                body.put("    scratch[4] = r4")
                body.put("    scratch[5] = r5")
                body.put(f"    C += _call({gname}, scratch, runtime)")
                body.put("    r0 = scratch[0]")
                body.put("    r1 = r2 = r3 = r4 = r5 = None")
                return
            put("scratch[1] = r1")
            put("scratch[2] = r2")
            put("scratch[3] = r3")
            put("scratch[4] = r4")
            put("scratch[5] = r5")
            put(f"C += _call({gname}, scratch, runtime)")
            put("r0 = scratch[0]")
            put("r1 = r2 = r3 = r4 = r5 = None")
            return
        if op == JmpOp.EXIT:
            put("if type(r0) is int:")
            put("    return r0, S, C + S * insn_cost_ns")
            put("raise VmFault('exit with non-scalar r0 ' + repr(r0))")
            return

        target = self._target_block(pc + 1 + insn.off)
        if op == JmpOp.JA:
            put(f"_skip = {target}")
            return

        if op not in _JMP_OPS:
            raise _Unsupported(f"unknown jump op {op:#x} at pc {pc}")
        mask = _MASK32 if is32 else _MASK64
        bits = 32 if is32 else 64
        dst = f"r{insn.dst}"
        iname = self._bind("I", pc, insn)

        a_expr = f"({dst} & {_MASK32})" if is32 else dst
        if not insn.uses_reg_source:
            b = insn.imm & mask
            put(f"if type({dst}) is int:")
            put(f"    if {self._jmp_expr(op, a_expr, b, bits)}:")
            put(f"        _skip = {target}")
            if b == 0 and op in (JmpOp.JEQ, JmpOp.JNE):
                # The null check after map_lookup_elem: a pointer never
                # equals scalar 0, so answer it without the fallback.
                put(f"elif {dst}.__class__ is Pointer or {dst}.__class__ is MapRef:")
                if op == JmpOp.JNE:
                    put(f"    _skip = {target}")
                else:
                    put("    pass")
            put("else:")
            put(f"    scratch[{insn.dst}] = {dst}")
            put(f"    if _branch({iname}, scratch, {is32}):")
            put(f"        _skip = {target}")
        else:
            src = f"r{insn.src}"
            b_expr = f"({src} & {_MASK32})" if is32 else src
            put(f"if type({dst}) is int and type({src}) is int:")
            put(f"    if {self._jmp_expr(op, a_expr, b_expr, bits)}:")
            put(f"        _skip = {target}")
            put("else:")
            put(f"    scratch[{insn.dst}] = {dst}")
            put(f"    scratch[{insn.src}] = {src}")
            put(f"    if _branch({iname}, scratch, {is32}):")
            put(f"        _skip = {target}")

    def _jmp_expr(self, op: int, a: str, b, bits: int) -> str:
        if op in (JmpOp.JSGT, JmpOp.JSGE, JmpOp.JSLT, JmpOp.JSLE):
            sa = _sx_expr(a, bits)
            sb = _to_signed(b, bits) if isinstance(b, int) else _sx_expr(b, bits)
            relation = {JmpOp.JSGT: ">", JmpOp.JSGE: ">=",
                        JmpOp.JSLT: "<", JmpOp.JSLE: "<="}[op]
            return f"{sa} {relation} {sb}"
        if op == JmpOp.JSET:
            return f"{a} & {b}"
        relation = {JmpOp.JEQ: "==", JmpOp.JNE: "!=", JmpOp.JGT: ">",
                    JmpOp.JGE: ">=", JmpOp.JLT: "<", JmpOp.JLE: "<="}[op]
        return f"{a} {relation} {b}"

    def _emit_ldx(self, insn: Insn, pc: int) -> None:
        put = self.emitter.put
        size = MemSize(insn.opcode & 0x18)
        nb = size.nbytes
        zname = self._bind("Z", pc, size)
        dst, src, off = f"r{insn.dst}", f"r{insn.src}", insn.off
        put(f"if {src}.__class__ is Pointer:")
        put(f"    _d = {src}.region.data")
        put(f"    _o = {src}.offset + {off}")
        put(f"    if 0 <= _o and _o + {nb} <= len(_d):")
        put(f"        {dst} = _ifb(_d[_o:_o + {nb}], 'little')")
        put("    else:")
        put(f"        {dst} = _load({src}, {off}, {zname})")
        put("else:")
        put(f"    {dst} = _load({src}, {off}, {zname})")

    def _emit_stx(self, insn: Insn, pc: int) -> None:
        put = self.emitter.put
        size = MemSize(insn.opcode & 0x18)
        nb = size.nbytes
        vmask = (1 << (8 * nb)) - 1
        zname = self._bind("Z", pc, size)
        dst, src, off = f"r{insn.dst}", f"r{insn.src}", insn.off
        # 8-byte stores skip the value mask: the register invariant keeps
        # every int register inside [0, 2**64) already.
        value = src if nb == 8 else f"({src} & {vmask})"
        put(f"if type({src}) is int:")
        put(f"    if {dst}.__class__ is Pointer and {dst}.region.writable:")
        put(f"        _d = {dst}.region.data")
        put(f"        _o = {dst}.offset + {off}")
        put(f"        if 0 <= _o and _o + {nb} <= len(_d):")
        put(f"            _d[_o:_o + {nb}] = {value}.to_bytes({nb}, 'little')")
        put("        else:")
        put(f"            _store({dst}, {off}, {zname}, {src})")
        put("    else:")
        put(f"        _store({dst}, {off}, {zname}, {src})")
        put("else:")
        put(f"    raise VmFault('store of non-scalar ' + repr({src}))")

    def _emit_st(self, insn: Insn, pc: int) -> None:
        put = self.emitter.put
        size = MemSize(insn.opcode & 0x18)
        nb = size.nbytes
        value = insn.imm & _MASK64
        blob = (value & ((1 << (8 * nb)) - 1)).to_bytes(nb, "little")
        zname = self._bind("Z", pc, size)
        bname = self._bind("B", pc, blob)
        dst, off = f"r{insn.dst}", insn.off
        put(f"if {dst}.__class__ is Pointer and {dst}.region.writable:")
        put(f"    _d = {dst}.region.data")
        put(f"    _o = {dst}.offset + {off}")
        put(f"    if 0 <= _o and _o + {nb} <= len(_d):")
        put(f"        _d[_o:_o + {nb}] = {bname}")
        put("    else:")
        put(f"        _store({dst}, {off}, {zname}, {value})")
        put("else:")
        put(f"    _store({dst}, {off}, {zname}, {value})")

    def _emit_ld(self, insn: Insn, pc: int) -> None:
        put = self.emitter.put
        dst = f"r{insn.dst}"
        if insn.is_map_load:
            ref = insn.map_ref
            if not isinstance(ref, (BpfMap, RingBuf, PerfEventArray)):
                raise _Unsupported(f"unresolved map reference {ref!r}")
            # MapRef is immutable and only ever null-checked, so one shared
            # instance per translation matches the reference observably.
            mname = self._bind("M", pc, MapRef(ref))
            put(f"{dst} = {mname}")
            return
        value = ((self.insns[pc + 1].imm & _MASK32) << 32) | (insn.imm & _MASK32)
        put(f"{dst} = {value}")

    def _emit_insn(self, insn: Insn, pc: int) -> None:
        klass = insn.opcode & 0x07
        if klass in (InsnClass.ALU, InsnClass.ALU64):
            self._emit_alu(insn, pc, klass == InsnClass.ALU64)
        elif klass == InsnClass.LDX:
            self._emit_ldx(insn, pc)
        elif klass == InsnClass.STX:
            self._emit_stx(insn, pc)
        elif klass == InsnClass.ST:
            self._emit_st(insn, pc)
        elif klass == InsnClass.LD:
            self._emit_ld(insn, pc)
        elif klass in (InsnClass.JMP, InsnClass.JMP32):
            self._emit_jmp(insn, pc, klass == InsnClass.JMP32)
        else:
            raise _Unsupported(f"unknown instruction class {klass}")

    # -- whole-program emission -------------------------------------------
    def generate(self) -> str:
        em = self.emitter
        em.put(f"stack = MemRegion('stack', bytearray({STACK_SIZE}), True)")
        em.put("ctx_region = MemRegion('ctx', ctx, False)")
        em.put("r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = None")
        em.put("r1 = Pointer(ctx_region, 0)")
        em.put(f"r10 = Pointer(stack, {STACK_SIZE})")
        em.put("_skip = 0")
        em.put("S = 0")
        em.put("C = 0")

        boundaries = self.leaders + [self.n]
        for index, start in enumerate(self.leaders):
            end = boundaries[index + 1]
            block_pcs = [pc for pc in range(start, end)
                         if pc not in self.skip_slots]
            if index > 0:
                em.indent = 1
                em.put(f"if _skip <= {index}:")
                em.indent = 2
            em.put(f"S += {len(block_pcs)}")
            for pc in block_pcs:
                self._emit_insn(self.insns[pc], pc)
        em.indent = 1
        em.put(f"raise VmFault('pc {self.n} out of program bounds')")

        body = "\n".join(em.lines)
        # Hot names ride in as default arguments so the generated code
        # resolves them through fast locals instead of namespace globals.
        header = (
            "def _prog(ctx, runtime, insn_cost_ns, scratch, type=type,"
            " len=len, VmFault=VmFault, Pointer=Pointer, MapRef=MapRef,"
            " MemRegion=MemRegion, _alu=_alu, _branch=_branch,"
            " _load=_load, _store=_store, _call=_call, _ifb=_ifb):\n"
        )
        return header + body + "\n"


#: R0 expressions for helpers that touch only the register file — they
#: mirror the corresponding :func:`~repro.ebpf.vm.call_helper` arms
#: exactly (same runtime method, same masking).
_PURE_HELPER_EXPRS = {
    Helper.KTIME_GET_NS: f"runtime.ktime() & {_MASK64}",
    Helper.GET_CURRENT_PID_TGID: f"runtime.current_pid_tgid() & {_MASK64}",
    Helper.GET_SMP_PROCESSOR_ID: f"runtime.smp_processor_id() & {_MASK64}",
    Helper.GET_PRANDOM_U32: "runtime.prandom_u32()",
}

def _inline_map_lookup(cost_ns: int) -> List[str]:
    """Guarded inline ``bpf_map_lookup_elem`` for ``ArrayMap``.

    Mirrors the reference arm exactly: a 4-byte key read (``read_mem``
    bounds), ``ArrayMap.lookup`` (out-of-range index -> NULL), and a
    **fresh** ``MemRegion`` per hit so pointer identity behaves as in the
    reference.  Anything the guards cannot prove leaves ``_fb`` set.
    """
    return [
        "if r1.__class__ is MapRef and r2.__class__ is Pointer:",
        "    _m = r1.bpf_map",
        "    if _m.__class__ is ArrayMap:",
        "        _d = r2.region.data",
        "        _o = r2.offset",
        "        if 0 <= _o and _o + 4 <= len(_d):",
        "            _i = _ifb(_d[_o:_o + 4], 'little')",
        "            if _i < _m.max_entries:",
        "                r0 = Pointer(MemRegion('map_value', _m._slots[_i], True), 0)",
        "            else:",
        "                r0 = 0",
        "            r1 = r2 = r3 = r4 = r5 = None",
        f"            C += {cost_ns}",
        "            _fb = 0",
    ]


def _inline_map_update(cost_ns: int) -> List[str]:
    """Guarded inline ``bpf_map_update_elem`` for ``ArrayMap``.

    Commits only when the key read, the value read and the index are all
    in bounds; an out-of-range index falls back so the reference raises
    its ``MapError`` verbatim.  The slice assignment is what
    ``ArrayMap.update`` performs on its preallocated slot.
    """
    return [
        "if r1.__class__ is MapRef and r2.__class__ is Pointer and r3.__class__ is Pointer:",
        "    _m = r1.bpf_map",
        "    if _m.__class__ is ArrayMap:",
        "        _d = r2.region.data",
        "        _o = r2.offset",
        "        if 0 <= _o and _o + 4 <= len(_d):",
        "            _i = _ifb(_d[_o:_o + 4], 'little')",
        "            if _i < _m.max_entries:",
        "                _vs = _m.value_size",
        "                _vd = r3.region.data",
        "                _vo = r3.offset",
        "                if 0 <= _vo and _vo + _vs <= len(_vd):",
        "                    _m._slots[_i][:] = _vd[_vo:_vo + _vs]",
        "                    r0 = 0",
        "                    r1 = r2 = r3 = r4 = r5 = None",
        f"                    C += {cost_ns}",
        "                    _fb = 0",
    ]


def _inline_perf_output(cost_ns: int) -> List[str]:
    """Guarded inline ``bpf_perf_event_output``.

    The reference arm ignores r1 (ctx) and r3 (flags) at runtime, so only
    the map, data pointer and size are guarded; the payload is copied to
    ``bytes`` exactly as ``read_mem`` would before the ring takes it.
    """
    return [
        "if r2.__class__ is MapRef and r4.__class__ is Pointer and type(r5) is int:",
        "    _m = r2.bpf_map",
        "    if _m.__class__ is PerfEventArray:",
        "        _d = r4.region.data",
        "        _o = r4.offset",
        "        if 0 <= _o and _o + r5 <= len(_d):",
        f"            r0 = runtime.perf_output(_m, bytes(_d[_o:_o + r5])) & {_MASK64}",
        "            r1 = r2 = r3 = r4 = r5 = None",
        f"            C += {cost_ns}",
        "            _fb = 0",
    ]


#: Map/memory helpers with a guarded inline fast path in the generated
#: source.  Each emitter receives the helper's ``cost_ns`` and returns
#: the lines of its expansion; the generated code falls back to
#: ``call_helper`` (``_fb`` stays truthy) whenever a guard fails, so
#: faults, error returns and exotic argument types reproduce the
#: reference behaviour verbatim.
_INLINE_HELPER_EMITTERS = {
    Helper.MAP_LOOKUP_ELEM: _inline_map_lookup,
    Helper.MAP_UPDATE_ELEM: _inline_map_update,
    Helper.PERF_EVENT_OUTPUT: _inline_perf_output,
}

# Inlining is only legal for helpers DESIGN.md §6 declares safe; catch a
# drifting table at import time rather than as a silent semantics break.
assert (
    set(_INLINE_HELPER_EMITTERS) | set(_PURE_HELPER_EXPRS)
) <= INLINE_SAFE_HELPERS


_ALU_OPS = frozenset(
    (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.DIV, AluOp.MOD, AluOp.OR,
     AluOp.AND, AluOp.XOR, AluOp.LSH, AluOp.RSH, AluOp.ARSH, AluOp.NEG)
)
_JMP_OPS = frozenset(
    (JmpOp.JEQ, JmpOp.JNE, JmpOp.JGT, JmpOp.JGE, JmpOp.JLT, JmpOp.JLE,
     JmpOp.JSET, JmpOp.JSGT, JmpOp.JSGE, JmpOp.JSLT, JmpOp.JSLE)
)


class CompiledProgram:
    """A program translated to one compiled Python function.

    ``fn(ctx_bytes, runtime, insn_cost_ns, scratch)`` returns the
    ``(r0, steps, cost_ns)`` triple; ``source`` keeps the generated text
    for diagnostics and tests, and ``code`` the compiled module code
    object — the piece both translation caches keep (it is marshal-able
    and map-free: every non-constant the generated source touches rides
    in through the exec namespace, never through the code object itself).

    A program with ``fn=None`` is a *template*: the map-free half of a
    translation, shared by every copy of the same instruction blob.
    :meth:`bind` turns it into a runnable program for one set of maps.
    """

    __slots__ = ("fn", "source", "n", "code")

    def __init__(self, fn, source: str, n: int, code=None) -> None:
        self.fn = fn
        self.source = source
        self.n = n
        self.code = code

    def bind(self, insns: Sequence[Insn]) -> Optional["CompiledProgram"]:
        """Execute ``code`` against a namespace rebuilt from ``insns``, so
        the returned program reads and writes the caller's live maps.

        ``insns`` must have the wire encoding this translation was made
        from.  Returns ``None`` when ``insns`` cannot satisfy the
        bindings (see :func:`rebind_namespace`); the caller falls back as
        it would for a program the generator rejects.  This is the one
        bind path of both translation caches: the in-memory hit path and
        the disk cache's load.
        """
        namespace = rebind_namespace(insns)
        if namespace is None:
            return None
        exec(self.code, namespace)  # noqa: S102 - our own codegen output
        return CompiledProgram(namespace["_prog"], self.source, self.n, self.code)


def compile_insns(insns: Sequence[Insn]) -> Optional[CompiledProgram]:
    """Translate a program to a compiled function, or ``None`` if any
    construct is outside the generator's supported subset (the caller
    falls back to the reference :class:`~repro.ebpf.vm.Vm`)."""
    if len(insns) >= MAX_STEPS:
        # Loop-free execution could still exhaust the reference budget;
        # leave that pathology to the reference interpreter.
        return None
    try:
        codegen = _Codegen(insns)
        source = codegen.generate()
    except _Unsupported:
        return None
    namespace = codegen.ns
    code = compile(source, "<ebpf-compiled>", "exec")
    exec(code, namespace)  # noqa: S102
    return CompiledProgram(namespace["_prog"], source, len(insns), code)


#: Static names every generated program's namespace carries (the
#: non-per-pc half of ``_Codegen.ns``); :func:`rebind_namespace` seeds
#: rebuilt namespaces from this template.
_STATIC_NS = {
    "VmFault": VmFault,
    "Pointer": Pointer,
    "MapRef": MapRef,
    "MemRegion": MemRegion,
    "ArrayMap": ArrayMap,
    "PerfEventArray": PerfEventArray,
    "_alu": _REF._alu,
    "_branch": _REF._branch,
    "_load": mem_load,
    "_store": mem_store,
    "_call": call_helper,
    "_ifb": int.from_bytes,
}


def rebind_namespace(insns: Sequence[Insn]) -> Optional[dict]:
    """Rebuild the exec namespace of a generated program from ``insns``.

    The generated source is a pure function of the instruction *wire
    encoding* — map loads compile to ``rN = M<pc>`` with the map object
    living only in the namespace — which is what makes compiled
    translations shareable across cells and processes: both translation
    caches keep the source/code keyed on the wire blob alone, and this
    function re-binds the per-pc names (``I`` insns, ``G`` helper sigs,
    ``Z`` sizes, ``B`` store blobs, ``M`` map refs) against the *caller's*
    live maps.  It deliberately over-binds — a name is bound for every
    pc that could need one, whether or not the generator ended up
    referencing it — so it never has to replicate the generator's
    emission choices.

    Returns ``None`` when ``insns`` cannot satisfy the bindings (an
    unresolved map reference, an unknown helper): the generator would
    reject such a program too.
    """
    ns = dict(_STATIC_NS)
    skip = False
    for pc, insn in enumerate(insns):
        if skip:
            skip = False
            continue
        klass = insn.opcode & 0x07
        ns[f"I{pc}"] = insn
        if klass in (InsnClass.LDX, InsnClass.STX, InsnClass.ST):
            size = MemSize(insn.opcode & 0x18)
            ns[f"Z{pc}"] = size
            if klass == InsnClass.ST:
                nb = size.nbytes
                value = insn.imm & _MASK64
                ns[f"B{pc}"] = (value & ((1 << (8 * nb)) - 1)).to_bytes(nb, "little")
        elif klass == InsnClass.LD:
            if not insn.is_ld_imm64 or pc + 1 >= len(insns):
                return None
            skip = True
            if insn.is_map_load:
                ref = insn.map_ref
                if not isinstance(ref, (BpfMap, RingBuf, PerfEventArray)):
                    return None
                ns[f"M{pc}"] = MapRef(ref)
        elif klass in (InsnClass.JMP, InsnClass.JMP32):
            if (insn.opcode & 0xF0) == JmpOp.CALL:
                sig = HELPER_SIGS.get(insn.imm)
                if sig is None:
                    return None
                ns[f"G{pc}"] = sig
    return ns


# ----------------------------------------------------------------------
# the compiled-tier VM
# ----------------------------------------------------------------------

class CompiledVm(Vm):
    """Drop-in :class:`Vm` executing whole-program translations.

    Bit-for-bit identical to the reference interpreter (enforced by the
    differential suites in ``tests/ebpf/``); programs the code generator
    does not support run on the inherited reference :meth:`Vm.execute`.
    """

    def __init__(self, insn_cost_ns: int = DEFAULT_INSN_COST_NS,
                 cache=None) -> None:
        super().__init__(insn_cost_ns)
        # Imported here: the translation cache module imports this one.
        from .translation import _GLOBAL_CACHE

        self.cache = cache if cache is not None else _GLOBAL_CACHE
        self._scratch: list = [None] * 11
        #: ``id(insns)`` -> ``(insns, bound program or None)``.  Bound
        #: programs belong to the attach site (a VM serves one ``BPF``
        #: object), never to the shared cache, so they die with it.
        self._bound: dict = {}

    def _compiled(self, insns: Sequence[Insn]) -> Optional[CompiledProgram]:
        """``insns``'s translation bound to its maps, once per program."""
        memo = self._bound.get(id(insns))
        if memo is None or memo[0] is not insns:
            memo = self._bound[id(insns)] = (insns, self.cache.get_compiled(insns))
        return memo[1]

    def prepare(self, insns: Sequence[Insn]):
        """Per-program executor with the compiled function bound directly:
        the per-firing path is one Python call plus the VmResult wrap.

        The returned callable carries a ``raw`` attribute —
        ``(fn, insn_cost_ns, scratch)`` — so a hot attach site (the bcc
        probe) can call the compiled function itself and consume the
        bare ``(r0, steps, cost_ns)`` tuple, skipping the per-firing
        VmResult allocation entirely.  ``fn`` requires ``ctx`` to
        already be ``bytes``.
        """
        compiled = self._compiled(insns)
        if compiled is None:
            return super().prepare(insns)
        fn = compiled.fn
        insn_cost_ns = self.insn_cost_ns
        scratch = self._scratch

        def run(ctx: bytes, runtime: Optional[HelperRuntime] = None) -> VmResult:
            if runtime is None:
                runtime = HelperRuntime()
            if type(ctx) is not bytes:
                ctx = bytes(ctx)
            r0, steps, cost = fn(ctx, runtime, insn_cost_ns, scratch)
            return VmResult(r0=r0, steps=steps, cost_ns=cost)

        run.raw = (fn, insn_cost_ns, scratch)
        return run

    def execute(
        self,
        insns: Sequence[Insn],
        ctx: bytes,
        runtime: Optional[HelperRuntime] = None,
    ) -> VmResult:
        compiled = self._compiled(insns)
        if compiled is None:
            return super().execute(insns, ctx, runtime)
        if type(ctx) is not bytes:
            ctx = bytes(ctx)
        r0, steps, cost = compiled.fn(
            ctx, runtime if runtime is not None else HelperRuntime(),
            self.insn_cost_ns, self._scratch,
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
