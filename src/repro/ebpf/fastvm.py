"""Pre-decoded fast path for the eBPF interpreter.

:class:`~repro.ebpf.vm.Vm` re-derives the instruction class, operand
source, and helper signature of every instruction on every step — fine
for a reference implementation, but it is the hot path under every
simulated syscall of every experiment cell.  This module performs a
one-time translation pass over a program: each :class:`Insn` becomes a
specialized micro-op closure with its registers, masked immediates,
jump targets, fused ``ld_imm64`` constants, map references, and helper
signatures already resolved.  The dispatch loop then just indexes a
tuple::

    pc = ops[pc](regs, pc, frame)

Translations are cached per program (keyed on the instruction blob and
the identity of referenced maps) so `BPF`/`Kernel` attach sites reuse
them across millions of firings.

Semantics contract: the fast path must be **bit-for-bit identical** to
``Vm.execute`` — same ``(r0, steps, cost_ns)``, same map mutations, same
fault messages.  Every micro-op therefore handles only the plain-integer
(or pointer, where profitable) common case inline and falls back to the
reference ``_alu``/``_branch``/``mem_load``/``mem_store`` routines for
anything exotic, so uncommon cases share the reference code path rather
than re-implementing it.  The cost model is shared outright:
instructions are counted by the loop exactly as the reference counts
them, and helper costs come from the same :func:`~repro.ebpf.vm.call_helper`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from .errors import VmFault
from .helpers import HELPER_SIGS, HelperRuntime
from .insn import Insn, encode
from .maps import BpfMap, PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp, MemSize, Reg
from .vm import (
    DEFAULT_INSN_COST_NS,
    MAX_STEPS,
    STACK_SIZE,
    MapRef,
    MemRegion,
    Pointer,
    RegValue,
    Vm,
    VmResult,
    _to_signed,
    call_helper,
    mem_load,
    mem_store,
)

__all__ = [
    "FastVm",
    "DecodedProgram",
    "TranslationCache",
    "decode_program",
    "translate",
    "translation_cache_stats",
    "clear_translation_cache",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

#: Reference interpreter instance the micro-ops delegate to for every
#: non-fast case (pointer arithmetic oddities, uninitialized registers,
#: faults).  ``_alu``/``_branch`` are stateless, so sharing one is safe.
_REF = Vm()

#: Sentinel marking "program has not reached EXIT" in the execution frame.
_UNSET = object()


def _sx32(value: int) -> int:
    return value - ((value & 0x80000000) << 1)


def _sx64(value: int) -> int:
    return value - ((value & 0x8000000000000000) << 1)


# ----------------------------------------------------------------------
# micro-op factories
#
# The int/int case of every ALU and JMP op is generated with ``exec`` so
# the operator itself is inlined into the closure body (no per-step table
# lookup or lambda call).  Each factory bakes registers, masked
# immediates, and jump targets into closure cells.
# ----------------------------------------------------------------------

_ALU_EXPR = {
    AluOp.ADD: "a + b",
    AluOp.SUB: "a - b",
    AluOp.MUL: "a * b",
    AluOp.DIV: "(a // b) if b else 0",
    AluOp.MOD: "(a % b) if b else a",
    AluOp.OR: "a | b",
    AluOp.AND: "a & b",
    AluOp.XOR: "a ^ b",
    AluOp.LSH: "a << (b & SHIFT)",
    AluOp.RSH: "a >> (b & SHIFT)",
    AluOp.ARSH: "SX(a) >> (b & SHIFT)",
    AluOp.NEG: "-a",
}

# (immediate-operand condition, register-operand condition)
_JMP_EXPR = {
    JmpOp.JEQ: ("a == B", "a == b"),
    JmpOp.JNE: ("a != B", "a != b"),
    JmpOp.JGT: ("a > B", "a > b"),
    JmpOp.JGE: ("a >= B", "a >= b"),
    JmpOp.JLT: ("a < B", "a < b"),
    JmpOp.JLE: ("a <= B", "a <= b"),
    JmpOp.JSET: ("a & B", "a & b"),
    JmpOp.JSGT: ("SX(a) > SB", "SX(a) > SX(b)"),
    JmpOp.JSGE: ("SX(a) >= SB", "SX(a) >= SX(b)"),
    JmpOp.JSLT: ("SX(a) < SB", "SX(a) < SX(b)"),
    JmpOp.JSLE: ("SX(a) <= SB", "SX(a) <= SX(b)"),
}

_ALU_IMM_SRC = """
def make(DST, B, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        if type(a) is int:
            a &= MASK
            b = B
            regs[DST] = ({EXPR}) & MASK
            return NXT
        _REF._alu(insn, regs, IS64)
        return NXT
    return step
"""

# ADD/SUB with an immediate also get an inline pointer case: stack/map
# pointer bumps (``r2 = r10; r2 += -8``) fire on every probe invocation.
_ALU_PTR_IMM_SRC = """
def make(DST, B, DELTA, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        if type(a) is int:
            a &= MASK
            b = B
            regs[DST] = ({EXPR}) & MASK
            return NXT
        if a.__class__ is Pointer:
            regs[DST] = Pointer(a.region, a.offset + DELTA)
            return NXT
        _REF._alu(insn, regs, IS64)
        return NXT
    return step
"""

_ALU_REG_SRC = """
def make(DST, SRC, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        b = regs[SRC]
        if type(a) is int and type(b) is int:
            a &= MASK
            b &= MASK
            regs[DST] = ({EXPR}) & MASK
            return NXT
        _REF._alu(insn, regs, IS64)
        return NXT
    return step
"""

_JMP_IMM_SRC = """
def make(DST, B, SB, TGT, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        if type(a) is int:
            a &= MASK
            return TGT if ({COND}) else NXT
        return TGT if _REF._branch(insn, regs, IS32) else NXT
    return step
"""

_JMP_REG_SRC = """
def make(DST, SRC, TGT, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        b = regs[SRC]
        if type(a) is int and type(b) is int:
            a &= MASK
            b &= MASK
            return TGT if ({COND}) else NXT
        return TGT if _REF._branch(insn, regs, IS32) else NXT
    return step
"""

# JEQ/JNE against immediate 0 is the null-check after map_lookup_elem —
# inline the pointer answer (a pointer never equals scalar 0).
_JMP_NULL_SRC = """
def make(DST, TGT, NXT, insn):
    def step(regs, pc, frame):
        a = regs[DST]
        if type(a) is int:
            a &= MASK
            return TGT if ({COND}) else NXT
        cls = a.__class__
        if cls is Pointer or cls is MapRef:
            return {PTR_RESULT}
        return TGT if _REF._branch(insn, regs, IS32) else NXT
    return step
"""


def _compile_factory(source: str, namespace: dict):
    scope = dict(namespace)
    exec(source, scope)  # noqa: S102 - building specialized closures
    return scope["make"]


def _build_factories():
    alu = {}
    for is64 in (False, True):
        ns = {
            "MASK": _MASK64 if is64 else _MASK32,
            "SHIFT": 63 if is64 else 31,
            "SX": _sx64 if is64 else _sx32,
            "IS64": is64,
            "_REF": _REF,
            "Pointer": Pointer,
        }
        imm, imm_ptr, reg = {}, {}, {}
        for op, expr in _ALU_EXPR.items():
            if op in (AluOp.ADD, AluOp.SUB):
                imm_ptr[op] = _compile_factory(
                    _ALU_PTR_IMM_SRC.replace("{EXPR}", expr), ns)
            else:
                imm[op] = _compile_factory(_ALU_IMM_SRC.replace("{EXPR}", expr), ns)
            reg[op] = _compile_factory(_ALU_REG_SRC.replace("{EXPR}", expr), ns)
        alu[is64] = {"imm": imm, "imm_ptr": imm_ptr, "reg": reg}

    jmp = {}
    for is32 in (False, True):
        ns = {
            "MASK": _MASK32 if is32 else _MASK64,
            "SX": _sx32 if is32 else _sx64,
            "IS32": is32,
            "_REF": _REF,
            "Pointer": Pointer,
            "MapRef": MapRef,
        }
        imm, reg = {}, {}
        for op, (cond_imm, cond_reg) in _JMP_EXPR.items():
            imm[op] = _compile_factory(_JMP_IMM_SRC.replace("{COND}", cond_imm), ns)
            reg[op] = _compile_factory(_JMP_REG_SRC.replace("{COND}", cond_reg), ns)
        null = {
            JmpOp.JEQ: _compile_factory(
                _JMP_NULL_SRC.replace("{COND}", "a == 0").replace("{PTR_RESULT}", "NXT"), ns),
            JmpOp.JNE: _compile_factory(
                _JMP_NULL_SRC.replace("{COND}", "a != 0").replace("{PTR_RESULT}", "TGT"), ns),
        }
        jmp[is32] = {"imm": imm, "reg": reg, "null": null}
    return alu, jmp


_ALU_FACTORIES, _JMP_FACTORIES = _build_factories()


# ----------------------------------------------------------------------
# translation
# ----------------------------------------------------------------------

def _make_fault(message: str):
    def step(regs, pc, frame):
        raise VmFault(message)
    return step


def _make_ref_alu(insn: Insn, is64: bool, nxt: int):
    def step(regs, pc, frame):
        _REF._alu(insn, regs, is64)
        return nxt
    return step


def _make_ref_jmp(insn: Insn, is32: bool, tgt: int, nxt: int):
    def step(regs, pc, frame):
        return tgt if _REF._branch(insn, regs, is32) else nxt
    return step


def _translate_alu(insn: Insn, nxt: int, is64: bool):
    op = insn.opcode & 0xF0
    mask = _MASK64 if is64 else _MASK32
    dst = insn.dst
    if op == AluOp.MOV:
        if not insn.uses_reg_source:
            value = insn.imm & mask
            def step(regs, pc, frame):
                regs[dst] = value
                return nxt
            return step
        src = insn.src
        def step(regs, pc, frame):
            v = regs[src]
            if type(v) is int:
                regs[dst] = v & mask
            else:
                cls = v.__class__
                if cls is Pointer or cls is MapRef:
                    regs[dst] = v
                elif v is None:
                    raise VmFault(f"mov from uninitialized r{src}")
                else:
                    regs[dst] = v & mask
            return nxt
        return step

    factories = _ALU_FACTORIES[is64]
    if insn.uses_reg_source:
        make = factories["reg"].get(op)
        if make is None:
            return _make_ref_alu(insn, is64, nxt)
        return make(dst, insn.src, nxt, insn)
    b = insn.imm & mask
    make = factories["imm_ptr"].get(op)
    if make is not None:
        delta = _to_signed(b, 64)
        if op == AluOp.SUB:
            delta = -delta
        return make(dst, b, delta, nxt, insn)
    make = factories["imm"].get(op)
    if make is None:
        return _make_ref_alu(insn, is64, nxt)
    return make(dst, b, nxt, insn)


def _translate_jmp(insn: Insn, pc: int, is32: bool):
    op = insn.opcode & 0xF0
    nxt = pc + 1
    if op == JmpOp.CALL:
        sig = HELPER_SIGS.get(insn.imm)
        if sig is None:
            return _make_fault(f"unknown helper id {insn.imm}")
        def step(regs, _pc, frame):
            frame[0] += call_helper(sig, regs, frame[1])
            return nxt
        return step
    if op == JmpOp.EXIT:
        def step(regs, _pc, frame):
            r0 = regs[0]
            if not isinstance(r0, int):
                raise VmFault(f"exit with non-scalar r0 {r0!r}")
            frame[2] = r0
            return -1
        return step
    tgt = pc + 1 + insn.off
    if op == JmpOp.JA:
        def step(regs, _pc, frame):
            return tgt
        return step
    factories = _JMP_FACTORIES[is32]
    if insn.uses_reg_source:
        make = factories["reg"].get(op)
        if make is None:
            return _make_ref_jmp(insn, is32, tgt, nxt)
        return make(insn.dst, insn.src, tgt, nxt, insn)
    mask = _MASK32 if is32 else _MASK64
    b = insn.imm & mask
    if b == 0 and op in (JmpOp.JEQ, JmpOp.JNE):
        return factories["null"][op](insn.dst, tgt, nxt, insn)
    make = factories["imm"].get(op)
    if make is None:
        return _make_ref_jmp(insn, is32, tgt, nxt)
    sb = _to_signed(b, 32 if is32 else 64)
    return make(insn.dst, b, sb, tgt, nxt, insn)


def _translate_ldx(insn: Insn, nxt: int):
    dst, src, off = insn.dst, insn.src, insn.off
    size = MemSize(insn.opcode & 0x18)
    nb = size.nbytes
    from_bytes = int.from_bytes
    def step(regs, pc, frame):
        ptr = regs[src]
        if ptr.__class__ is Pointer:
            start = ptr.offset + off
            data = ptr.region.data
            if 0 <= start and start + nb <= len(data):
                regs[dst] = from_bytes(data[start:start + nb], "little")
                return nxt
        regs[dst] = mem_load(regs[src], off, size)  # replays the exact fault
        return nxt
    return step


def _translate_stx(insn: Insn, nxt: int):
    dst, src, off = insn.dst, insn.src, insn.off
    size = MemSize(insn.opcode & 0x18)
    nb = size.nbytes
    vmask = (1 << (8 * nb)) - 1
    def step(regs, pc, frame):
        value = regs[src]
        if value.__class__ is int:
            ptr = regs[dst]
            if ptr.__class__ is Pointer:
                region = ptr.region
                if region.writable:
                    start = ptr.offset + off
                    data = region.data
                    if 0 <= start and start + nb <= len(data):
                        data[start:start + nb] = (value & vmask).to_bytes(nb, "little")
                        return nxt
            mem_store(regs[dst], off, size, value)  # replays the exact fault
            return nxt
        if not isinstance(value, int):
            raise VmFault(f"store of non-scalar {value!r}")
        mem_store(regs[dst], off, size, value)
        return nxt
    return step


def _translate_st(insn: Insn, nxt: int):
    dst, off = insn.dst, insn.off
    size = MemSize(insn.opcode & 0x18)
    nb = size.nbytes
    value = insn.imm & _MASK64
    blob = (value & ((1 << (8 * nb)) - 1)).to_bytes(nb, "little")
    def step(regs, pc, frame):
        ptr = regs[dst]
        if ptr.__class__ is Pointer:
            region = ptr.region
            if region.writable:
                start = ptr.offset + off
                data = region.data
                if 0 <= start and start + nb <= len(data):
                    data[start:start + nb] = blob
                    return nxt
        mem_store(regs[dst], off, size, value)  # replays the exact fault
        return nxt
    return step


def _translate_ld(insns: Sequence[Insn], insn: Insn, pc: int, n: int):
    if not insn.is_ld_imm64 or pc + 1 >= n:
        return _make_fault(f"unsupported LD insn {insn!r}")
    dst = insn.dst
    skip = pc + 2
    if insn.is_map_load:
        ref = insn.map_ref
        if not isinstance(ref, (BpfMap, RingBuf, PerfEventArray)):
            return _make_fault(f"unresolved map reference {ref!r}")
        # MapRef is immutable and compared only by null-check, so one
        # shared instance per translation is indistinguishable from the
        # reference's per-execution allocation.
        map_ref = MapRef(ref)
        def step(regs, _pc, frame):
            regs[dst] = map_ref
            return skip
        return step
    value = ((insns[pc + 1].imm & _MASK32) << 32) | (insn.imm & _MASK32)
    def step(regs, _pc, frame):
        regs[dst] = value
        return skip
    return step


def _translate_one(insns: Sequence[Insn], pc: int, n: int):
    insn = insns[pc]
    klass = insn.opcode & 0x07
    nxt = pc + 1
    if klass == InsnClass.ALU or klass == InsnClass.ALU64:
        return _translate_alu(insn, nxt, klass == InsnClass.ALU64)
    if klass == InsnClass.LDX:
        return _translate_ldx(insn, nxt)
    if klass == InsnClass.STX:
        return _translate_stx(insn, nxt)
    if klass == InsnClass.ST:
        return _translate_st(insn, nxt)
    if klass == InsnClass.LD:
        return _translate_ld(insns, insn, pc, n)
    if klass == InsnClass.JMP or klass == InsnClass.JMP32:
        return _translate_jmp(insn, pc, klass == InsnClass.JMP32)
    return _make_fault(f"unknown instruction class {klass}")  # pragma: no cover


class DecodedProgram:
    """A translated program: one micro-op closure per instruction slot.

    The second slot of a fused ``ld_imm64`` pair keeps its own micro-op
    (an "unsupported LD" fault, exactly as the reference treats a jump
    into the middle of the pair), so every pc remains a valid index.
    """

    __slots__ = ("ops", "n")

    def __init__(self, ops: Tuple) -> None:
        self.ops = ops
        self.n = len(ops)

    def __len__(self) -> int:
        return self.n


def translate(insns: Sequence[Insn]) -> DecodedProgram:
    """One-time translation of an instruction stream into micro-ops."""
    n = len(insns)
    return DecodedProgram(tuple(_translate_one(insns, pc, n) for pc in range(n)))


# ----------------------------------------------------------------------
# translation cache
# ----------------------------------------------------------------------

#: Cached marker for programs the compiled-tier generator rejected, so
#: the (cheap but not free) unsupported-construct scan runs only once.
_UNSUPPORTED = object()

#: ``compile_insns`` resolved on first use (repro.ebpf.compiled imports
#: this module, so a top-level import would be circular) and memoized so
#: the hot path never re-enters importlib.
_compile_insns = None


class TranslationCache:
    """Blob-keyed cache of per-tier program translations.

    One cache serves both accelerated tiers — ``"fast"`` entries hold
    :class:`DecodedProgram` micro-op lists, ``"compiled"`` entries hold
    map-free templates of whole-program functions from
    :mod:`repro.ebpf.compiled` — and the two tiers' entries age in one
    LRU (``max_entries``).

    **Compiled tier: one map-free key, one bind path.**  Entries are
    keyed on ``(wire encoding, "compiled")`` — the content key the disk
    cache uses too — and hold only the template (source and code object,
    or the ``_UNSUPPORTED`` verdict).  :meth:`get_compiled` binds the
    template to the caller's live maps with
    :meth:`~repro.ebpf.compiled.CompiledProgram.bind` on every call, so
    every cell that loads a program after the first one translates
    nothing, and the cache never keeps a cell's maps alive.  Callers
    that execute one program many times hold on to the bound result (as
    :class:`~repro.ebpf.compiled.CompiledVm` does per attach site).

    **Fast tier: map identities in the key.**  Micro-op closures capture
    map objects, so entries are keyed on ``(wire encoding, map
    identities, "fast")``; an entry keeps its maps alive, which also
    guarantees their ``id``\\ s cannot be recycled while it exists.  An
    identity memo (``id(insns)`` → entry) makes the steady state — the
    same ``Program.insns`` list executed millions of times through
    :meth:`FastVm.execute` — a single dict probe.

    ``disk`` optionally attaches a cross-process backend (in practice a
    :class:`repro.ebpf.diskcache.DiskCodeCache`, duck-typed so this
    module never imports it): an in-memory content miss consults
    ``disk.load(insns, tier)`` before translating, and a fresh
    translation is offered to ``disk.store`` so the next process starts
    warm.
    """

    def __init__(self, max_entries: int = 256, disk=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: content key → fast-tier translation, or compiled-tier template
        #: (or the ``_UNSUPPORTED`` marker).
        self._by_blob: "OrderedDict[tuple, object]" = OrderedDict()
        #: Fast tier only: ``id(insns)`` → ``[insns, translation, content
        #: key, hit-since-last-purge flag]``.
        self._by_seq: dict = {}
        self.disk = disk
        self.hits = 0
        self.misses = 0
        #: Translations actually performed (in-memory and disk both missed).
        self.translations = 0
        #: Wall time spent inside ``translate_fn`` (the amortization metric).
        self.translate_ns = 0

    def _miss(self, insns: Sequence[Insn], tier: str, translate_fn):
        """An in-memory content miss: the disk entry, else a fresh
        translation (offered to the disk for the next process)."""
        self.misses += 1
        entry = self.disk.load(insns, tier) if self.disk is not None else None
        if entry is None:
            start = time.perf_counter_ns()
            entry = translate_fn(insns)
            self.translate_ns += time.perf_counter_ns() - start
            self.translations += 1
            if self.disk is not None:
                self.disk.store(insns, tier, entry)
        return entry

    def _remember(self, key: tuple, entry) -> None:
        self._by_blob[key] = entry
        while len(self._by_blob) > self.max_entries:
            self._by_blob.popitem(last=False)

    def _purge_seq_memos(self) -> None:
        """Shed cold identity memos without touching the hot ones.

        A memo is *live* while its translation is still in ``_by_blob``
        — those are the attach sites the memo layer exists for, and
        evicting them mid-run (as the old wholesale ``clear()`` did) put
        a content-key probe back on every subsequent firing until
        re-memoized.  Memos whose blob entry aged out of the LRU are dead
        weight and dropped.  If that alone does not get under budget
        (many distinct list objects of the same live content), a
        second-chance pass drops memos not hit since the previous purge,
        so steadily-firing attach sites always survive.
        """
        by_blob = self._by_blob
        live = {
            seq_id: memo
            for seq_id, memo in self._by_seq.items()
            if memo[2] in by_blob
        }
        if len(live) > 4 * self.max_entries:
            live = {
                seq_id: memo for seq_id, memo in live.items() if memo[3]
            }
        for memo in live.values():
            memo[3] = False
        self._by_seq = live

    def get(self, insns: Sequence[Insn]) -> DecodedProgram:
        """The fast-tier (micro-op) translation of ``insns``."""
        memo = self._by_seq.get(id(insns))
        if memo is not None and memo[0] is insns:
            self.hits += 1
            memo[3] = True
            return memo[1]
        key = (
            encode(insns),
            tuple(id(i.map_ref) for i in insns if i.map_ref is not None),
            "fast",
        )
        entry = self._by_blob.get(key)
        if entry is None:
            entry = self._miss(insns, "fast", translate)
            self._remember(key, entry)
        else:
            self.hits += 1
        if len(self._by_seq) > 4 * self.max_entries:
            self._purge_seq_memos()
        self._by_seq[id(insns)] = [insns, entry, key, True]
        return entry

    def get_compiled(self, insns: Sequence[Insn]):
        """The compiled-tier translation of ``insns``, bound to the maps
        ``insns`` references, or ``None`` when the program is outside the
        code generator's subset (that verdict is cached too)."""
        global _compile_insns
        if _compile_insns is None:
            from .compiled import compile_insns

            _compile_insns = compile_insns
        key = (encode(insns), "compiled")
        template = self._by_blob.get(key)
        if template is not None:
            self.hits += 1
            return None if template is _UNSUPPORTED else template.bind(insns)
        program = self._miss(
            insns, "compiled", lambda seq: _compile_insns(seq) or _UNSUPPORTED,
        )
        if program is _UNSUPPORTED:
            self._remember(key, program)
            return None
        # Keep the template only: the bound function's globals hold the
        # caller's maps.
        self._remember(key, type(program)(None, program.source, program.n, program.code))
        return program

    def clear(self) -> None:
        self._by_blob.clear()
        self._by_seq.clear()
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.translate_ns = 0

    def stats(self) -> dict:
        stats = {
            "entries": len(self._by_blob),
            "hits": self.hits,
            "misses": self.misses,
            "translations": self.translations,
            "translate_ns": self.translate_ns,
        }
        if self.disk is not None:
            stats["disk"] = self.disk.stats()
        return stats

    def __len__(self) -> int:
        return len(self._by_blob)


_GLOBAL_CACHE = TranslationCache()


def decode_program(insns: Sequence[Insn],
                   cache: Optional[TranslationCache] = None) -> DecodedProgram:
    """Translate ``insns`` through the (default: global) cache."""
    return (cache or _GLOBAL_CACHE).get(insns)


def translation_cache_stats() -> dict:
    """Hit/miss/entry counters of the process-wide translation cache."""
    return _GLOBAL_CACHE.stats()


def clear_translation_cache() -> None:
    _GLOBAL_CACHE.clear()


# ----------------------------------------------------------------------
# the fast interpreter
# ----------------------------------------------------------------------

class FastVm(Vm):
    """Drop-in :class:`Vm` that executes pre-decoded micro-ops.

    Produces results bit-for-bit identical to the reference interpreter
    (enforced by the differential suite in ``tests/ebpf/test_fastvm.py``)
    while dispatching instructions several times faster.
    """

    def __init__(self, insn_cost_ns: int = DEFAULT_INSN_COST_NS,
                 cache: Optional[TranslationCache] = None) -> None:
        super().__init__(insn_cost_ns)
        self.cache = cache if cache is not None else _GLOBAL_CACHE

    def prepare(self, insns: Sequence[Insn]):
        """Per-program executor with the translation resolved up front, so
        each firing skips the cache probe entirely."""
        ops_holder = self.cache.get(insns)
        run_decoded = self._run_decoded

        def run(ctx: bytes, runtime: Optional[HelperRuntime] = None) -> VmResult:
            return run_decoded(ops_holder, ctx, runtime)

        return run

    def execute(
        self,
        insns: Sequence[Insn],
        ctx: bytes,
        runtime: Optional[HelperRuntime] = None,
    ) -> VmResult:
        return self._run_decoded(self.cache.get(insns), ctx, runtime)

    def _run_decoded(
        self,
        ops_holder: DecodedProgram,
        ctx: bytes,
        runtime: Optional[HelperRuntime] = None,
    ) -> VmResult:
        runtime = runtime or HelperRuntime()
        stack = MemRegion("stack", bytearray(STACK_SIZE), writable=True)
        ctx_region = MemRegion("ctx", bytes(ctx), writable=False)

        regs: List[RegValue] = [None] * 11
        regs[Reg.R1] = Pointer(ctx_region, 0)
        regs[Reg.R10] = Pointer(stack, STACK_SIZE)

        # frame = [helper_cost_ns, runtime, r0-at-exit]
        frame: list = [0, runtime, _UNSET]
        ops = ops_holder.ops
        n = ops_holder.n
        pc = 0
        steps = 0
        max_steps = MAX_STEPS
        while 0 <= pc < n:
            steps += 1
            if steps > max_steps:
                raise VmFault("instruction budget exhausted (runaway program)")
            pc = ops[pc](regs, pc, frame)
        r0 = frame[2]
        if r0 is _UNSET:
            raise VmFault(f"pc {pc} out of program bounds")
        return VmResult(r0=r0, steps=steps, cost_ns=frame[0] + steps * self.insn_cost_ns)
