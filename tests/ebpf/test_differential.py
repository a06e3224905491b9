"""Differential fuzzing: any program the verifier accepts must execute
without faulting — the substrate's version of the kernel's core soundness
contract.

Programs are generated from a constrained vocabulary (register inits, ALU
ops, stack traffic, jump-over-next conditionals) so a useful fraction pass
verification; rejected programs are simply skipped.  Accepted ones run in
the VM over arbitrary context bytes and must terminate cleanly with a
scalar r0.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

# Verifier-rejected programs are discarded via assume(); the rejection rate
# is intentionally high, so silence the filter-rate health check.
_FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

from repro.ebpf import Asm, ProgType, Reg, VerifierError, Vm, VmFault, verify

CTX_SIZE = ProgType.tracepoint_sys_enter().ctx_size

_ALU_IMM = ("add_imm", "sub_imm", "mul_imm", "div_imm", "mod_imm",
            "and_imm", "or_imm", "lsh_imm", "rsh_imm", "arsh_imm")
_ALU_REG = ("add_reg", "sub_reg", "mul_reg", "div_reg", "mod_reg", "xor_reg")
_JMP_IMM = ("jeq_imm", "jne_imm", "jgt_imm", "jge_imm", "jlt_imm",
            "jle_imm", "jsgt_imm", "jslt_imm", "jset_imm")

_reg = st.integers(min_value=0, max_value=9)
_imm = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_shift = st.integers(min_value=0, max_value=63)
_slot = st.integers(min_value=1, max_value=8)  # stack slots fp-8*slot

_op = st.one_of(
    st.tuples(st.just("mov_imm"), _reg, _imm),
    st.tuples(st.just("mov_reg"), _reg, _reg),
    st.tuples(st.sampled_from(_ALU_IMM), _reg, _imm),
    st.tuples(st.sampled_from(_ALU_REG), _reg, _reg),
    st.tuples(st.just("neg"), _reg),
    st.tuples(st.just("wmov_imm"), _reg, _imm),
    st.tuples(st.just("wadd_imm"), _reg, _imm),
    st.tuples(st.just("store"), _reg, _slot),
    st.tuples(st.just("load"), _reg, _slot),
    st.tuples(st.just("ctx_load"), _reg, st.integers(min_value=0, max_value=CTX_SIZE - 8)),
    st.tuples(st.sampled_from(_JMP_IMM), _reg, _imm, st.just("mov_imm"), _reg, _imm),
)


def _build(ops):
    asm = Asm()
    label_counter = 0
    for op in ops:
        name = op[0]
        if name in ("mov_imm", "wmov_imm", "wadd_imm"):
            getattr(asm, name)(op[1], op[2])
        elif name in _ALU_IMM:
            # keep shifts in range; other imms arbitrary
            imm = op[2] & 63 if name in ("lsh_imm", "rsh_imm", "arsh_imm") else op[2]
            getattr(asm, name)(op[1], imm)
        elif name in _ALU_REG or name == "mov_reg":
            getattr(asm, name)(op[1], op[2])
        elif name == "neg":
            asm.neg(op[1])
        elif name == "store":
            from repro.ebpf import MemSize
            asm.stx(MemSize.DW, Reg.R10, -8 * op[2], op[1])
        elif name == "load":
            from repro.ebpf import MemSize
            asm.ldx(MemSize.DW, op[1], Reg.R10, -8 * op[2])
        elif name == "ctx_load":
            from repro.ebpf import MemSize
            asm.ldx(MemSize.DW, op[1], Reg.R1, op[2])
        else:  # conditional jump over exactly one mov
            jmp_name, jreg, jimm, _mname, mreg, mimm = op
            label = f"fuzz_{label_counter}"
            label_counter += 1
            getattr(asm, jmp_name)(jreg, jimm, label)
            asm.mov_imm(mreg, mimm)
            asm.label(label)
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=300, **_FUZZ_SETTINGS)
def test_verified_programs_never_fault(ops, ctx):
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)  # rejected programs are out of scope
    result = Vm().execute(insns, ctx)
    assert isinstance(result.r0, int)
    assert result.steps <= len(insns)  # straight-line-ish: no loops possible


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=150, **_FUZZ_SETTINGS)
def test_vm_is_deterministic(ops, ctx):
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)
    first = Vm().execute(insns, ctx)
    second = Vm().execute(insns, ctx)
    assert first.r0 == second.r0
    assert first.steps == second.steps


def test_acceptance_rate_is_meaningful():
    """Guard against the fuzzer silently testing nothing: a healthy share
    of generated programs must pass verification."""
    import random

    rng = random.Random(0)
    accepted = 0
    total = 200
    for _ in range(total):
        ops = []
        # Seed registers so later reads are initialized.
        for reg in range(5):
            ops.append(("mov_imm", reg, rng.randint(-100, 100)))
        for _ in range(rng.randint(0, 10)):
            kind = rng.choice(["alu", "mov"])
            if kind == "alu":
                ops.append((rng.choice(_ALU_IMM), rng.randint(0, 4),
                            rng.randint(-1000, 1000)))
            else:
                ops.append(("mov_reg", rng.randint(0, 4), rng.randint(0, 4)))
        insns = _build(ops)
        try:
            verify(insns, ProgType.tracepoint_sys_enter())
            accepted += 1
        except VerifierError:
            pass
    assert accepted > total // 2


# ----------------------------------------------------------------------
# typed-generator fuzz: pointers, helpers, maps, JMP32
# ----------------------------------------------------------------------
#
# A second vocabulary aimed at the compiled tier's typed code generator:
# pointer copies with constant arithmetic, loads through a ctx copy,
# clobbering helper calls, ArrayMap and HashMap lookups with a null check
# and an access through the value pointer, map updates, and JMP32.
# Scalars live in r0/r6/r7/r8 and are the only registers a conditional
# path writes, so every path agrees on every register an instruction
# reads: each verified program must compile to typed code.

from repro.ebpf import (  # noqa: E402 - grouped with the vocabulary
    ArrayMap,
    CompiledVm,
    HashMap,
    Helper,
    HelperRuntime,
    JmpOp,
    MapError,
    MemSize,
    TranslationCache,
)

_SCALARS = st.sampled_from((0, 6, 7, 8))
_SIZES = st.sampled_from((MemSize.B, MemSize.H, MemSize.W, MemSize.DW))
_JMP_OPS = (JmpOp.JEQ, JmpOp.JNE, JmpOp.JGT, JmpOp.JGE, JmpOp.JLT, JmpOp.JLE,
            JmpOp.JSET, JmpOp.JSGT, JmpOp.JSGE, JmpOp.JSLT, JmpOp.JSLE)
_VALUE_SIZE = 16

_map_ops = st.one_of(
    # map, key (array keys stay near the 4 slots), move the value
    # pointer by 8 first, store (True) or load, register, 32-bit check,
    # check with != (the null path then adds r0 to the register)
    st.tuples(st.just("lookup"), st.sampled_from(("array", "hash")),
              st.integers(min_value=0, max_value=5), st.booleans(),
              st.booleans(), _SCALARS, st.booleans(), st.booleans()),
    st.tuples(st.just("update"), st.sampled_from(("array", "hash")),
              st.integers(min_value=0, max_value=5), _SCALARS),
)
_pointer_ops = st.one_of(
    # r2 = r10; r2 += -8 * slot, then a store (True) or load through r2
    st.tuples(st.just("stack_ptr"), _slot, _SCALARS, st.booleans()),
    st.tuples(st.just("ctx_copy")),  # r9 = r1
    st.tuples(st.just("ctx_load"), st.sampled_from((1, 9)), _SIZES, _SCALARS,
              st.integers(min_value=0, max_value=CTX_SIZE - 8)),
    st.tuples(st.just("call"), st.sampled_from((Helper.KTIME_GET_NS,
                                                Helper.GET_CURRENT_PID_TGID))),
    st.tuples(st.just("ptr_check"), st.sampled_from((JmpOp.JEQ, JmpOp.JNE)),
              st.sampled_from((1, 10)), _SCALARS, _imm),
)
_scalar_ops = st.one_of(
    st.tuples(st.just("mov_imm"), _SCALARS, _imm),
    st.tuples(st.just("mov_reg"), _SCALARS, _SCALARS),
    st.tuples(st.sampled_from(_ALU_IMM), _SCALARS, _imm),
    st.tuples(st.sampled_from(_ALU_REG), _SCALARS, _SCALARS),
    st.tuples(st.sampled_from(("wmov_imm", "wadd_imm")), _SCALARS, _imm),
    st.tuples(st.just("store"), _SIZES, _slot, _SCALARS),
    st.tuples(st.just("st_imm"), _SIZES, _slot, _imm),
    st.tuples(st.just("load"), _SIZES, _SCALARS, _slot),
    st.tuples(st.just("jmp"), st.booleans(), st.sampled_from(_JMP_OPS),
              _SCALARS, _imm, _SCALARS, _imm),
)
_typed_op = st.one_of(_map_ops, _pointer_ops, _scalar_ops)

#: Register values and stack slots every typed program starts from.
_typed_prefix = st.tuples(st.lists(_imm, min_size=4, max_size=4),
                          st.lists(_imm, min_size=8, max_size=8))


def _typed_maps():
    return {
        "array": ArrayMap(value_size=_VALUE_SIZE, max_entries=4, name="array"),
        "hash": HashMap(key_size=8, value_size=_VALUE_SIZE, max_entries=4, name="hash"),
    }


def _map_bytes(maps):
    return {name: sorted((bytes(k), bytes(v)) for k, v in bpf_map.items())
            for name, bpf_map in maps.items()}


def _build_typed(prefix, ops, maps):
    regs, slots = prefix
    asm = Asm()
    for reg, value in zip((0, 6, 7, 8), regs):
        asm.mov_imm(reg, value)
    for slot, value in enumerate(slots, start=1):
        asm.st_imm(MemSize.DW, Reg.R10, -8 * slot, value)
    labels = iter(range(1 << 20))
    for op in ops:
        name = op[0]
        if name in ("mov_imm", "wmov_imm", "wadd_imm") or name in _ALU_IMM:
            imm = op[2] & 63 if name in ("lsh_imm", "rsh_imm", "arsh_imm") else op[2]
            getattr(asm, name)(op[1], imm)
        elif name == "mov_reg" or name in _ALU_REG:
            getattr(asm, name)(op[1], op[2])
        elif name == "store":
            asm.stx(op[1], Reg.R10, -8 * op[2], op[3])
        elif name == "st_imm":
            asm.st_imm(op[1], Reg.R10, -8 * op[2], op[3])
        elif name == "load":
            asm.ldx(op[1], op[2], Reg.R10, -8 * op[3])
        elif name == "stack_ptr":
            _, slot, reg, store = op
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, -8 * slot)
            if store:
                asm.stx(MemSize.DW, Reg.R2, 0, reg)
            else:
                asm.ldx(MemSize.DW, reg, Reg.R2, 0)
        elif name == "ctx_copy":
            asm.mov_reg(Reg.R9, Reg.R1)
        elif name == "ctx_load":
            _, base, size, reg, off = op
            asm.ldx(size, reg, base, off)
        elif name == "call":
            asm.call(op[1])
        elif name == "lookup":
            _, kind, key, move, store, reg, is32, jne = op
            if kind == "array":
                asm.st_imm(MemSize.W, Reg.R10, -8, key)
            else:
                asm.st_imm(MemSize.DW, Reg.R10, -8, key)
            asm.ld_map_fd(Reg.R1, maps[kind])
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, -8)
            asm.call(Helper.MAP_LOOKUP_ELEM)
            label = f"null_{next(labels)}"
            if jne:
                asm._jmp(JmpOp.JNE, f"{label}_hit", Reg.R0, imm=0, is32=is32)
                asm.add_reg(reg, Reg.R0)  # r0 is scalar 0 on this path
                asm.ja(label)
                asm.label(f"{label}_hit")
            else:
                asm._jmp(JmpOp.JEQ, label, Reg.R0, imm=0, is32=is32)
            off = 0 if move else 8
            if move:
                asm.add_imm(Reg.R0, 8)
            if store:
                asm.stx(MemSize.DW, Reg.R0, off, reg)
            else:
                asm.ldx(MemSize.DW, reg, Reg.R0, off)
            asm.label(label)
            asm.mov_imm(Reg.R0, 0)
        elif name == "update":
            _, kind, key, reg = op
            if kind == "array":
                asm.st_imm(MemSize.W, Reg.R10, -8, key)
            else:
                asm.st_imm(MemSize.DW, Reg.R10, -8, key)
            asm.stx(MemSize.DW, Reg.R10, -24, reg)
            asm.ld_map_fd(Reg.R1, maps[kind])
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, -8)
            asm.mov_reg(Reg.R3, Reg.R10)
            asm.add_imm(Reg.R3, -24)
            asm.mov_imm(Reg.R4, 0)
            asm.call(Helper.MAP_UPDATE_ELEM)
        elif name == "jmp":
            _, is32, jop, jreg, jimm, mreg, mimm = op
            label = f"over_{next(labels)}"
            asm._jmp(jop, label, jreg, imm=jimm, is32=is32)
            asm.mov_imm(mreg, mimm)
            asm.label(label)
        else:  # ptr_check: a proven pointer null-checked over one mov
            _, jop, preg, mreg, mimm = op
            label = f"ptr_{next(labels)}"
            asm._jmp(jop, label, preg, imm=0)
            asm.mov_imm(mreg, mimm)
            asm.label(label)
    asm.mov_reg(Reg.R0, Reg.R6)
    asm.add_reg(Reg.R0, Reg.R7)
    asm.exit_()
    return asm.build()


def _typed_outcome(vm, prefix, ops, ctx):
    """Two runs of one verified program on ``vm`` with fresh maps: the
    triples (or MapError message) and the final map bytes; ``None`` when
    the verifier rejects the program."""
    maps = _typed_maps()
    insns = _build_typed(prefix, ops, maps)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        return None
    runs = []
    for ktime in (1_000, 2_000_000):
        runtime = HelperRuntime(ktime_ns=ktime, pid_tgid=(77 << 32) | 78)
        try:
            result = vm.execute(insns, ctx, runtime)
            runs.append((result.r0, result.steps, result.cost_ns))
        except MapError as error:
            runs.append(("MapError", str(error)))
    return runs, _map_bytes(maps)


@given(prefix=_typed_prefix, ops=st.lists(_typed_op, min_size=1, max_size=20),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=300, **_FUZZ_SETTINGS)
def test_typed_code_matches_reference(prefix, ops, ctx):
    """Verified pointer/helper/map/JMP32 programs run as typed code on the
    compiled tier — never declined — with the reference's triples, map
    errors and final map bytes, run after run on one bound stack."""
    reference = _typed_outcome(Vm(), prefix, ops, ctx)
    assume(reference is not None)
    cache = TranslationCache()
    assert _typed_outcome(CompiledVm(cache=cache), prefix, ops, ctx) == reference
    assert cache.translations == 1 and cache.declined == 0
