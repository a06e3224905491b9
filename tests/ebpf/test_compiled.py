"""Differential suite for the compiled VM tier.

The three tiers — reference interpreter (:class:`Vm`), pre-decoded
closures (:class:`FastVm`), whole-program translation
(:class:`CompiledVm`) — must be observationally indistinguishable: the
same ``(r0, steps, cost_ns)`` triple per invocation, the same map
contents afterwards, and the same :class:`VmFault` message when a
program dies.  This file proves it three ways: the real collector
corpus, hypothesis-fuzzed programs (verified *and* faulting), and a
table of hand-crafted fault shapes.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.collectors import (
    _DELTA_VALUE_SIZE,
    _DUR_VALUE_SIZE,
    build_delta_program,
    build_duration_programs,
)
from repro.core.streaming import build_streaming_program
from repro.ebpf import (
    ArrayMap,
    Asm,
    CompiledVm,
    FastVm,
    HashMap,
    HelperRuntime,
    MemSize,
    PerfEventArray,
    ProgType,
    Reg,
    TranslationCache,
    VerifierError,
    Vm,
    VmFault,
    compile_insns,
    make_vm,
    pack_sys_enter,
    pack_sys_exit,
    verify,
)
from repro.ebpf.compiled import DEFAULT_VM_TIER, VM_TIERS
from repro.kernel.tracepoints import SysEnterCtx, SysExitCtx

from .test_differential import CTX_SIZE, _build, _op

TGID = 4242
PID_TGID = (TGID << 32) | TGID

_FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _fresh_tiers():
    """One VM per tier, each with private caches so runs never share state."""
    return {
        "reference": Vm(),
        "fast": FastVm(cache=TranslationCache()),
        "compiled": CompiledVm(cache=TranslationCache()),
    }


def _outcome(vm, insns, ctx, runtime=None):
    """Normal result or fault, as a comparable value."""
    try:
        result = vm.execute(insns, ctx, runtime)
        return ("ok", result.r0, result.steps, result.cost_ns)
    except VmFault as fault:
        return ("fault", str(fault))


# ----------------------------------------------------------------------
# real-program corpus: the paper's collectors, all three tiers
# ----------------------------------------------------------------------

def _map_state(bpf_map):
    if isinstance(bpf_map, HashMap):
        return dict(bpf_map.items_int())
    if isinstance(bpf_map, ArrayMap):
        return [bytes(bpf_map.lookup(bpf_map.key_of(i)))
                for i in range(bpf_map.max_entries)]
    return bpf_map.poll()  # PerfEventArray


def _enter_seq(count=40, seed=0):
    rng = random.Random(seed)
    t = 1_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid,
                                   syscall_nr=rng.choice([0, 1, 44, 232]),
                                   ktime_ns=t))
        t += rng.randint(1, 50_000)
    return firings


def _enter_exit_seq(count=40, seed=1, nr=232):
    rng = random.Random(seed)
    t = 5_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.85 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid, syscall_nr=nr, ktime_ns=t))
        t += rng.randint(10, 80_000)
        firings.append(SysExitCtx(pid_tgid=pid_tgid, syscall_nr=nr, ret=0,
                                  ktime_ns=t))
        t += rng.randint(10, 20_000)
    return firings


def _corpus_cases():
    """(name, build) pairs; build() -> (programs, maps, firings)."""

    def delta():
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = (build_delta_program("state", TGID, [0, 1])
                   .resolve_maps({"state": state}).verify())
        return [program], {"state": state}, _enter_seq()

    def duration():
        start = HashMap(key_size=8, value_size=8, max_entries=64, name="start")
        state = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state")
        maps = {"start": start, "state": state}
        enter, exit_ = build_duration_programs("start", "state", TGID, [232])
        programs = [p.resolve_maps(maps).verify() for p in (enter, exit_)]
        return programs, maps, _enter_exit_seq()

    def streaming():
        events = PerfEventArray(cpus=2, name="events")
        program = (build_streaming_program("events", TGID, [0, 44])
                   .resolve_maps({"events": events}).verify())
        return [program], {"events": events}, _enter_seq(seed=3)

    return [("delta", delta), ("duration", duration), ("streaming", streaming)]


def _dispatch(programs, ctx):
    enter = isinstance(ctx, SysEnterCtx)
    wanted = (ProgType.tracepoint_sys_enter() if enter
              else ProgType.tracepoint_sys_exit()).name
    return [p for p in programs if p.prog_type.name == wanted]


@pytest.mark.parametrize("name,build", _corpus_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_identical_across_three_tiers(name, build):
    """Every firing's (r0, steps, cost_ns) and the final map contents must
    match across all three tiers on the paper's real collector programs."""
    outcomes = {}
    for tier, vm in _fresh_tiers().items():
        programs, maps, firings = build()
        per_firing = []
        for ctx in firings:
            blob = (pack_sys_enter(ctx) if isinstance(ctx, SysEnterCtx)
                    else pack_sys_exit(ctx))
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns,
                                    pid_tgid=ctx.pid_tgid, cpu_id=0)
            for program in _dispatch(programs, ctx):
                result = vm.execute(program.insns, blob, runtime)
                per_firing.append((result.r0, result.steps, result.cost_ns))
        outcomes[tier] = (per_firing,
                          {n: _map_state(m) for n, m in maps.items()})
    assert outcomes["reference"] == outcomes["fast"] == outcomes["compiled"]


def test_collector_programs_do_not_fall_back():
    """The collectors are the hot path; the compiled tier must actually
    compile them, not silently serve them through the FastVm fallback."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0, 1])
               .resolve_maps({"state": state}).verify())
    assert compile_insns(program.insns) is not None

    start = HashMap(key_size=8, value_size=8, max_entries=64, name="start")
    dstate = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state")
    for p in build_duration_programs("start", "state", TGID, [232]):
        resolved = p.resolve_maps({"start": start, "state": dstate}).verify()
        assert compile_insns(resolved.insns) is not None


# ----------------------------------------------------------------------
# hypothesis fuzz: verified programs and faulting programs alike
# ----------------------------------------------------------------------

@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_three_tiers_agree_on_verified_programs(ops, ctx):
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)
    triples = set()
    for vm in _fresh_tiers().values():
        result = vm.execute(insns, ctx)
        triples.add((result.r0, result.steps, result.cost_ns))
    assert len(triples) == 1
    # The fuzz vocabulary stays inside the codegen subset — these examples
    # exercise the compiled function itself, not the fallback.
    assert compile_insns(insns) is not None


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=150, **_FUZZ_SETTINGS)
def test_three_tiers_agree_on_faults(ops, ctx):
    """Unverified programs may fault; the fault message (or clean result)
    must be identical across tiers — fault shape is part of the contract."""
    insns = _build(ops)
    outcomes = {_outcome(vm, insns, ctx) for vm in _fresh_tiers().values()}
    assert len(outcomes) == 1


# ----------------------------------------------------------------------
# hand-crafted fault shapes
# ----------------------------------------------------------------------

def _fault_cases():
    def uninit_mov():
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R7)  # R7 never written
        asm.exit_()
        return asm.build()

    def uninit_branch():
        asm = Asm()
        asm.jeq_imm(Reg.R5, 0, "out")
        asm.label("out")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    def oob_stack_store():
        asm = Asm()
        asm.mov_imm(Reg.R2, 7)
        asm.stx(MemSize.DW, Reg.R10, -4096, Reg.R2)
        asm.exit_()
        return asm.build()

    def oob_ctx_load():
        asm = Asm()
        asm.ldx(MemSize.DW, Reg.R0, Reg.R1, CTX_SIZE + 64)
        asm.exit_()
        return asm.build()

    def store_non_scalar():
        asm = Asm()
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R1)  # R1 is the ctx pointer
        asm.exit_()
        return asm.build()

    def pointer_compare():
        asm = Asm()
        asm.jge_reg(Reg.R1, Reg.R10, "out")
        asm.label("out")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    def fall_off_end():
        asm = Asm()
        asm.mov_imm(Reg.R0, 0)
        return asm.build()  # no exit: pc runs past the program

    def exit_without_r0():
        asm = Asm()
        asm.exit_()
        return asm.build()

    return [
        ("uninit_mov", uninit_mov),
        ("uninit_branch", uninit_branch),
        ("oob_stack_store", oob_stack_store),
        ("oob_ctx_load", oob_ctx_load),
        ("store_non_scalar", store_non_scalar),
        ("pointer_compare", pointer_compare),
        ("fall_off_end", fall_off_end),
        ("exit_without_r0", exit_without_r0),
    ]


@pytest.mark.parametrize("name,build", _fault_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_fault_messages_identical(name, build):
    insns = build()
    ctx = bytes(CTX_SIZE)
    outcomes = {tier: _outcome(vm, insns, ctx)
                for tier, vm in _fresh_tiers().items()}
    assert outcomes["reference"][0] == "fault"
    assert outcomes["reference"] == outcomes["fast"] == outcomes["compiled"]


# ----------------------------------------------------------------------
# fallback, factory, cache
# ----------------------------------------------------------------------

def _looping_program():
    asm = Asm()
    asm.mov_imm(Reg.R0, 3)
    asm.label("loop")
    asm.sub_imm(Reg.R0, 1)
    asm.jne_imm(Reg.R0, 0, "loop")
    asm.exit_()
    return asm.build()


def test_backward_jump_falls_back_to_fastvm():
    """Loops are outside the loop-free codegen subset: compile_insns
    declines, and CompiledVm transparently serves the program through its
    FastVm fallback with identical results."""
    insns = _looping_program()
    assert compile_insns(insns) is None
    ctx = bytes(CTX_SIZE)
    reference = Vm().execute(insns, ctx)
    compiled = CompiledVm(cache=TranslationCache()).execute(insns, ctx)
    assert (compiled.r0, compiled.steps, compiled.cost_ns) == \
        (reference.r0, reference.steps, reference.cost_ns)


def test_make_vm_factory():
    assert type(make_vm("reference")) is Vm
    assert type(make_vm("fast")) is FastVm
    assert type(make_vm("compiled")) is CompiledVm
    assert DEFAULT_VM_TIER in VM_TIERS
    assert type(make_vm()) is CompiledVm
    with pytest.raises(ValueError, match="unknown vm tier"):
        make_vm("jit")


def test_compiled_vm_shares_cache_with_fallback():
    cache = TranslationCache()
    vm = CompiledVm(cache=cache)
    assert vm.cache is cache
    assert vm._fallback.cache is cache


def test_cache_keys_tiers_separately():
    """One program, both tiers: two cache entries, hit on re-request.
    A compiled-tier hit rebinds the one cached template afresh."""
    cache = TranslationCache()
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    decoded = cache.get(program.insns)
    compiled = cache.get_compiled(program.insns)
    assert decoded is not None and compiled is not None
    assert cache.stats()["entries"] == 2
    assert cache.get(program.insns) is decoded
    again = cache.get_compiled(program.insns)
    assert again.code is compiled.code and again.fn is not compiled.fn
    assert cache.stats()["misses"] == 2
    assert cache.stats()["hits"] == 2


def test_cache_remembers_unsupported_programs():
    """A declined translation is cached too, so the fallback decision is
    paid once per program, not once per firing."""
    cache = TranslationCache()
    insns = _looping_program()
    assert cache.get_compiled(insns) is None
    misses = cache.stats()["misses"]
    assert cache.get_compiled(insns) is None
    assert cache.stats()["misses"] == misses  # second probe is a hit


def test_runtime_state_consumed_identically():
    """Inlined pure helpers must draw from the runtime exactly like the
    interpreted call path (same prandom sequence, same pid/time/cpu)."""
    asm = Asm()
    from repro.ebpf import Helper

    asm.call(Helper.GET_PRANDOM_U32)
    asm.mov_reg(Reg.R6, Reg.R0)
    asm.call(Helper.GET_PRANDOM_U32)
    asm.add_reg(Reg.R0, Reg.R6)
    asm.call(Helper.KTIME_GET_NS)
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.call(Helper.GET_SMP_PROCESSOR_ID)
    asm.exit_()
    insns = asm.build()
    ctx = bytes(CTX_SIZE)

    def run(vm):
        counter = iter(range(100, 200))
        runtime = HelperRuntime(ktime_ns=777, pid_tgid=PID_TGID, cpu_id=3,
                                prandom=lambda: next(counter))
        result = vm.execute(insns, ctx, runtime)
        return (result.r0, result.steps, result.cost_ns, next(counter))

    runs = {tier: run(vm) for tier, vm in _fresh_tiers().items()}
    assert runs["reference"] == runs["fast"] == runs["compiled"]
    # exactly two prandom draws happened before the probe drew 102
    assert runs["reference"][-1] == 102


def test_compiled_source_is_inspectable():
    """compile_insns keeps the generated source for diagnostics."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    compiled = compile_insns(program.insns)
    assert "def _prog(" in compiled.source
    assert compiled.n == len(program.insns)
