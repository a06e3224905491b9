"""Differential suite: the pre-decoded fast path vs. the reference Vm.

The contract is bit-for-bit equality: identical ``(r0, steps, cost_ns)``
per firing, identical map mutations, identical fault messages — over the
full shipped program corpus (collectors, streaming, tools, bpfc output)
and over randomized verifier-valid programs.  The cost model feeding
EXP-OVH must not move by a single nanosecond between tiers.
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
    DEFAULT_INSN_COST_NS,
    HELPER_SIGS,
    ArrayMap,
    Asm,
    FastVm,
    HashMap,
    Helper,
    HelperRuntime,
    Insn,
    MemSize,
    PerfEventArray,
    ProgType,
    Reg,
    TranslationCache,
    VerifierError,
    Vm,
    VmFault,
    pack_sys_enter,
    pack_sys_exit,
    verify,
)
from repro.ebpf.bpfc import compile_source
from repro.kernel.tracepoints import SysEnterCtx, SysExitCtx

TGID = 7
PID_TGID = (TGID << 32) | TGID

_FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _results(vm, program, firings):
    """Run ``program`` over a firing sequence; returns per-firing tuples."""
    out = []
    for ctx in firings:
        blob = pack_sys_enter(ctx) if isinstance(ctx, SysEnterCtx) else pack_sys_exit(ctx)
        runtime = HelperRuntime(ktime_ns=ctx.ktime_ns, pid_tgid=ctx.pid_tgid, cpu_id=0)
        result = vm.execute(program.insns, blob, runtime)
        out.append((result.r0, result.steps, result.cost_ns))
    return out


def _map_state(bpf_map):
    if isinstance(bpf_map, HashMap):
        return dict(bpf_map.items_int())
    if isinstance(bpf_map, ArrayMap):
        return [bytes(bpf_map.lookup(bpf_map.key_of(i)))
                for i in range(bpf_map.max_entries)]
    if isinstance(bpf_map, PerfEventArray):
        return bpf_map.poll()
    return bpf_map.drain()  # RingBuf


def _enter_seq(count=40, seed=0):
    """sys_enter contexts mixing matching/other tgids and syscall numbers."""
    rng = random.Random(seed)
    t = 1_000
    firings = []
    for i in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid, syscall_nr=rng.choice([0, 1, 44, 232]),
                                   ktime_ns=t))
        t += rng.randint(1, 50_000)
    return firings


def _enter_exit_seq(count=40, seed=1, nr=232):
    rng = random.Random(seed)
    t = 5_000
    firings = []
    for i in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.85 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid, syscall_nr=nr, ktime_ns=t))
        t += rng.randint(10, 80_000)
        firings.append(SysExitCtx(pid_tgid=pid_tgid, syscall_nr=nr, ret=0, ktime_ns=t))
        t += rng.randint(10, 20_000)
    return firings


# The paper's Listing 1, as compiled by tests/ebpf/test_bpfc.py — both
# interpreter tiers must agree on bpfc output, not just hand assembly.
LISTING_1 = """
BPF_HASH(start, u64, u64);
BPF_HASH(stats, u64, u64);

TRACEPOINT_PROBE(raw_syscalls, sys_enter) {
    u64 pid_tgid = bpf_get_current_pid_tgid();
    if (pid_tgid != PID_TGID) return 0;
    if (args->id != 232) return 0;
    u64 t = bpf_ktime_get_ns();
    start.update(&pid_tgid, &t);
    return 0;
}

TRACEPOINT_PROBE(raw_syscalls, sys_exit) {
    u64 pid_tgid = bpf_get_current_pid_tgid();
    if (pid_tgid != PID_TGID) return 0;
    if (args->id != 232) return 0;
    u64 *start_ns = start.lookup(&pid_tgid);
    if (!start_ns) return 0;
    u64 end_ns = bpf_ktime_get_ns();
    u64 duration = end_ns - *start_ns;
    u64 key = 0;
    u64 *total = stats.lookup(&key);
    if (!total) {
        stats.update(&key, &duration);
        u64 one = 1;
        u64 count_key = 1;
        stats.update(&count_key, &one);
        return 0;
    }
    *total += duration;
    stats.increment(1);
    return 0;
}
"""


def _corpus_cases():
    """(name, build) pairs; build() -> (programs, maps, firings).

    Fresh map instances per call so the reference and fast runs never
    share state.
    """

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

    def listing1():
        unit = compile_source(LISTING_1, constants={"PID_TGID": PID_TGID})
        programs = [p.resolve_maps(unit.maps).verify() for p in unit.programs]
        return programs, dict(unit.maps), _enter_exit_seq(seed=4)

    return [("delta", delta), ("duration", duration),
            ("streaming", streaming), ("listing1", listing1)]


def _dispatch(programs, ctx):
    enter = isinstance(ctx, SysEnterCtx)
    wanted = (ProgType.tracepoint_sys_enter() if enter
              else ProgType.tracepoint_sys_exit()).name
    return [p for p in programs if p.prog_type.name == wanted]


@pytest.mark.parametrize("name,build", _corpus_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_programs_identical(name, build):
    """Full corpus: every firing's (r0, steps, cost_ns) and the final map
    contents must match between the tiers."""
    outcomes = {}
    for vm in (Vm(), FastVm(cache=TranslationCache())):
        programs, maps, firings = build()
        per_firing = []
        for ctx in firings:
            for program in _dispatch(programs, ctx):
                per_firing.extend(_results(vm, program, [ctx]))
        outcomes[type(vm).__name__] = (
            per_firing, {name_: _map_state(m) for name_, m in maps.items()})
    assert outcomes["Vm"] == outcomes["FastVm"]


def test_cost_and_steps_unchanged_on_delta_program():
    """Explicit cost-model pin: the fast path charges exactly
    steps * DEFAULT_INSN_COST_NS plus the helpers' signature costs."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    ctx = SysEnterCtx(pid_tgid=PID_TGID, syscall_nr=0, ktime_ns=123_456)
    runtime_args = dict(ktime_ns=ctx.ktime_ns, pid_tgid=ctx.pid_tgid, cpu_id=0)

    reference = Vm().execute(program.insns, pack_sys_enter(ctx),
                             HelperRuntime(**runtime_args))
    state2 = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program2 = (build_delta_program("state", TGID, [0])
                .resolve_maps({"state": state2}).verify())
    fast = FastVm(cache=TranslationCache()).execute(
        program2.insns, pack_sys_enter(ctx), HelperRuntime(**runtime_args))

    assert (fast.r0, fast.steps, fast.cost_ns) == \
        (reference.r0, reference.steps, reference.cost_ns)
    helper_cost = (HELPER_SIGS[Helper.GET_CURRENT_PID_TGID].cost_ns
                   + HELPER_SIGS[Helper.KTIME_GET_NS].cost_ns
                   + HELPER_SIGS[Helper.MAP_LOOKUP_ELEM].cost_ns)
    assert fast.cost_ns == fast.steps * DEFAULT_INSN_COST_NS + helper_cost


# ----------------------------------------------------------------------
# randomized differential fuzz (same vocabulary as test_differential.py)
# ----------------------------------------------------------------------

CTX_SIZE = ProgType.tracepoint_sys_enter().ctx_size

_ALU_IMM = ("add_imm", "sub_imm", "mul_imm", "div_imm", "mod_imm",
            "and_imm", "or_imm", "lsh_imm", "rsh_imm", "arsh_imm")
_ALU_REG = ("add_reg", "sub_reg", "mul_reg", "div_reg", "mod_reg", "xor_reg")
_JMP_IMM = ("jeq_imm", "jne_imm", "jgt_imm", "jge_imm", "jlt_imm",
            "jle_imm", "jsgt_imm", "jslt_imm", "jset_imm")

_reg = st.integers(min_value=0, max_value=9)
_imm = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_slot = st.integers(min_value=1, max_value=8)

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
            imm = op[2] & 63 if name in ("lsh_imm", "rsh_imm", "arsh_imm") else op[2]
            getattr(asm, name)(op[1], imm)
        elif name in _ALU_REG or name == "mov_reg":
            getattr(asm, name)(op[1], op[2])
        elif name == "neg":
            asm.neg(op[1])
        elif name == "store":
            asm.stx(MemSize.DW, Reg.R10, -8 * op[2], op[1])
        elif name == "load":
            asm.ldx(MemSize.DW, op[1], Reg.R10, -8 * op[2])
        elif name == "ctx_load":
            asm.ldx(MemSize.DW, op[1], Reg.R1, op[2])
        else:
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
def test_fuzz_fast_path_matches_reference(ops, ctx):
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)
    reference = Vm().execute(insns, ctx)
    fast = FastVm(cache=TranslationCache()).execute(insns, ctx)
    assert (fast.r0, fast.steps, fast.cost_ns) == \
        (reference.r0, reference.steps, reference.cost_ns)


# ----------------------------------------------------------------------
# fault-for-fault equality (unverified programs, exercised deliberately)
# ----------------------------------------------------------------------

def _both_fault(insns, ctx=b"\x00" * CTX_SIZE):
    with pytest.raises(VmFault) as reference:
        Vm().execute(insns, ctx)
    with pytest.raises(VmFault) as fast:
        FastVm(cache=TranslationCache()).execute(insns, ctx)
    assert str(fast.value) == str(reference.value)
    return str(fast.value)


class TestFaultParity:
    def test_mov_from_uninitialized(self):
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R5)
        asm.exit_()
        assert "uninitialized" in _both_fault(asm.build())

    def test_alu_on_uninitialized(self):
        asm = Asm()
        asm.add_imm(Reg.R3, 4)
        asm.exit_()
        assert "uninitialized" in _both_fault(asm.build())

    def test_out_of_bounds_store(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R10, 8, Reg.R2)  # above the stack top
        asm.exit_()
        assert "out-of-bounds" in _both_fault(asm.build())

    def test_write_to_read_only_ctx(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R1, 0, Reg.R2)
        asm.exit_()
        assert "read-only" in _both_fault(asm.build())

    def test_store_of_non_scalar(self):
        asm = Asm()
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R1)  # R1 is the ctx pointer
        asm.exit_()
        assert "non-scalar" in _both_fault(asm.build())

    def test_load_through_non_pointer(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 5)
        asm.ldx(MemSize.DW, Reg.R0, Reg.R2, 0)
        asm.exit_()
        assert "non-pointer" in _both_fault(asm.build())

    def test_jump_out_of_bounds(self):
        insns = [Insn(opcode=0x05, off=40)]  # ja +40, far past the end
        assert "pc 41 out of program bounds" in _both_fault(insns)

    def test_unknown_helper_id(self):
        asm = Asm()
        asm.call(9999)
        asm.exit_()
        assert _both_fault(asm.build()) == "unknown helper id 9999"

    def test_exit_with_non_scalar_r0(self):
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R1)
        asm.exit_()
        assert "non-scalar r0" in _both_fault(asm.build())

    def test_unresolved_map_reference(self):
        asm = Asm()
        asm.ld_map_fd(Reg.R1, "nowhere")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        assert "unresolved map reference" in _both_fault(asm.build())

    def test_jump_into_ld_imm64_second_slot(self):
        insns = [
            Insn(opcode=0x05, off=1),  # ja +1 -> lands mid-pair
            Insn(opcode=0x18, dst=0, imm=7),
            Insn(opcode=0x00, imm=0),
            Insn(opcode=0x95),
        ]
        assert "unsupported LD insn" in _both_fault(insns)

    def test_instruction_budget_exhausted(self, monkeypatch):
        import repro.ebpf.fastvm as fastvm_mod
        import repro.ebpf.vm as vm_mod
        monkeypatch.setattr(vm_mod, "MAX_STEPS", 64)
        monkeypatch.setattr(fastvm_mod, "MAX_STEPS", 64)
        insns = [Insn(opcode=0x05, off=-1)]  # ja -1: infinite loop
        assert "budget exhausted" in _both_fault(insns)

    def test_empty_program(self):
        assert "pc 0 out of program bounds" in _both_fault([])


# ----------------------------------------------------------------------
# translation cache behaviour
# ----------------------------------------------------------------------

class TestTranslationCache:
    def _program_insns(self):
        asm = Asm()
        asm.mov_imm(Reg.R0, 3)
        asm.add_imm(Reg.R0, 4)
        asm.exit_()
        return asm.build()

    def test_identity_memo_hits(self):
        cache = TranslationCache()
        insns = self._program_insns()
        first = cache.get(insns)
        second = cache.get(insns)
        assert first is second
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["translations"] == 1
        assert stats["translate_ns"] > 0

    def test_equal_blobs_share_translation(self):
        cache = TranslationCache()
        a = self._program_insns()
        b = self._program_insns()
        assert a is not b
        assert cache.get(a) is cache.get(b)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_same_blob_different_maps_not_shared(self):
        """Same blob, different maps: the compiled tier shares one
        map-free template and binds a distinct function per map set; the
        fast tier's closures capture maps, so it keys (and translates)
        each map set separately."""
        cache = TranslationCache()

        def with_map(bpf_map):
            asm = Asm()
            asm.ld_map_fd(Reg.R1, bpf_map)
            asm.mov_imm(Reg.R0, 0)
            asm.exit_()
            return asm.build()

        map_a, map_b = HashMap(8, 8, name="m"), HashMap(8, 8, name="m")
        a, b = with_map(map_a), with_map(map_b)
        bound_a, bound_b = cache.get_compiled(a), cache.get_compiled(b)
        assert bound_a.code is bound_b.code
        assert bound_a.fn is not bound_b.fn
        assert bound_a.fn.__globals__["M0"].bpf_map is map_a
        assert bound_b.fn.__globals__["M0"].bpf_map is map_b
        assert cache.translations == 1 and cache.hits == 1

        assert cache.get(a) is not cache.get(b)
        assert cache.translations == 3
        assert len(cache) == 3

    def test_eviction_bound(self):
        cache = TranslationCache(max_entries=4)
        for value in range(10):
            asm = Asm()
            asm.mov_imm(Reg.R0, value)
            asm.exit_()
            cache.get(asm.build())
        assert len(cache) == 4

    def test_purge_keeps_hot_attach_site_memoized(self):
        """Regression: the identity-memo purge at ``4 * max_entries`` used
        to be a wholesale ``clear()``, evicting the hot attach site's memo
        along with the cold ones mid-run.  Now only memos whose blob left
        ``_by_blob`` (plus cold second-chance victims) are shed — the
        steadily-firing site keeps its *original* memo object across every
        purge, while the churn stays bounded."""
        cache = TranslationCache(max_entries=8)
        hot = self._program_insns()
        cache.get(hot)
        hot_memo = cache._by_seq[id(hot)]

        def rebuild_cold():
            asm = Asm()
            asm.mov_imm(Reg.R0, 99)
            asm.sub_imm(Reg.R0, 1)
            asm.exit_()
            return asm.build()

        churn = []  # keep identities alive so ids are never recycled
        for _ in range(20 * cache.max_entries):
            cold = rebuild_cold()
            churn.append(cold)
            cache.get(cold)
            cache.get(hot)

        # Purges definitely ran (160 memos created, budget is 32) and
        # bounded the table, yet the hot site still holds the exact memo
        # object from before the churn: every one of its lookups stayed
        # on the identity fast path.
        assert len(cache._by_seq) <= 4 * cache.max_entries + 1
        assert cache._by_seq.get(id(hot)) is hot_memo
        hits = cache.hits
        assert cache.get(hot) is hot_memo[1]
        assert cache.hits == hits + 1
        assert cache.misses == 2  # hot + the one shared cold content

    def test_purge_drops_memos_of_evicted_blobs(self):
        """Memos whose translation aged out of the blob LRU are dead
        weight (a lookup through them can't be served) and are dropped at
        purge time; memos whose blob is still resident survive."""
        cache = TranslationCache(max_entries=2)

        def distinct(value):
            asm = Asm()
            asm.mov_imm(Reg.R0, value)
            asm.exit_()
            return asm.build()

        keep_alive = [distinct(v) for v in range(10)]
        for insns in keep_alive:
            cache.get(insns)
        # The 10th identity crossed the 4 * max_entries budget: a purge
        # ran, and everything whose blob had aged out of the 2-entry LRU
        # was shed — the table holds at most the resident survivors plus
        # the memo added after the purge.
        assert len(cache._by_seq) <= cache.max_entries + 1
        assert len(cache._by_seq) < len(keep_alive)

    def test_attached_bpf_reuses_one_translation(self):
        """The BPF frontend's millions-of-firings path: one miss, then hits."""
        cache = TranslationCache()
        vm = FastVm(cache=cache)
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = (build_delta_program("state", TGID, [0])
                   .resolve_maps({"state": state}).verify())
        for ctx in _enter_seq(count=25, seed=9):
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns, pid_tgid=ctx.pid_tgid, cpu_id=0)
            vm.execute(program.insns, pack_sys_enter(ctx), runtime)
        assert cache.misses == 1
        assert cache.hits == 24


def test_program_decoded_uses_global_cache():
    from repro.ebpf import clear_translation_cache, translation_cache_stats

    clear_translation_cache()
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    decoded = program.decoded()
    assert len(decoded) == len(program.insns)
    assert program.decoded() is decoded
    stats = translation_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
