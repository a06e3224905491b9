"""Differential suite for the compiled VM tier.

The two tiers — reference interpreter (:class:`Vm`) and whole-program
translation (:class:`CompiledVm`) — must be observationally
indistinguishable: the same ``(r0, steps, cost_ns)`` triple per
invocation, the same map contents afterwards, and the same
:class:`VmFault` message when a program dies.  This file proves it three
ways: the real collector corpus, hypothesis-fuzzed programs (verified
*and* faulting), and a table of hand-crafted fault shapes.  The shapes
the code generator declines run on the compiled tier's reference
fallback, so the table covers that path too.
"""

import cProfile
import gc
import pstats
import random
import weakref
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.collectors import (
    _DELTA_VALUE_SIZE,
    _DUR_VALUE_SIZE,
    build_delta_program,
    build_duration_programs,
)
from repro.core.histograms import NBUCKETS
from repro.core.streaming import build_streaming_program
from repro.ebpf import (
    BPF,
    DEFAULT_INSN_COST_NS,
    HELPER_SIGS,
    ArrayMap,
    Asm,
    CompiledVm,
    HashMap,
    Helper,
    HelperRuntime,
    Insn,
    MapError,
    MemSize,
    PerfEventArray,
    Program,
    ProgType,
    Reg,
    RingBuf,
    SYS_EXIT_CTX_SIZE,
    TranslationCache,
    VerifierError,
    Vm,
    VmFault,
    compile_insns,
    decline_reason,
    make_vm,
    pack_sys_enter,
    pack_sys_exit,
    verify,
)
from repro.__main__ import main
from repro.analysis import ExperimentSpec
from repro.core import CollectorConfig
from repro.ebpf import vm as vm_mod
from repro.ebpf.bpfc import compile_source
from repro.ebpf.compiled import DEFAULT_VM_TIER, VM_TIERS
from repro.ebpf.context import field_load
from repro.kernel import Kernel, MachineSpec
from repro.sim import Environment, SeedSequence

from .test_bpfc import LISTING_1
from .test_differential import CTX_SIZE, _build, _op

TGID = 4242
PID_TGID = (TGID << 32) | TGID

_FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _fresh_tiers():
    """One VM per tier, the compiled one with a private cache so runs
    never share state."""
    return {
        "reference": Vm(),
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
# real-program corpus: the paper's collectors, both tiers
# ----------------------------------------------------------------------

def _map_state(bpf_map):
    if isinstance(bpf_map, HashMap):
        return dict(bpf_map.items_int())
    if isinstance(bpf_map, ArrayMap):
        return [bytes(bpf_map.lookup(bpf_map.key_of(i)))
                for i in range(bpf_map.max_entries)]
    return bpf_map.poll()  # PerfEventArray


class Firing(NamedTuple):
    """One tracepoint firing: ``arg`` is the args tuple on sys_enter and
    the return value on sys_exit."""

    enter: bool
    pid_tgid: int
    nr: int
    arg: object
    ktime_ns: int

    def record(self) -> bytes:
        pack = pack_sys_enter if self.enter else pack_sys_exit
        return pack(self.pid_tgid, self.nr, self.arg)


def _enter_seq(count=40, seed=0):
    rng = random.Random(seed)
    t = 1_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        firings.append(Firing(True, pid_tgid, rng.choice([0, 1, 44, 232]), (), t))
        t += rng.randint(1, 50_000)
    return firings


def _enter_exit_seq(count=40, seed=1, nr=232):
    rng = random.Random(seed)
    t = 5_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.85 else (99 << 32) | 99
        firings.append(Firing(True, pid_tgid, nr, (), t))
        t += rng.randint(10, 80_000)
        firings.append(Firing(False, pid_tgid, nr, 0, t))
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
        events = PerfEventArray(name="events")
        program = (build_streaming_program("events", TGID, [0, 44])
                   .resolve_maps({"events": events}).verify())
        return [program], {"events": events}, _enter_seq(seed=3)

    def listing1():
        # bpfc output, not just hand assembly, must agree across tiers.
        unit = compile_source(LISTING_1, constants={"PID_TGID": PID_TGID})
        programs = [p.resolve_maps(unit.maps).verify() for p in unit.programs]
        return programs, dict(unit.maps), _enter_exit_seq(seed=4)

    return [("delta", delta), ("duration", duration),
            ("streaming", streaming), ("listing1", listing1)]


def _dispatch(programs, firing):
    wanted = (ProgType.tracepoint_sys_enter() if firing.enter
              else ProgType.tracepoint_sys_exit()).name
    return [p for p in programs if p.prog_type.name == wanted]


def _corpus_outcome(build, bind):
    """Per-firing (r0, steps, cost_ns) and the final map contents of one
    corpus case; ``bind(insns)`` returns the program's ``run(ctx, runtime)``."""
    programs, maps, firings = build()
    runs = {id(p): bind(p.insns) for p in programs}
    per_firing = []
    for firing in firings:
        blob = firing.record()
        runtime = HelperRuntime(ktime_ns=firing.ktime_ns, pid_tgid=firing.pid_tgid)
        for program in _dispatch(programs, firing):
            result = runs[id(program)](blob, runtime)
            per_firing.append((result.r0, result.steps, result.cost_ns))
    return per_firing, {n: _map_state(m) for n, m in maps.items()}


@pytest.mark.parametrize("name,build", _corpus_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_identical_across_tiers(name, build):
    """Every firing's (r0, steps, cost_ns) and the final map contents must
    match across both tiers on the paper's real collector programs."""
    outcomes = {tier: _corpus_outcome(build, lambda insns, vm=vm: partial(vm.execute, insns))
                for tier, vm in _fresh_tiers().items()}
    assert outcomes["reference"] == outcomes["compiled"]


@pytest.mark.parametrize("name,build", _corpus_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_identical_through_prepare(name, build):
    """The same corpus through :meth:`Vm.prepare`, the entry point a bcc
    attach site binds once and then fires: identical to the reference."""
    outcomes = {tier: _corpus_outcome(build, vm.prepare)
                for tier, vm in _fresh_tiers().items()}
    assert outcomes["reference"] == outcomes["compiled"]


def test_cost_and_steps_unchanged_on_delta_program():
    """Explicit cost-model pin: the compiled tier charges exactly
    steps * DEFAULT_INSN_COST_NS plus the helpers' signature costs."""
    results = {}
    for tier, vm in _fresh_tiers().items():
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = (build_delta_program("state", TGID, [0])
                   .resolve_maps({"state": state}).verify())
        runtime = HelperRuntime(ktime_ns=123_456, pid_tgid=PID_TGID)
        result = vm.execute(program.insns, pack_sys_enter(PID_TGID, 0, ()), runtime)
        results[tier] = (result.r0, result.steps, result.cost_ns)

    assert results["compiled"] == results["reference"]
    _r0, steps, cost_ns = results["compiled"]
    helper_cost = (HELPER_SIGS[Helper.GET_CURRENT_PID_TGID].cost_ns
                   + HELPER_SIGS[Helper.KTIME_GET_NS].cost_ns
                   + HELPER_SIGS[Helper.MAP_LOOKUP_ELEM].cost_ns)
    assert cost_ns == steps * DEFAULT_INSN_COST_NS + helper_cost


def _monitor_programs():
    """Every program shape the monitor attaches — delta, delta with the
    export histogram, duration enter and exit, streaming — plus the bpfc
    Listing 1 corpus, resolved and verified."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    hist = ArrayMap(value_size=8, max_entries=NBUCKETS, name="hist")
    delta_maps = {"state": state, "hist": hist}
    shapes = [
        ("delta", build_delta_program("state", TGID, [0, 1]), delta_maps),
        ("histogram", build_delta_program("state", TGID, [0, 1], hist_map="hist"), delta_maps),
        ("streaming", build_streaming_program("events", TGID, [0, 44]),
         {"events": PerfEventArray(name="events")}),
    ]
    duration_maps = {
        "start": HashMap(key_size=8, value_size=8, max_entries=64, name="start"),
        "state": ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state"),
    }
    for program in build_duration_programs("start", "state", TGID, [232]):
        shapes.append((program.name, program, duration_maps))
    unit = compile_source(LISTING_1, constants={"PID_TGID": PID_TGID})
    for program in unit.programs:
        shapes.append((f"listing1-{program.name}", program, unit.maps))
    return [(name, program.resolve_maps(maps).verify()) for name, program, maps in shapes]


def test_collector_programs_do_not_fall_back():
    """The collectors are the hot path; the compiled tier must compile
    every shape of them to typed code for its own record size, not hand
    them to the reference VM — and typed code carries no fat pointers,
    register file or type guards."""
    cache = TranslationCache()
    vm = CompiledVm(cache=cache)
    for name, program in _monitor_programs():
        compiled = compile_insns(program.insns, program.prog_type.ctx_size)
        assert compiled is not None, name
        for token in ("Pointer(", "MemRegion(", "scratch[", "type("):
            assert token not in compiled.source, (name, token)
        vm.prepare(program.insns, program.prog_type.ctx_size)
    assert cache.stats()["declined"] == 0


def _ctx_or_stack_pointer_program():
    """r2 is the ctx pointer on one path and a stack pointer on the other;
    both paths verify, and the load after the join reads through r2."""
    asm = Asm()
    asm.ldx(MemSize.DW, Reg.R6, Reg.R1, 8)
    asm.mov_reg(Reg.R2, Reg.R1)
    asm.jeq_imm(Reg.R6, 0, "join")
    asm.st_imm(MemSize.DW, Reg.R10, -8, 5)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -8)
    asm.label("join")
    asm.ldx(MemSize.DW, Reg.R0, Reg.R2, 0)
    asm.exit_()
    return asm.build()


def test_disagreeing_path_states_run_on_reference():
    """A verified program whose paths disagree on the type of a register
    an instruction reads is declined: it runs on the reference VM, counts
    as declined, and matches the reference on both paths."""
    insns = _ctx_or_stack_pointer_program()
    verify(insns, ProgType.tracepoint_sys_enter())
    assert compile_insns(insns, CTX_SIZE) is None
    assert decline_reason(insns, CTX_SIZE) == "paths disagree on r2 at pc 6"
    cache = TranslationCache()
    vm = CompiledVm(cache=cache)
    for syscall_nr in (0, 7):
        ctx = pack_sys_enter(PID_TGID, syscall_nr, ())
        expected = _outcome(Vm(), insns, ctx)
        assert _outcome(vm, insns, ctx) == expected
        assert vm.prepare(insns)(ctx).r0 == expected[1]
    assert expected[1] == 5  # the stack path ran last
    assert cache.translations == 1 and cache.declined == 1


def _output_helpers_program(counts, ring, events):
    """Delete key 3, then send the result through a ring buffer, a perf
    array and trace_printk, summing every helper's r0."""
    asm = Asm()
    asm.mov_reg(Reg.R9, Reg.R1)
    asm.st_imm(MemSize.DW, Reg.R10, -8, 3)
    asm.ld_map_fd(Reg.R1, counts)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -8)
    asm.call(Helper.MAP_DELETE_ELEM)
    asm.mov_reg(Reg.R6, Reg.R0)
    asm.stx(MemSize.DW, Reg.R10, -16, Reg.R6)
    asm.ld_map_fd(Reg.R1, ring)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -16)
    asm.mov_imm(Reg.R3, 16)
    asm.mov_imm(Reg.R4, 0)
    asm.call(Helper.RINGBUF_OUTPUT)
    asm.add_reg(Reg.R6, Reg.R0)
    asm.mov_reg(Reg.R1, Reg.R9)
    asm.ld_map_fd(Reg.R2, events)
    asm.mov_imm(Reg.R3, 0)
    asm.mov_reg(Reg.R4, Reg.R10)
    asm.add_imm(Reg.R4, -16)
    asm.mov_imm(Reg.R5, 8)
    asm.call(Helper.PERF_EVENT_OUTPUT)
    asm.add_reg(Reg.R6, Reg.R0)
    asm.ld_imm64(Reg.R1, int.from_bytes(b"hi\x00\x00\x00\x00\x00\x00", "little"))
    asm.stx(MemSize.DW, Reg.R10, -24, Reg.R1)
    asm.mov_reg(Reg.R1, Reg.R10)
    asm.add_imm(Reg.R1, -24)
    asm.mov_imm(Reg.R2, 8)
    asm.call(Helper.TRACE_PRINTK)
    asm.add_reg(Reg.R0, Reg.R6)
    asm.exit_()
    return asm.build()


def test_output_and_delete_helpers_match_reference():
    """map_delete_elem (hit, then -ENOENT), ringbuf and perf output (until
    their buffers drop) and trace_printk run as typed code with the
    reference's triples, drops, records and printed text; a delete on an
    ArrayMap raises the reference's MapError."""
    def outcome(vm):
        counts = HashMap(key_size=8, value_size=8, max_entries=4, name="counts")
        counts.update_int(3, 1)
        ring = RingBuf(size=40, name="ring")
        events = PerfEventArray(capacity=2, name="events")
        insns = _output_helpers_program(counts, ring, events)
        runtime = HelperRuntime(ktime_ns=5, pid_tgid=PID_TGID)
        runs = [_outcome(vm, insns, bytes(CTX_SIZE), runtime) for _ in range(4)]
        return (runs, ring.drops, ring.drain(), events.lost, events.poll(),
                runtime.printed, dict(counts.items_int()))

    cache = TranslationCache()
    expected = outcome(Vm())
    assert outcome(CompiledVm(cache=cache)) == expected
    runs, ring_drops, _records, perf_lost, _events, printed, counts = expected
    assert len({run[1] for run in runs}) == 3  # hit; miss, both fit; miss, both drop
    assert ring_drops == 2 and perf_lost == 2 and printed == ["hi"] * 4 and counts == {}
    assert cache.translations == 1 and cache.declined == 0

    def array_delete(vm):
        array = ArrayMap(value_size=8, max_entries=4, name="array")
        insns = _output_helpers_program(array, RingBuf(size=64), PerfEventArray())
        try:
            vm.execute(insns, bytes(CTX_SIZE))
        except MapError as error:
            return str(error)
        return None

    message = array_delete(Vm())
    assert message is not None and "delete not supported" in message
    assert array_delete(CompiledVm(cache=TranslationCache())) == message


def test_ctx_of_another_length_never_runs_a_foreign_translation():
    """A translation is proven for one ctx size.  A program reading
    ``args[2]`` is typed for the 64-byte sys_enter record; run with the
    24-byte sys_exit record — prepared or not — it goes to the
    reference VM and faults exactly as the reference does."""
    asm = Asm()
    asm.ldx(MemSize.DW, Reg.R0, Reg.R1, 32)
    asm.exit_()
    insns = asm.build()
    short = bytes(SYS_EXIT_CTX_SIZE)
    cache = TranslationCache()
    vm = CompiledVm(cache=cache)
    run = vm.prepare(insns)
    assert run(bytes(CTX_SIZE)).r0 == 0
    expected = _outcome(Vm(), insns, short)
    assert expected[0] == "fault"
    assert _outcome(vm, insns, short) == expected
    with pytest.raises(VmFault, match="out-of-bounds read"):
        run(short)
    assert decline_reason(insns, SYS_EXIT_CTX_SIZE).startswith("verifier:")
    assert cache.translations == 2 and cache.declined == 1


def _two_site_program(map_a, map_b):
    """Bump slot 0 of ``map_a``, then return slot 0 of ``map_b``."""
    asm = Asm()
    asm.st_imm(MemSize.W, Reg.R10, -4, 0)
    asm.ld_map_fd(Reg.R1, map_a)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "read_b")
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, 0)
    asm.add_imm(Reg.R1, 1)
    asm.stx(MemSize.DW, Reg.R0, 0, Reg.R1)
    asm.label("read_b")
    asm.ld_map_fd(Reg.R1, map_b)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "out")
    asm.ldx(MemSize.DW, Reg.R0, Reg.R0, 0)
    asm.exit_()
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


def test_template_never_assumes_load_sites_alias():
    """One blob bound in two cells — its two ld_imm64 sites load the same
    map in one and two maps in the other — shares one template and
    matches the reference in both."""
    def cell(alias, vm):
        map_a = ArrayMap(value_size=8, max_entries=1, name="a")
        map_b = map_a if alias else ArrayMap(value_size=8, max_entries=1, name="b")
        insns = _two_site_program(map_a, map_b)
        ctx = bytes(CTX_SIZE)
        runs = [_outcome(vm, insns, ctx) for _ in range(3)]
        return runs, _map_state(map_a), _map_state(map_b)

    cache = TranslationCache()
    outcomes = {}
    for alias in (True, False):
        expected = cell(alias, Vm())
        assert cell(alias, CompiledVm(cache=cache)) == expected
        outcomes[alias] = expected
    assert [run[1] for run in outcomes[True][0]] == [1, 2, 3]
    assert [run[1] for run in outcomes[False][0]] == [0, 0, 0]
    assert cache.translations == 1 and cache.hits == 1 and cache.declined == 0


def test_each_translation_gets_its_own_profiler_row():
    """Generated functions are named after their template key, so cProfile
    keeps one row per program instead of collapsing them into one."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    delta = (build_delta_program("state", TGID, [0])
             .resolve_maps({"state": state}).verify())
    fns = [compile_insns(delta.insns).fn, compile_insns(_constant_program()).fn]
    firings = [7, 5]
    ctx = pack_sys_enter(PID_TGID, 0, ())
    profile = cProfile.Profile()
    profile.enable()
    for fn, count in zip(fns, firings):
        for _ in range(count):
            fn(ctx, HelperRuntime(pid_tgid=PID_TGID), DEFAULT_INSN_COST_NS)
    profile.disable()
    rows = {key: value for key, value in pstats.Stats(profile).stats.items()
            if key[0] == "<ebpf-compiled>"}
    assert len(rows) == 2
    assert all(name.startswith("_prog_") for _file, _line, name in rows)
    assert sorted(value[1] for value in rows.values()) == sorted(firings)


# ----------------------------------------------------------------------
# hypothesis fuzz: verified programs and faulting programs alike
# ----------------------------------------------------------------------

@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_tiers_agree_on_verified_programs(ops, ctx):
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
    # The fuzz vocabulary stays inside the typed subset — these examples
    # exercise the compiled function itself, not the reference VM — save
    # where a jump over a move leaves a register a pointer on one path and
    # a scalar on the other before it is read: such programs run on the
    # reference VM by design.
    reason = decline_reason(insns, CTX_SIZE)
    assert reason is None or reason.startswith("paths disagree"), reason


#: One compiled VM for the whole fuzz run, as an attached probe holds
#: one: its translation cache (small, so it evicts) and its scratch
#: registers carry over from one example to the next.
_LONG_LIVED_VM = CompiledVm(cache=TranslationCache(max_entries=16))


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=300, **_FUZZ_SETTINGS)
def test_fuzz_prepared_path_matches_reference(ops, ctx):
    """The per-program entry point :meth:`CompiledVm.prepare` agrees with
    the reference on verified programs (the tracepoint's fused dispatcher
    is fuzzed by ``test_fused_dispatch_matches_reference``)."""
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)
    reference = Vm().execute(insns, ctx)
    expected = (reference.r0, reference.steps, reference.cost_ns)
    prepared = _LONG_LIVED_VM.prepare(insns)(ctx)
    assert (prepared.r0, prepared.steps, prepared.cost_ns) == expected


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=150, **_FUZZ_SETTINGS)
def test_tiers_agree_on_faults(ops, ctx):
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

    def uninit_alu():
        asm = Asm()
        asm.add_imm(Reg.R3, 4)
        asm.exit_()
        return asm.build()

    def write_read_only_ctx():
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R1, 0, Reg.R2)
        asm.exit_()
        return asm.build()

    def load_non_pointer():
        asm = Asm()
        asm.mov_imm(Reg.R2, 5)
        asm.ldx(MemSize.DW, Reg.R0, Reg.R2, 0)
        asm.exit_()
        return asm.build()

    def exit_pointer_r0():
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R1)
        asm.exit_()
        return asm.build()

    def ja_out_of_bounds():
        return [Insn(opcode=0x05, off=40)]  # ja +40, far past the end

    def unknown_helper():
        asm = Asm()
        asm.call(9999)
        asm.exit_()
        return asm.build()

    def unresolved_map():
        asm = Asm()
        asm.ld_map_fd(Reg.R1, "nowhere")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    def jump_into_ld_imm64():
        return [
            Insn(opcode=0x05, off=1),  # ja +1 -> lands mid-pair
            Insn(opcode=0x18, dst=0, imm=7),
            Insn(opcode=0x00, imm=0),
            Insn(opcode=0x95),
        ]

    def budget_exhausted():
        return [Insn(opcode=0x05, off=-1)]  # ja -1: infinite loop

    def clobbered_mov():
        asm = Asm()
        asm.call(Helper.KTIME_GET_NS)  # a helper call clobbers r1-r5
        asm.mov_reg(Reg.R0, Reg.R5)
        asm.exit_()
        return asm.build()

    def oob_above_stack_top():
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R10, 8, Reg.R2)
        asm.exit_()
        return asm.build()

    def store_map_ref():
        asm = Asm()
        asm.ld_map_fd(Reg.R2, HashMap(8, 8, name="m"))
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R2)
        asm.exit_()
        return asm.build()

    def empty_program():
        return []

    return [
        ("uninit_mov", uninit_mov),
        ("uninit_branch", uninit_branch),
        ("oob_stack_store", oob_stack_store),
        ("oob_ctx_load", oob_ctx_load),
        ("store_non_scalar", store_non_scalar),
        ("pointer_compare", pointer_compare),
        ("fall_off_end", fall_off_end),
        ("exit_without_r0", exit_without_r0),
        ("uninit_alu", uninit_alu),
        ("write_read_only_ctx", write_read_only_ctx),
        ("load_non_pointer", load_non_pointer),
        ("exit_pointer_r0", exit_pointer_r0),
        ("ja_out_of_bounds", ja_out_of_bounds),
        ("unknown_helper", unknown_helper),
        ("unresolved_map", unresolved_map),
        ("jump_into_ld_imm64", jump_into_ld_imm64),
        ("budget_exhausted", budget_exhausted),
        ("empty_program", empty_program),
        ("clobbered_mov", clobbered_mov),
        ("oob_above_stack_top", oob_above_stack_top),
        ("store_map_ref", store_map_ref),
    ]


#: The reference fault each shape must produce (both tiers then match it).
_FAULT_MESSAGES = {
    "uninit_mov": "mov from uninitialized r7",
    "uninit_branch": "branch on uninitialized register",
    "oob_stack_store": "out-of-bounds write",
    "oob_ctx_load": "out-of-bounds read",
    "store_non_scalar": "store of non-scalar",
    "pointer_compare": "invalid pointer comparison",
    "fall_off_end": "pc 1 out of program bounds",
    "exit_without_r0": "exit with non-scalar r0 None",
    "uninit_alu": "ALU on uninitialized r3",
    "write_read_only_ctx": "write to read-only region",
    "load_non_pointer": "memory access through non-pointer",
    "exit_pointer_r0": "exit with non-scalar r0 <ptr",
    "ja_out_of_bounds": "pc 41 out of program bounds",
    "unknown_helper": "unknown helper id 9999",
    "unresolved_map": "unresolved map reference",
    "jump_into_ld_imm64": "unsupported LD insn",
    "budget_exhausted": "instruction budget exhausted",
    "empty_program": "pc 0 out of program bounds",
    "clobbered_mov": "mov from uninitialized r5",
    "oob_above_stack_top": "out-of-bounds write at stack+520",
    "store_map_ref": "store of non-scalar <mapref m>",
}


@pytest.mark.parametrize("name,build", _fault_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_fault_messages_identical(name, build, monkeypatch):
    # A small reference budget keeps the runaway loop quick; every other
    # shape faults within a few steps.
    monkeypatch.setattr(vm_mod, "MAX_STEPS", 64)
    insns = build()
    ctx = bytes(CTX_SIZE)
    outcomes = {tier: _outcome(vm, insns, ctx)
                for tier, vm in _fresh_tiers().items()}
    assert outcomes["reference"][0] == "fault"
    assert _FAULT_MESSAGES[name] in outcomes["reference"][1]
    assert outcomes["reference"] == outcomes["compiled"]


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


def test_backward_jump_falls_back_to_reference():
    """Loops are outside the loop-free codegen subset: compile_insns
    declines, and CompiledVm transparently serves the program through the
    reference interpreter with identical results."""
    insns = _looping_program()
    assert compile_insns(insns) is None
    ctx = bytes(CTX_SIZE)
    reference = Vm().execute(insns, ctx)
    vm = CompiledVm(cache=TranslationCache())
    for compiled in (vm.execute(insns, ctx), vm.prepare(insns)(ctx)):
        assert (compiled.r0, compiled.steps, compiled.cost_ns) == \
            (reference.r0, reference.steps, reference.cost_ns)


def test_make_vm_factory():
    assert VM_TIERS == ("reference", "compiled")
    assert type(make_vm("reference")) is Vm
    assert type(make_vm("compiled")) is CompiledVm
    assert DEFAULT_VM_TIER in VM_TIERS
    assert type(make_vm()) is CompiledVm
    with pytest.raises(ValueError, match="unknown vm tier"):
        make_vm("jit")


def test_fast_tier_rejected_everywhere(capsys):
    """The retired ``"fast"`` tier is an error wherever a tier is named."""
    with pytest.raises(ValueError, match="unknown vm tier"):
        make_vm("fast")
    with pytest.raises(ValueError, match="vm_tier"):
        ExperimentSpec(workload="silo", offered_rps=600.0, vm_tier="fast")
    with pytest.raises(ValueError, match="vm_tier"):
        CollectorConfig(vm_tier="fast")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "silo", "--rps", "600", "--requests", "50",
              "--monitor", "vm", "--vm-tier", "fast"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'fast'" in capsys.readouterr().err


def _constant_program(value=3):
    asm = Asm()
    asm.mov_imm(Reg.R0, value)
    asm.add_imm(Reg.R0, 4)
    asm.exit_()
    return asm.build()


def test_repeated_lookup_hits():
    """Asking twice for one program translates it once; the counters
    record one miss, one hit and the time the translation took."""
    cache = TranslationCache()
    insns = _constant_program()
    first, second = cache.get_compiled(insns), cache.get_compiled(insns)
    assert first.code is second.code
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["translations"] == 1
    assert stats["translate_ns"] > 0


def test_equal_blobs_share_translation():
    """Two separately built copies of one program: one translation, one
    hit, one shared template — each lookup binds a function of its own."""
    cache = TranslationCache()
    a, b = _constant_program(), _constant_program()
    assert a is not b
    first, second = cache.get_compiled(a), cache.get_compiled(b)
    assert first.code is second.code
    assert first.fn is not second.fn
    assert cache.misses == 1
    assert cache.hits == 1


def test_cache_holds_template_not_maps():
    """A hit rebinds the one cached template afresh, and the cache keeps
    only that map-free template: once the caller drops its program and
    bound function, the maps they referenced are freed."""
    cache = TranslationCache()
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    compiled = cache.get_compiled(program.insns)
    again = cache.get_compiled(program.insns)
    assert again.code is compiled.code and again.fn is not compiled.fn
    assert cache.stats()["entries"] == 1

    state_ref = weakref.ref(state)
    del state, program, compiled, again
    gc.collect()
    assert state_ref() is None
    assert cache.stats()["entries"] == 1


def test_attach_site_translates_once():
    """The BPF frontend's many-firings path: one CompiledVm firing one
    program looks it up in the cache once; later firings reuse the
    attach site's bound function."""
    cache = TranslationCache()
    vm = CompiledVm(cache=cache)
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    for firing in _enter_seq(count=25, seed=9):
        runtime = HelperRuntime(ktime_ns=firing.ktime_ns, pid_tgid=firing.pid_tgid)
        vm.execute(program.insns, firing.record(), runtime)
    assert cache.translations == 1
    assert cache.misses == 1
    assert cache.hits == 0


def test_same_blob_different_maps_share_template():
    """Same blob, different maps: one map-free template, bound to a
    distinct function per map set."""
    cache = TranslationCache()

    def with_map(bpf_map):
        asm = Asm()
        asm.ld_map_fd(Reg.R1, bpf_map)
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    map_a, map_b = HashMap(8, 8, name="m"), HashMap(8, 8, name="m")
    bound_a = cache.get_compiled(with_map(map_a))
    bound_b = cache.get_compiled(with_map(map_b))
    assert bound_a.code is bound_b.code
    assert bound_a.fn is not bound_b.fn
    assert bound_a.fn.__globals__["M0"] is map_a
    assert bound_b.fn.__globals__["M0"] is map_b
    assert cache.translations == 1 and cache.hits == 1
    assert len(cache) == 1


def test_eviction_bound():
    cache = TranslationCache(max_entries=4)
    for value in range(10):
        cache.get_compiled(_constant_program(value))
    assert len(cache) == 4


def test_cache_remembers_unsupported_programs():
    """A declined translation is cached too, so the fallback decision is
    paid once per program, not once per firing."""
    cache = TranslationCache()
    insns = _looping_program()
    assert cache.get_compiled(insns) is None
    misses = cache.stats()["misses"]
    assert cache.get_compiled(insns) is None
    assert cache.stats()["misses"] == misses  # second probe is a hit


def test_declined_counts_every_program_handed_over():
    """``declined`` counts each lookup the compiled tier answers by
    handing the program to the reference VM, cache hit or miss."""
    cache = TranslationCache()
    for _ in range(3):
        assert cache.get_compiled(_looping_program()) is None
    assert cache.get_compiled(_constant_program()) is not None
    stats = cache.stats()
    assert (stats["declined"], stats["translations"], stats["hits"]) == (3, 2, 2)
    cache.clear()
    assert cache.stats()["declined"] == 0


def test_runtime_state_consumed_identically():
    """Inlined pure helpers must draw from the runtime exactly like the
    interpreted call path (same prandom sequence, same pid/time/cpu)."""
    asm = Asm()
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
        runtime = HelperRuntime(ktime_ns=777, pid_tgid=PID_TGID,
                                prandom=lambda: next(counter))
        result = vm.execute(insns, ctx, runtime)
        return (result.r0, result.steps, result.cost_ns, next(counter))

    runs = {tier: run(vm) for tier, vm in _fresh_tiers().items()}
    assert runs["reference"] == runs["compiled"]
    # exactly two prandom draws happened before the probe drew 102
    assert runs["reference"][-1] == 102


def test_compiled_source_is_inspectable():
    """compile_insns keeps the generated source for diagnostics."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    compiled = compile_insns(program.insns)
    assert "def _prog_" in compiled.source
    assert compiled.n == len(program.insns)


# ----------------------------------------------------------------------
# fused tracepoint dispatch: the firing's fields, inline programs
# ----------------------------------------------------------------------

_ENTER = ProgType.tracepoint_sys_enter()
_EXIT = ProgType.tracepoint_sys_exit()
_TRACEPOINT = {True: "raw_syscalls:sys_enter", False: "raw_syscalls:sys_exit"}


def _kernel():
    return Kernel(
        Environment(),
        MachineSpec(name="t", cores=1, ctx_switch_ns=0, syscall_overhead_ns=0),
        SeedSequence(1),
        interference=False,
    )


def _fire(kernel, firing):
    fire = kernel.tracepoints.fire_enter if firing.enter else kernel.tracepoints.fire_exit
    return fire(firing.pid_tgid, firing.nr, firing.arg, firing.ktime_ns)


def _field_program(size: MemSize, offsets, slots: str):
    """Store the ``size``-byte ctx load at each of ``offsets`` into its own
    u64 of ``slots[0]``."""
    asm = Asm()
    asm.mov_reg(Reg.R6, Reg.R1)
    asm.st_imm(MemSize.W, Reg.R10, -4, 0)
    asm.ld_map_fd(Reg.R1, slots)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "out")
    for index, offset in enumerate(offsets):
        asm.ldx(size, Reg.R3, Reg.R6, offset)
        asm.stx(MemSize.DW, Reg.R0, 8 * index, Reg.R3)
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


_FIELD_FIRINGS = [
    Firing(True, PID_TGID, 44, (), 10),
    Firing(True, (TGID << 32) | 0x8000_0005, 232, (3, (1 << 64) - 1, 1 << 63), 20),
    Firing(True, PID_TGID, 1, (-1, 2, -(1 << 63), 4, 5, 6, 7), 30),
    Firing(True, 0, -1, (0x0102_0304_0506_0708,) * 6, 40),
    Firing(False, PID_TGID, 232, -11, 50),
    Firing(False, (TGID << 32) | 0xFFFF_FFFF, 0, (1 << 63) - 1, 60),
    Firing(False, PID_TGID, -7, -(1 << 63), 70),
    Firing(False, PID_TGID, (1 << 64) - 3, (1 << 64) - 5, 80),
]


@pytest.mark.parametrize("enter", [True, False], ids=["sys_enter", "sys_exit"])
def test_inline_ctx_loads_read_the_packed_record(enter):
    """A ctx load at every in-record offset, with widths 1, 2, 4 and 8,
    reads through the fused dispatcher exactly the bytes
    ``pack_sys_enter``/``pack_sys_exit`` give for the same firing: header
    bytes, ``common_pid``, both halves of ``id``, args past ``len(args)``,
    negative ``ret``, values outside the signed range, and loads
    straddling two fields (which read the packed record)."""
    prog_type = _ENTER if enter else _EXIT
    kernel = _kernel()
    widths = {size: [off for off in range(prog_type.ctx_size - size.nbytes + 1)]
              for size in (MemSize.B, MemSize.H, MemSize.W, MemSize.DW)}
    maps = {f"w{size.nbytes}": ArrayMap(value_size=8 * len(offsets), max_entries=1)
            for size, offsets in widths.items()}
    bpf = BPF(kernel, maps=maps)
    for size, offsets in widths.items():
        name = f"w{size.nbytes}"
        bpf.load(Program(name, _field_program(size, offsets, name), prog_type))
        bpf.attach_tracepoint(_TRACEPOINT[enter], name)
    assert kernel.tracepoints.get(_TRACEPOINT[enter]).dispatcher().slots == ("inline",) * 4
    straddling = 0
    for firing in [f for f in _FIELD_FIRINGS if f.enter == enter]:
        assert _fire(kernel, firing) == 0
        record = firing.record()
        for size, offsets in widths.items():
            slots = maps[f"w{size.nbytes}"].lookup(maps[f"w{size.nbytes}"].key_of(0))
            for index, offset in enumerate(offsets):
                loaded = int.from_bytes(slots[8 * index:8 * index + 8], "little")
                assert loaded == int.from_bytes(record[offset:offset + size.nbytes], "little"), \
                    (firing, size, offset)
                straddling += field_load(prog_type.ctx_size, offset, size.nbytes) is None
    assert straddling  # both paths ran: field expressions and the packed record
    assert bpf.invocations == {name: sum(f.enter == enter for f in _FIELD_FIRINGS)
                               for name in maps}


def _fused_helpers_program(counts: str):
    """A straddling ctx load, the ``id``, prandom, ktime, pid_tgid and
    ``args[0]``/``ret`` folded into ``counts[0]``, with the syscall
    number's low bits as one printk character."""
    asm = Asm()
    asm.mov_reg(Reg.R6, Reg.R1)
    asm.ldx(MemSize.W, Reg.R7, Reg.R6, 6)
    asm.call(Helper.GET_PRANDOM_U32)
    asm.add_reg(Reg.R7, Reg.R0)
    asm.call(Helper.KTIME_GET_NS)
    asm.xor_reg(Reg.R7, Reg.R0)
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.add_reg(Reg.R7, Reg.R0)
    asm.ldx(MemSize.DW, Reg.R8, Reg.R6, 16)
    asm.add_reg(Reg.R7, Reg.R8)
    asm.ldx(MemSize.DW, Reg.R1, Reg.R6, 8)
    asm.and_imm(Reg.R1, 0x3F)
    asm.add_imm(Reg.R1, 0x40)
    asm.stx(MemSize.DW, Reg.R10, -16, Reg.R1)
    asm.mov_reg(Reg.R1, Reg.R10)
    asm.add_imm(Reg.R1, -16)
    asm.mov_imm(Reg.R2, 8)
    asm.call(Helper.TRACE_PRINTK)
    asm.st_imm(MemSize.W, Reg.R10, -4, 0)
    asm.ld_map_fd(Reg.R1, counts)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "out")
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, 0)
    asm.add_reg(Reg.R1, Reg.R7)
    asm.stx(MemSize.DW, Reg.R0, 0, Reg.R1)
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


def _member_specs(fuzz_insns):
    """(label, build(vm_tier) -> (programs, maps), pinned tier) per BPF
    member of the fused fuzz: the corpus, the helper program on both
    tracepoints (once on a BPF pinned to the reference tier), a declined
    program, and the fuzzed programs (by tracepoint) that verify."""

    def corpus(name):
        def build():
            programs, maps, _firings = dict(_corpus_cases())[name]()
            return programs, maps
        return build

    def helpers(prefix):
        def build():
            counts = ArrayMap(value_size=8, max_entries=1, name=f"{prefix}_counts")
            programs = [Program(f"{prefix}_{kind}", _fused_helpers_program(counts), prog_type)
                        for kind, prog_type in (("enter", _ENTER), ("exit", _EXIT))]
            return programs, {f"{prefix}_counts": counts}
        return build

    def declined():
        programs = [Program(f"declined_{kind}", _ctx_or_stack_pointer_program(), prog_type)
                    for kind, prog_type in (("enter", _ENTER), ("exit", _EXIT))]
        return programs, {}

    specs = [(name, corpus(name), None) for name, _ in _corpus_cases()]
    specs += [("helpers", helpers("helpers"), None),
              ("helpers-reference", helpers("pinned"), "reference"),
              ("declined", declined, None)]
    for kind, prog_type in (("enter", _ENTER), ("exit", _EXIT)):
        try:
            verify(fuzz_insns, prog_type)
        except VerifierError:
            continue
        specs.append((f"fuzz-{kind}", lambda kind=kind, prog_type=prog_type: (
            [Program(f"fuzz_{kind}", fuzz_insns, prog_type)], {}), None))
    return specs


class _FusedWorld:
    """One kernel with every member loaded, attached and detached on
    demand; with ``reference`` set every BPF member runs on the reference
    tier."""

    def __init__(self, specs, charge, reference: bool):
        self.kernel = _kernel()
        self.members = []
        for (label, build, tier), charge_cost in zip(specs, charge):
            programs, maps = build()
            bpf = BPF(self.kernel, maps=maps, charge_cost=charge_cost,
                      vm_tier="reference" if reference else tier)
            loaded = [bpf.load(program) for program in programs]
            kind = "record" if reference or tier or label == "declined" else "inline"
            self.members.append((label, bpf, maps, loaded, kind))
        self.native_log = []
        self.natives = [self._native(lambda nr: (nr % 5) * 7), self._native(lambda nr: None)]
        self.probes = []
        #: ``(member index, enter, slot kind)`` of each attached probe, in
        #: attach order.
        self.order = []

    def _native(self, cost):
        def enter(pid_tgid, nr, args, ktime_ns):
            self.native_log.append((id(enter), pid_tgid, nr, args, ktime_ns))
            return cost(nr)

        def exit_(pid_tgid, nr, ret, ktime_ns):
            self.native_log.append((id(exit_), pid_tgid, nr, ret, ktime_ns))
            return cost(nr)
        return enter, exit_

    def toggle(self, index):
        tracepoints = self.kernel.tracepoints
        if any(entry[0] == index for entry in self.order):
            if index < len(self.members):
                self.members[index][1].detach_all()
            else:
                enter, exit_ = self.natives[index - len(self.members)]
                tracepoints.sys_enter.detach(enter)
                tracepoints.sys_exit.detach(exit_)
            self.order = [entry for entry in self.order if entry[0] != index]
        elif index < len(self.members):
            _label, bpf, _maps, loaded, kind = self.members[index]
            for program in loaded:
                enter = program.prog_type == _ENTER
                bpf.attach_tracepoint(_TRACEPOINT[enter], program.name)
                self.probes.append(bpf._attached[-1][1])
                self.order.append((index, enter, kind))
        else:
            enter, exit_ = self.natives[index - len(self.members)]
            tracepoints.sys_enter.attach(enter)
            tracepoints.sys_exit.attach(exit_)
            self.order += [(index, True, "call"), (index, False, "call")]

    def check_slots(self):
        """Every dispatcher runs its attach set's probes in attach order,
        each in the slot kind its tier calls for."""
        for enter in (True, False):
            tracepoint = self.kernel.tracepoints.get(_TRACEPOINT[enter])
            expected = tuple(kind for _index, on_enter, kind in self.order if on_enter == enter)
            assert tracepoint.dispatcher().slots == expected

    def state(self):
        members = []
        for label, bpf, maps, loaded, _kind in self.members:
            draws = [self.kernel.seeds.stream(f"bpf:{program.name}:prandom").randint(0, 99)
                     for program in loaded]
            members.append((label, dict(bpf.invocations), dict(bpf.insns_executed),
                            {name: _map_state(m) for name, m in maps.items()}, draws))
        printed = [probe.runtime.printed for probe in self.probes]
        return members, printed, [entry[1:] for entry in self.native_log]


_arg_value = st.one_of(st.integers(0, 1 << 16), st.integers(1 << 63, (1 << 64) - 1),
                       st.integers(-(1 << 63), -1))


@st.composite
def _fuzz_firings(draw):
    enter = draw(st.booleans())
    if enter:
        arg = tuple(draw(st.lists(_arg_value, max_size=7)))
    else:
        arg = draw(_arg_value)
    pid_tgid = draw(st.sampled_from([PID_TGID, (99 << 32) | 99, (TGID << 32) | 0x8000_0007]))
    nr = draw(st.sampled_from([0, 1, 7, 23, 44, 232, 1000]))
    return Firing(enter, pid_tgid, nr, arg, draw(st.integers(0, 1 << 50)))


@given(fuzz_ops=st.lists(_op, min_size=0, max_size=20),
       schedule=st.lists(st.one_of(st.integers(0, 10), _fuzz_firings()), min_size=1, max_size=40),
       charge=st.lists(st.booleans(), min_size=9, max_size=9))
@settings(max_examples=100, **_FUZZ_SETTINGS)
def test_fused_dispatch_matches_reference(fuzz_ops, schedule, charge):
    """Random attach sets of compiled corpus and fuzzed programs, a
    declined program, a ``vm_tier="reference"`` BPF and native probes,
    attached and detached between firings with ``charge_cost`` on and off
    per BPF, fired with random arguments: the fused dispatcher equals the
    same attach sets on the reference tier in per-firing cost, final map
    bytes, ``invocations``/``insns_executed``, printk text and prandom
    draws, and runs exactly the compiled-tier programs inline."""
    specs = _member_specs(_build(fuzz_ops))
    worlds = [_FusedWorld(specs, charge, reference) for reference in (False, True)]
    costs = [[], []]
    for step in schedule:
        if isinstance(step, int):
            if step < len(specs) + 2:
                for world in worlds:
                    world.toggle(step)
            continue
        for world, out in zip(worlds, costs):
            world.check_slots()
            out.append(_fire(world.kernel, step))
    assert costs[0] == costs[1]
    assert worlds[0].state() == worlds[1].state()
