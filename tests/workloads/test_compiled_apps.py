"""Differential suite for the compiled workload-sim tier.

The trace-specialized flat service loops (:mod:`repro.workloads.compiled`)
carry the same contract as the eBPF compiled tier: **bit-identical**
metrics to the reference generator apps, or they are broken.  These tests
pin that contract across every registered workload in both collection
methodologies, across both eBPF VM tiers, and through the fault
runner's forced fallback — plus the per-config fallback rules themselves.

The cells here are deliberately small (identity does not need load); the
3x speed floor is gated by the full-size ``benchmarks/bench_e2e_cell.py``
baseline instead.
"""

import dataclasses

import pytest

from repro.analysis import ExperimentSpec, execute_cell
from repro.analysis.executor.spec import VM_TIERS
from repro.faults import (
    ChannelStall,
    ConnectionReset,
    FaultOrchestrator,
    SendFragmentation,
    WorkerCrash,
    WorkerStall,
    run_faulted_cell,
)
from repro.kernel import AMD_EPYC_7302, Kernel, MachineSpec
from repro.sim import SEC, Environment, SeedSequence
from repro.workloads import (
    DispatchPoolApp,
    ThreadedPollApp,
    WorkloadDefinition,
    get_workload,
    register_workload,
    unregister_workload,
    workload_keys,
)

#: Per-workload offered rates comfortably inside each app's capacity.
RATES = {
    "data-caching": 4000.0,
    "img-dnn": 3000.0,
    "moses": 2500.0,
    "silo": 4000.0,
    "specjbb": 2000.0,
    "triton-grpc": 1500.0,
    "triton-http": 1200.0,
    "web-search": 2000.0,
    "xapian": 2500.0,
}


def _spec(workload, mode="vm", requests=150, **kw):
    return ExperimentSpec(workload=workload, offered_rps=RATES[workload],
                          requests=requests, monitor_mode=mode, **kw)


def _result(workload, mode, sim_tier, requests=150, **kw):
    return execute_cell(
        _spec(workload, mode, requests, sim_tier=sim_tier, **kw)
    ).to_dict()


def test_rate_table_covers_registry():
    assert sorted(RATES) == sorted(workload_keys())


@pytest.mark.parametrize("workload", sorted(RATES))
@pytest.mark.parametrize("mode", ["vm", "stream"])
def test_compiled_sim_is_bit_identical(workload, mode):
    """Every workload, both methodologies: the flat loops must reproduce
    the generator apps' LevelResult exactly — every metric field,
    including the eBPF-side statistics and per-window estimates."""
    assert _result(workload, mode, "reference") == \
        _result(workload, mode, "compiled")


@pytest.mark.parametrize("workload", ["data-caching", "triton-grpc",
                                      "web-search"])
def test_identity_holds_across_vm_tiers(workload):
    """One archetype per app class: crossing the workload-sim tier with
    each eBPF VM tier must leave the metrics bit-identical (the two tier
    axes specialize independently)."""
    for vm_tier in VM_TIERS:
        ref = execute_cell(_spec(workload, vm_tier=vm_tier,
                                 sim_tier="reference")).to_dict()
        comp = execute_cell(_spec(workload, vm_tier=vm_tier,
                                  sim_tier="compiled")).to_dict()
        assert ref == comp, f"{workload} diverged on vm_tier={vm_tier}"


def test_auto_sim_tier_follows_vm_tier():
    spec = _spec("data-caching")
    assert spec.sim_tier == "auto"
    assert spec.replace(vm_tier="compiled").resolved_sim_tier == "compiled"
    assert spec.replace(vm_tier="reference").resolved_sim_tier == "reference"
    assert spec.replace(vm_tier="compiled",
                        sim_tier="reference").resolved_sim_tier == "reference"


def test_faulted_cell_falls_back_to_generator_path():
    """A worker crash needs kill/respawn semantics the flat loops do not
    implement: the fault runner must force the reference tier even when
    the spec asks for the compiled one, and deliver the same result."""
    spec = _spec("data-caching", requests=200, sim_tier="compiled")
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    faults = [WorkerCrash(at_ns=run_ns // 4, restart_after_ns=run_ns // 4)]
    forced, report = run_faulted_cell(
        spec, faults=faults, retry_timeout_ns=run_ns // 2)
    explicit, _ = run_faulted_cell(
        spec.replace(sim_tier="reference"), faults=faults,
        retry_timeout_ns=run_ns // 2)
    assert report.killed >= 1
    assert forced.completed == spec.requests
    assert forced.to_dict() == explicit.to_dict()


@pytest.mark.parametrize("workload", ["silo", "triton-grpc", "web-search"])
def test_charged_probe_cost_is_bit_identical(workload):
    """With the probes' run time charged to the traced syscalls, every
    sys_exit costs time too: each flat wait point must pay its exit-cost
    timeout exactly where the generator loops do."""
    assert _result(workload, "vm", "reference", charge_cost=True) == \
        _result(workload, "vm", "compiled", charge_cost=True)


def test_dispatch_hand_off_during_futex_entry_is_bit_identical():
    """triton-grpc at its knee with 2 ms of syscall entry overhead: a
    network thread hands an executor its request while the executor is
    still paying the futex entry cost, so the flat loop's proxy resume
    must dispatch exactly like the reference driver's re-schedule."""
    definition = get_workload("triton-grpc")
    machine = dataclasses.replace(AMD_EPYC_7302, syscall_overhead_ns=2_000_000)
    spec = ExperimentSpec(workload="triton-grpc", offered_rps=definition.paper_fail_rps,
                          requests=300, monitor_mode="vm", charge_cost=True,
                          machine=machine)
    assert execute_cell(spec.replace(sim_tier="reference")).to_dict() == \
        execute_cell(spec.replace(sim_tier="compiled")).to_dict()


@pytest.mark.parametrize("workload", ["silo", "triton-grpc"])
def test_log_writes_and_chunked_sends_are_bit_identical(workload):
    """A variant that logs on 30 % of requests and answers in 1-3 sends:
    the flat respond must draw chunk and log noise in the reference
    order and issue the same send and write syscalls."""
    base = get_workload(workload)
    noisy = WorkloadDefinition(
        key=f"{workload}-noisy",
        label=f"{base.label} (noisy)",
        suite=base.suite,
        app_class=base.app_class,
        config=base.config.with_overrides(name=f"{workload}-noisy",
                                          log_write_prob=0.3,
                                          sends_per_request=(1, 3)),
    )
    register_workload(noisy)
    try:
        spec = ExperimentSpec(workload=noisy.key, offered_rps=RATES[workload],
                              requests=150, monitor_mode="vm")
        assert execute_cell(spec.replace(sim_tier="reference")).to_dict() == \
            execute_cell(spec.replace(sim_tier="compiled")).to_dict()
    finally:
        assert unregister_workload(noisy.key)


def _armed_on_both_tiers(spec, fault, retry_timeout_ns=None):
    """Run ``spec`` on each sim tier with ``fault`` armed through
    execute_cell's setup hook; returns ``{tier: (result dict, report)}``."""
    runs = {}
    for tier in ("reference", "compiled"):
        live = {}

        def setup(handles):
            live["tier"] = handles.app.sim_tier
            live["faults"] = FaultOrchestrator(
                handles.env, handles.kernel, handles.app, [fault]).start()

        result = execute_cell(spec.replace(sim_tier=tier), setup=setup,
                              retry_timeout_ns=retry_timeout_ns).to_dict()
        assert live["tier"] == tier
        runs[tier] = (result, live["faults"].report)
    return runs


def _half_knee_spec(workload, mode="vm"):
    definition = get_workload(workload)
    return ExperimentSpec(workload=workload, offered_rps=definition.paper_fail_rps / 2,
                          requests=300, monitor_mode=mode)


@pytest.mark.parametrize("mode", ["vm", "stream"])
@pytest.mark.parametrize("workload", ["silo", "triton-grpc", "web-search"])
def test_send_fragmentation_is_bit_identical(workload, mode):
    """A SendFragmentation fault over the middle third of a cell at half
    the failure RPS, armed on an explicit compiled-tier cell: the flat
    loops must split responses (and the two-tier relay) exactly where the
    generator loops do, drawing chunk noise only when those do."""
    spec = _half_knee_spec(workload, mode)
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    fault = SendFragmentation(at_ns=run_ns // 3, duration_ns=run_ns // 3)
    runs = _armed_on_both_tiers(spec, fault)
    for _result_dict, report in runs.values():
        assert report.fragmentations == 1
    assert runs["compiled"][0] == runs["reference"][0]


@pytest.mark.parametrize("kind", ["stall", "reset", "channel-stall"])
@pytest.mark.parametrize("workload", ["silo", "triton-grpc", "web-search"])
def test_armed_fault_is_bit_identical(workload, kind):
    """Faults the flat loops need no hook for, armed on both tiers at
    half the failure RPS: an injected CPU stall lands in the compute
    slice loop, a connection reset flushes queues under the recv and
    poll blocks, and a channel stall starves the poll wait."""
    spec = _half_knee_spec(workload)
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    fault, counter = {
        "stall": (WorkerStall(at_ns=run_ns // 3, duration_ns=run_ns // 10),
                  "stalls"),
        "reset": (ConnectionReset(at_ns=run_ns // 3, connections=4), "resets"),
        "channel-stall": (ChannelStall(at_ns=run_ns // 3,
                                       duration_ns=run_ns // 10),
                          "channel_stalls"),
    }[kind]
    runs = _armed_on_both_tiers(spec, fault, retry_timeout_ns=run_ns // 2)
    for result_dict, report in runs.values():
        assert getattr(report, counter) >= 1
        assert result_dict["completed"] == spec.requests
    assert runs["compiled"][0] == runs["reference"][0]


@pytest.mark.parametrize("workload,match", [
    ("silo", "/w"), ("data-caching", "/w"), ("triton-grpc", "/exec")])
def test_worker_crash_on_compiled_tier_is_rejected(workload, match):
    """A WorkerCrash armed through execute_cell's setup hook on a
    compiled-tier cell is refused when the orchestrator starts: the flat
    workers are self-driven, so a kill would leave their next event to
    resume a closed generator."""
    definition = get_workload(workload)
    spec = ExperimentSpec(workload=workload, offered_rps=definition.paper_fail_rps / 2,
                          requests=300, monitor_mode="vm")
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    fault = WorkerCrash(at_ns=run_ns // 3, restart_after_ns=run_ns // 3, match=match)

    def setup(handles):
        assert handles.app.sim_tier == "compiled"
        FaultOrchestrator(handles.env, handles.kernel, handles.app, [fault]).start()

    with pytest.raises(ValueError, match=r"WorkerCrash.*compiled.*run_faulted_cell"):
        execute_cell(spec, setup=setup, retry_timeout_ns=run_ns // 2)


def test_killing_a_self_driven_worker_raises_at_the_call():
    """kill_thread on a flat worker (silo at 1000 RPS, one /w task killed
    at 50 ms from a setup-hook process) raises at the call and leaves the
    worker running, instead of closing a generator whose engine callbacks
    would later resume it into a bare StopIteration."""
    spec = ExperimentSpec(workload="silo", offered_rps=1000.0, requests=300,
                          monitor_mode="vm")
    seen = []

    def setup(handles):
        assert handles.app.sim_tier == "compiled"
        process = handles.app.process

        def killer():
            yield handles.env.timeout(50_000_000)
            victim = next(task for task in process.tasks if "/w" in task.name)
            with pytest.raises(RuntimeError,
                               match=r"compiled sim tier.*run_faulted_cell"):
                process.kill_thread(victim)
            seen.append(victim.sim_process.is_alive)

        handles.env.process(killer())

    result = execute_cell(spec, setup=setup)
    assert seen == [True]
    assert result.to_dict() == execute_cell(spec).to_dict()


# ----------------------------------------------------------------------
# fallback rules
# ----------------------------------------------------------------------

def _started_app(definition, sim_tier="compiled", config=None):
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0,
                       syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(7), interference=False)
    app = definition.app_class(kernel, config or definition.config, None, None)
    app.requested_sim_tier = sim_tier
    return app.start()


def test_supported_configs_specialize():
    assert _started_app(get_workload("data-caching")).sim_tier == "compiled"
    assert _started_app(get_workload("triton-grpc")).sim_tier == "compiled"
    assert _started_app(get_workload("web-search")).sim_tier == "compiled"


def test_io_uring_falls_back():
    definition = get_workload("data-caching")
    config = dataclasses.replace(definition.config, io_uring=True)
    app = _started_app(definition, config=config)
    assert isinstance(app, ThreadedPollApp)
    assert app.sim_tier == "reference"


def test_dynamic_batching_falls_back():
    definition = get_workload("triton-grpc")
    config = dataclasses.replace(definition.config, batch_max=4,
                                 batch_window_ns=100_000)
    app = _started_app(definition, config=config)
    assert isinstance(app, DispatchPoolApp)
    assert app.sim_tier == "reference"


def test_subclass_falls_back():
    """Specialization keys on the *exact* app class: a subclass may have
    overridden any hook the flat loops inline past."""
    definition = get_workload("data-caching")

    class TweakedApp(ThreadedPollApp):
        pass

    tweaked = dataclasses.replace(definition, app_class=TweakedApp)
    assert _started_app(tweaked).sim_tier == "reference"


def test_reference_request_never_specializes():
    app = _started_app(get_workload("data-caching"), sim_tier="reference")
    assert app.sim_tier == "reference"


def test_unknown_tier_rejected():
    with pytest.raises(ValueError, match="unknown sim tier"):
        _started_app(get_workload("data-caching"), sim_tier="jit")
