"""Differential suite for the compiled workload-sim tier.

The trace-specialized flat service loops (:mod:`repro.workloads.compiled`)
carry the same contract as the eBPF compiled tier: **bit-identical**
behaviour to the reference generator apps, or they are broken.  These
tests pin that contract across every registered workload in both
collection methodologies, across both eBPF VM tiers, and under every
fault kind, crash and restart included — plus the per-config fallback
rules themselves.  Identity is judged twice: by the ``LevelResult``
(``to_dict()``) and by the syscall trace a probe records, every
sys_enter and sys_exit with its timestamp, task, arguments and return
value, in firing order.

The cells here are deliberately small (identity does not need load); the
3x speed floor is gated by the full-size ``benchmarks/bench_e2e_cell.py``
baseline instead.
"""

import dataclasses

import pytest

from repro.analysis import ExperimentSpec, execute_cell
from repro.analysis.executor.spec import VM_TIERS
from repro.ebpf.bpfc import load_c
from repro.faults import (
    ChannelStall,
    ConnectionReset,
    ConsumerSchedule,
    FaultOrchestrator,
    SendFragmentation,
    SlowConsumer,
    WorkerCrash,
    WorkerStall,
    run_faulted_cell,
)
from repro.kernel import AMD_EPYC_7302, Kernel, MachineSpec, Sys
from repro.kernel.threads import KProcess
from repro.sim import SEC, Environment, SeedSequence
from repro.workloads import (
    DispatchPoolApp,
    ServiceModel,
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


def _traced(spec, setup=None, retry_timeout_ns=None):
    """Execute ``spec`` with a probe recording every syscall firing, then
    ``setup`` (if given) on the same handles.  Returns ``(result dict,
    trace, tier that ran)``; the trace holds ``("enter", ktime_ns,
    pid_tgid, syscall_nr, args)`` and ``("exit", ktime_ns, pid_tgid,
    syscall_nr, ret)`` tuples in firing order."""
    trace, ran = [], []

    def hook(handles):
        bus = handles.kernel.tracepoints
        bus.sys_enter.attach(lambda pid_tgid, nr, args, ktime_ns: trace.append(
            ("enter", ktime_ns, pid_tgid, nr, args)))
        bus.sys_exit.attach(lambda pid_tgid, nr, ret, ktime_ns: trace.append(
            ("exit", ktime_ns, pid_tgid, nr, ret)))
        ran.append(handles.app.sim_tier)
        if setup is not None:
            setup(handles)

    result = execute_cell(spec, setup=hook, retry_timeout_ns=retry_timeout_ns)
    return result.to_dict(), trace, ran[0]


def _assert_tiers_identical(spec, setup=None, retry_timeout_ns=None):
    """Run ``spec`` on each sim tier: the results and the syscall traces
    must be equal.  Returns the compiled run's result dict."""
    ref_result, ref_trace, ref_tier = _traced(
        spec.replace(sim_tier="reference"), setup, retry_timeout_ns)
    result, trace, tier = _traced(
        spec.replace(sim_tier="compiled"), setup, retry_timeout_ns)
    assert (ref_tier, tier) == ("reference", "compiled")
    assert result == ref_result
    assert trace == ref_trace
    return result


def test_rate_table_covers_registry():
    assert sorted(RATES) == sorted(workload_keys())


@pytest.mark.parametrize("workload", sorted(RATES))
@pytest.mark.parametrize("mode", ["vm", "stream"])
def test_compiled_sim_is_bit_identical(workload, mode):
    """Every workload, both methodologies: the flat loops must reproduce
    the generator apps' LevelResult exactly — every metric field,
    including the eBPF-side statistics and per-window estimates — and
    fire every syscall with the same fields at the same instant."""
    _assert_tiers_identical(_spec(workload, mode))


@pytest.mark.parametrize("workload", ["data-caching", "triton-grpc",
                                      "web-search"])
def test_identity_holds_across_vm_tiers(workload):
    """One archetype per app class: crossing the workload-sim tier with
    each eBPF VM tier must leave the metrics bit-identical (the two tier
    axes specialize independently)."""
    for vm_tier in VM_TIERS:
        _assert_tiers_identical(_spec(workload, vm_tier=vm_tier))


def test_auto_sim_tier_follows_vm_tier():
    spec = _spec("data-caching")
    assert spec.sim_tier == "auto"
    assert spec.replace(vm_tier="compiled").resolved_sim_tier == "compiled"
    assert spec.replace(vm_tier="reference").resolved_sim_tier == "reference"
    assert spec.replace(vm_tier="compiled",
                        sim_tier="reference").resolved_sim_tier == "reference"


def test_faulted_cell_runs_the_compiled_sim_tier(monkeypatch):
    """run_faulted_cell runs the tier the spec names: a default spec's
    crash-with-restart cell runs the flat loops, kills and respawns a
    worker, and equals the same cell on the reference tier."""
    tiers = []
    start = FaultOrchestrator.start

    def spy(orchestrator):
        tiers.append(orchestrator.app.sim_tier)
        return start(orchestrator)

    monkeypatch.setattr(FaultOrchestrator, "start", spy)
    spec = _spec("data-caching", requests=200)
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    faults = [WorkerCrash(at_ns=run_ns // 4, restart_after_ns=run_ns // 4)]
    compiled, report = run_faulted_cell(
        spec, faults=faults, retry_timeout_ns=run_ns // 2)
    reference, _ = run_faulted_cell(
        spec.replace(sim_tier="reference"), faults=faults,
        retry_timeout_ns=run_ns // 2)
    assert tiers == ["compiled", "reference"]
    assert (report.killed, report.respawned) == (1, 1)
    assert compiled.completed == spec.requests
    assert compiled.to_dict() == reference.to_dict()


@pytest.mark.parametrize("workload", ["silo", "triton-grpc", "web-search"])
def test_charged_probe_cost_is_bit_identical(workload):
    """With the probes' run time charged to the traced syscalls, every
    sys_exit costs time too: each flat wait point must pay its exit-cost
    timeout exactly where the generator loops do."""
    _assert_tiers_identical(_spec(workload, charge_cost=True))


def test_dispatch_hand_off_during_futex_entry_is_bit_identical():
    """triton-grpc at its knee with 2 ms of syscall entry overhead: a
    network thread hands an executor its request while the executor is
    still paying the futex entry cost, so the flat loop's proxy resume
    must dispatch exactly like the reference driver's re-schedule."""
    definition = get_workload("triton-grpc")
    machine = dataclasses.replace(AMD_EPYC_7302, syscall_overhead_ns=2_000_000)
    _assert_tiers_identical(ExperimentSpec(
        workload="triton-grpc", offered_rps=definition.paper_fail_rps,
        requests=300, monitor_mode="vm", charge_cost=True, machine=machine))


def test_dispatch_hand_off_on_a_shared_instant_is_bit_identical():
    """A triton-grpc variant on a 2 ms grid (deterministic 2 ms service,
    2 ms syscall entry overhead, no context-switch cost, 100 RPS, two
    executors on four cores): an executor's futex entry cost ends at the
    instant other tasks' syscall costs end, so its proxy resume must run
    after every event already due then, like the reference path's
    re-schedule; resuming in the same stint fires the futex exit first."""
    base = get_workload("triton-grpc")
    grid = WorkloadDefinition(
        key="triton-grid",
        label=f"{base.label} (2 ms grid)",
        suite=base.suite,
        app_class=base.app_class,
        config=base.config.with_overrides(
            name="triton-grid", workers=2,
            service=ServiceModel(mean_ns=2_000_000, distribution="deterministic")),
    )
    machine = dataclasses.replace(AMD_EPYC_7302, syscall_overhead_ns=2_000_000,
                                  ctx_switch_ns=0)
    register_workload(grid)
    try:
        _assert_tiers_identical(ExperimentSpec(
            workload=grid.key, offered_rps=100.0, requests=60,
            monitor_mode="vm", machine=machine))
    finally:
        assert unregister_workload(grid.key)


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
        _assert_tiers_identical(ExperimentSpec(
            workload=noisy.key, offered_rps=RATES[workload], requests=150,
            monitor_mode="vm"))
    finally:
        assert unregister_workload(noisy.key)


#: A probe summing ``args[0]`` over every epoll_wait.
EPOLL_FD_SUM = """
BPF_HASH(total, u64, u64);
TRACEPOINT_PROBE(raw_syscalls, sys_enter) {
    if (args->id != EPOLL_WAIT) return 0;
    u64 key = 0;
    u64 sum = args->args[0];
    u64 *seen = total.lookup(&key);
    if (seen) sum += *seen;
    total.update(&key, &sum);
    return 0;
}
"""


def test_syscall_args_name_fd_numbers():
    """epoll_wait's ``args[0]`` is the epoll instance's fd number, not a
    memory address: a probe's sum over a 100-request data-caching cell is
    the same on every run and on both sim tiers."""
    sums = []
    for tier in ("reference", "compiled", "reference", "compiled"):
        live = {}

        def setup(handles):
            live["bpf"] = load_c(handles.kernel, EPOLL_FD_SUM,
                                 constants={"EPOLL_WAIT": Sys.EPOLL_WAIT})

        execute_cell(_spec("data-caching", requests=100, sim_tier=tier),
                     setup=setup)
        sums.append(live["bpf"]["total"].lookup_int(0))
    assert sums[0] > 0
    assert sums == [sums[0]] * 4


# ----------------------------------------------------------------------
# faulted cells
# ----------------------------------------------------------------------

#: One app per archetype, with the task-name match its crash victims need.
ARCHETYPES = {"silo": "/w", "triton-grpc": "/exec", "web-search": "/fe"}
FAULT_KINDS = ("stall", "crash", "crash-restart", "reset", "fragmentation",
               "channel-stall")


def _half_knee_spec(workload, mode="vm"):
    definition = get_workload(workload)
    return ExperimentSpec(workload=workload, offered_rps=definition.paper_fail_rps / 2,
                          requests=300, monitor_mode=mode)


def _fault(kind, run_ns, match):
    """``(fault, the FaultReport counts it leaves)`` over a cell of
    ``run_ns``: each fault fires once."""
    return {
        "stall": (WorkerStall(at_ns=run_ns // 3, duration_ns=run_ns // 10),
                  {"stalls": 1}),
        "crash": (WorkerCrash(at_ns=run_ns // 3, match=match),
                  {"killed": 1, "respawned": 0}),
        "crash-restart": (WorkerCrash(at_ns=run_ns // 3,
                                      restart_after_ns=run_ns // 4,
                                      match=match),
                          {"killed": 1, "respawned": 1}),
        "reset": (ConnectionReset(at_ns=run_ns // 3, connections=4),
                  {"resets": 4}),
        "fragmentation": (SendFragmentation(at_ns=run_ns // 3,
                                            duration_ns=run_ns // 3),
                          {"fragmentations": 1}),
        "channel-stall": (ChannelStall(at_ns=run_ns // 3,
                                       duration_ns=run_ns // 10),
                          {"channel_stalls": 1}),
    }[kind]


@pytest.mark.parametrize("workload,kind,mode", [
    # vm cells carry no mode suffix in their ids.
    pytest.param(workload, kind, mode,
                 id=f"{workload}-{kind}" + ("-stream" if mode == "stream" else ""))
    for mode in ("vm", "stream")
    for workload in ARCHETYPES
    for kind in FAULT_KINDS + (("slow-consumer",) if mode == "stream" else ())
])
def test_armed_fault_is_bit_identical(workload, kind, mode):
    """Every fault kind, armed through execute_cell's setup hook at half
    the failure RPS, on each archetype in both methodologies: an injected
    CPU stall lands in the compute slice loop, a crash unwinds a flat
    worker at its wait point (and a restart re-enters its body, which
    self-drives again), a reset flushes queues under the recv and poll
    blocks, fragmentation splits responses, a channel stall starves the
    poll wait, and a paused consumer drops perf records.  Every request
    completes, except under a crash without restart on a
    connection-owning worker: silo's and web-search's victims orphan
    their connections, while triton-grpc's surviving executors drain the
    shared dispatch queue."""
    spec = _half_knee_spec(workload, mode)
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    armed = []
    if kind == "slow-consumer":
        spec = spec.replace(stream_capacity=8)
        schedule = ConsumerSchedule(drain_interval_ns=run_ns // 40,
                                    pause_every_ns=run_ns // 4,
                                    pause_for_ns=run_ns // 8)

        def setup(handles):
            monitor = handles.monitor
            armed.append(SlowConsumer(
                handles.env, (monitor.send_collector, monitor.recv_collector),
                schedule).start())
    else:
        fault, counts = _fault(kind, run_ns, ARCHETYPES[workload])

        def setup(handles):
            armed.append(FaultOrchestrator(
                handles.env, handles.kernel, handles.app, [fault]).start())

    result = _assert_tiers_identical(spec, setup, retry_timeout_ns=run_ns // 2)
    if kind == "slow-consumer":
        assert [consumer.pauses > 0 for consumer in armed] == [True, True]
        assert result["lost_records"] > 0
    else:
        for orchestrator in armed:
            report = orchestrator.report
            assert {name: getattr(report, name) for name in counts} == counts
    orphaned = kind == "crash" and workload != "triton-grpc"
    assert (result["completed"] == spec.requests) != orphaned


def test_crash_of_queued_victims_is_bit_identical(monkeypatch):
    """xapian at 1.5x its failure RPS, three workers killed and
    restarted: some victims wait for a core when they die, so kill_thread
    must withdraw each one's claim at the call on both tiers."""
    withdrawn = []
    kill = KProcess.kill_thread

    def spy(process, task, cause="killed"):
        queued = process.kernel.cpu.run_queue_len
        killed = kill(process, task, cause)
        withdrawn.append(queued - process.kernel.cpu.run_queue_len)
        return killed

    monkeypatch.setattr(KProcess, "kill_thread", spy)
    definition = get_workload("xapian")
    spec = ExperimentSpec(workload="xapian", offered_rps=1.5 * definition.paper_fail_rps,
                          requests=300, monitor_mode="vm")
    run_ns = int(spec.requests * SEC / spec.offered_rps)
    fault = WorkerCrash(at_ns=run_ns // 3, restart_after_ns=run_ns // 4, count=3)
    _assert_tiers_identical(
        spec,
        lambda handles: FaultOrchestrator(
            handles.env, handles.kernel, handles.app, [fault]).start(),
        retry_timeout_ns=run_ns // 2)
    assert len(withdrawn) == 6
    assert withdrawn[:3] == withdrawn[3:]
    assert any(withdrawn)


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
