"""run_level must be monitor-mode-invariant: with cost charging off, the
interpreted-eBPF and native collectors are pure observers, so every single
result field — ground truth and observations alike — must match exactly."""

import pytest

from repro.analysis import ExperimentSpec, run_level
from repro.core import DeltaCollector, StreamingDeltaCollector
from repro.kernel import Kernel, MachineSpec, Sys
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence
from repro.workloads import get_workload


@pytest.mark.parametrize("key", ["data-caching", "xapian", "triton-grpc"])
def test_run_level_identical_across_monitor_modes(key):
    definition = get_workload(key)
    spec = ExperimentSpec(workload=key,
                          offered_rps=definition.paper_fail_rps * 0.6,
                          requests=400)
    native = run_level(spec.replace(monitor_mode="native"))
    vm = run_level(spec.replace(monitor_mode="vm"))
    assert native.to_dict() == vm.to_dict()


def _two_sender_kernel(sends=8, period_ms=2):
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(1), interference=False)
    env = kernel.env
    proc = kernel.create_process("srv")
    clients = []

    def make_worker(server):
        def worker(task):
            ep = yield from task.sys_epoll_create1()
            yield from task.sys_epoll_ctl(ep, server)
            for _ in range(sends):
                yield from task.sys_epoll_wait(ep)
                msg = yield from task.sys_read(server)
                yield from task.sys_sendmsg(server, Message(size=msg.size))
        return worker

    for _ in range(2):
        client, server = kernel.open_connection()
        clients.append(client)
        proc.spawn_thread(make_worker(server))

    def driver():
        for _ in range(sends):
            for client in clients:
                yield env.timeout(period_ms * MSEC)
                client.send(Message(size=64))

    env.process(driver())
    return kernel, proc


def test_windowed_streaming_matches_in_kernel_per_window():
    """The paper's two methodologies observing one run: per-window delta
    statistics from two threads' perf stream must equal the in-kernel
    collector's windows, including the carried-anchor event accounting
    across every reset boundary."""
    kernel, proc = _two_sender_kernel(sends=8, period_ms=2)
    streamed = StreamingDeltaCollector(
        kernel, proc.pid, [Sys.SENDMSG]
    ).attach()
    in_kernel = DeltaCollector(kernel, proc.pid, [Sys.SENDMSG], "vm").attach()
    windows = []

    def windower():
        while True:
            yield kernel.env.timeout(5 * MSEC)
            windows.append((streamed.snapshot(), in_kernel.snapshot()))
            streamed.reset_window()
            in_kernel.reset_window()

    kernel.env.process(windower())
    kernel.env.run(until=35 * MSEC)
    windows.append((streamed.snapshot(), in_kernel.snapshot()))

    assert len(windows) == 8  # 7 windower firings (incl. t=35ms) + final
    for from_stream, from_kernel in windows:
        assert from_stream == from_kernel
    assert sum(w.events for w, _ in windows) == 16  # every send in one window


def test_charge_cost_breaks_equivalence_as_expected():
    """With cost charging ON the vm mode perturbs syscall timing — that is
    the whole overhead experiment, so the results must differ."""
    definition = get_workload("data-caching")
    spec = ExperimentSpec(workload="data-caching",
                          offered_rps=definition.paper_fail_rps * 0.6,
                          requests=400, monitor_mode="vm")
    free = run_level(spec.replace(charge_cost=False))
    charged = run_level(spec.replace(charge_cost=True))
    assert charged.sim_duration_ns != free.sim_duration_ns
