"""Per-CPU delta-state sharding (the per-CPU-map discipline).

With ``cpus > 1`` the delta collector keys its array by
``bpf_get_smp_processor_id()`` — one slot per simulated CPU, no
cross-CPU write sharing — and merges the shards at window close.
These tests pin that the sharded configuration is:

* identical between vm and native modes,
* identical across both VM tiers,
* byte-identical to the historical program when ``cpus == 1``,
* equal to the unsharded statistics when only one shard is active.
"""

import pytest

from repro.core import CollectorConfig, DeltaCollector, RequestMetricsMonitor
from repro.core.collectors import build_delta_program
from repro.ebpf import VM_TIERS
from repro.kernel import Kernel, MachineSpec, Sys, SyscallSpec
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    return Kernel(Environment(), spec, SeedSequence(1), interference=False)


def _threaded_server(kernel, workers=3, sends=6, period_ms=2):
    """One process, ``workers`` threads, each answering its own connection."""
    env = kernel.env
    proc = kernel.create_process("srv")
    endpoints = []
    for _ in range(workers):
        client, server = kernel.open_connection()
        endpoints.append(client)

        def worker(task, server=server):
            ep = yield from task.sys_epoll_create1()
            yield from task.sys_epoll_ctl(ep, server)
            for _ in range(sends):
                yield from task.sys_epoll_wait(ep)
                msg = yield from task.sys_recv(Sys.READ, server)
                yield from task.sys_send(Sys.SENDMSG, server, Message(size=msg.size))

        proc.spawn_thread(worker)

    def driver():
        for round_ in range(sends):
            for offset, client in enumerate(endpoints):
                yield env.timeout(period_ms * MSEC // len(endpoints))
                client.send(Message(size=64))

    env.process(driver())
    return proc


@pytest.mark.parametrize("cpus", [1, 2, 3])
class TestShardedVmNativeEquivalence:
    def test_identical_snapshots(self, cpus):
        snaps = []
        for mode in ("native", "vm"):
            kernel = _kernel()
            proc = _threaded_server(kernel)
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(mode=mode, cpus=cpus)
            ).attach()
            kernel.env.run()
            snaps.append(collector.snapshot())
        assert snaps[0] == snaps[1]
        assert snaps[0].events == 18

    def test_identical_after_window_reset(self, cpus):
        snaps = []
        for mode in ("native", "vm"):
            kernel = _kernel()
            proc = _threaded_server(kernel)
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(mode=mode, cpus=cpus)
            ).attach()
            kernel.env.run(until=6 * MSEC)
            first = collector.snapshot()
            collector.reset_window()
            kernel.env.run()
            snaps.append((first, collector.snapshot()))
        assert snaps[0] == snaps[1]


class TestShardedTierIdentity:
    def test_all_tiers_identical(self):
        results = []
        for tier in VM_TIERS:
            kernel = _kernel()
            proc = _threaded_server(kernel)
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG],
                CollectorConfig(mode="vm", cpus=2, vm_tier=tier)
            ).attach()
            kernel.env.run()
            results.append((collector.snapshot(),
                            dict(collector.bpf.invocations),
                            dict(collector.bpf.insns_executed)))
        assert results[0] == results[1]


class TestShardingSemantics:
    def test_cpus_1_program_is_byte_identical(self):
        """The default configuration emits the historical program exactly."""
        legacy = build_delta_program("m", 7, (Sys.SENDMSG,))
        explicit = build_delta_program("m", 7, (Sys.SENDMSG,), cpus=1)
        assert [str(i) for i in legacy.insns] == [str(i) for i in explicit.insns]

    def test_sharded_program_adds_smp_key(self):
        sharded = build_delta_program("m", 7, (Sys.SENDMSG,), cpus=4)
        legacy = build_delta_program("m", 7, (Sys.SENDMSG,))
        assert len(sharded.insns) == len(legacy.insns) + 1

    def test_single_active_shard_matches_unsharded(self):
        """One thread -> one shard -> identical to the cpus=1 statistics."""
        snaps = []
        for cpus in (1, 4):
            kernel = _kernel()
            proc = _threaded_server(kernel, workers=1)
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(mode="vm", cpus=cpus)
            ).attach()
            kernel.env.run()
            snaps.append(collector.snapshot())
        assert snaps[0] == snaps[1]

    def test_out_of_range_cpu_drops_in_both_modes(self):
        """A cpu_of outside [0, cpus) finds no slot, in vm and native alike."""
        snaps = []
        for mode in ("native", "vm"):
            kernel = _kernel()
            proc = _threaded_server(kernel, workers=2)
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(mode=mode, cpus=2),
                cpu_of=lambda ctx: 5,
            ).attach()
            kernel.env.run()
            snaps.append(collector.snapshot())
        assert snaps[0] == snaps[1]
        assert snaps[0].events == 0

    def test_merged_events_sum_over_shards(self):
        kernel = _kernel()
        proc = _threaded_server(kernel, workers=3, sends=4)
        collector = DeltaCollector(
            kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(mode="vm", cpus=3)
        ).attach()
        kernel.env.run()
        stats = collector.snapshot()
        assert stats.events == 12
        # Each shard's trace contributes events-1 deltas.
        assert stats.count == 9

    def test_monitor_passes_cpus_through(self):
        kernel = _kernel()
        proc = _threaded_server(kernel, workers=2)
        monitor = RequestMetricsMonitor(
            kernel, proc.pid, spec=SyscallSpec.data_caching(),
            config=CollectorConfig(mode="vm", cpus=2)
        ).attach()
        kernel.env.run()
        snap = monitor.snapshot()
        assert snap.send.events == 12
        assert monitor.send_collector.cpus == 2
