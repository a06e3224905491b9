"""Collector and monitor tests, including VM/native equivalence."""

import pytest

from repro.core import CollectorConfig, DeltaCollector, DurationCollector, RequestMetricsMonitor
from repro.core.collectors import build_delta_program, build_duration_programs
from repro.core.streaming import build_streaming_program
from repro.ebpf import VM_TIERS, Asm, Insn
from repro.kernel import Kernel, MachineSpec, Sys, SyscallSpec
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    return Kernel(Environment(), spec, SeedSequence(1), interference=False)


def _echo_server(kernel, sends=5, period_ms=2, recv=Sys.READ, send=Sys.SENDMSG):
    """Spawn a worker answering `sends` requests, arriving every period."""
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()

    def worker(task):
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        for _ in range(sends):
            yield from task.sys_epoll_wait(ep)
            msg = yield from task.sys_recv(recv, server)
            yield from task.sys_send(send, server, Message(size=msg.size))

    proc.spawn_thread(worker)

    def driver():
        for _ in range(sends):
            yield env.timeout(period_ms * MSEC)
            client.send(Message(size=64))

    env.process(driver())
    return proc


@pytest.mark.parametrize("mode", ["native", "vm"])
class TestDeltaCollector:
    def test_counts_and_deltas(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=5, period_ms=2)
        collector = DeltaCollector(kernel, proc.pid, [Sys.SENDMSG], mode).attach()
        kernel.env.run()
        stats = collector.snapshot()
        assert stats.events == 5
        assert stats.count == 4
        # Sends track the 2ms arrival cadence.
        assert stats.mean_delta_ns() == pytest.approx(2 * MSEC, rel=0.01)

    def test_rps_obsv_matches_rate(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=20, period_ms=1)
        collector = DeltaCollector(kernel, proc.pid, [Sys.SENDMSG], mode).attach()
        kernel.env.run()
        assert collector.snapshot().rps_obsv() == pytest.approx(1000.0, rel=0.01)

    def test_filters_syscall(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=5)
        collector = DeltaCollector(kernel, proc.pid, [Sys.SENDTO], mode).attach()
        kernel.env.run()
        assert collector.snapshot().events == 0  # server used sendmsg

    def test_filters_tgid(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=5)
        collector = DeltaCollector(kernel, proc.pid + 999, [Sys.SENDMSG], mode).attach()
        kernel.env.run()
        assert collector.snapshot().events == 0

    def test_reset_window_continuity(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=6, period_ms=2)
        collector = DeltaCollector(kernel, proc.pid, [Sys.SENDMSG], mode).attach()
        kernel.env.run(until=7 * MSEC)  # 3 sends seen
        first = collector.snapshot()
        collector.reset_window()
        kernel.env.run()
        second = collector.snapshot()
        assert first.events == 3
        assert second.count == 3  # deltas 3->4, 4->5, 5->6 (boundary spanned)

    def test_requires_syscalls(self, mode):
        kernel = _kernel()
        with pytest.raises(ValueError):
            DeltaCollector(kernel, 1, [], mode)

    def test_double_attach_rejected(self, mode):
        kernel = _kernel()
        collector = DeltaCollector(kernel, 1, [Sys.SENDMSG], mode).attach()
        with pytest.raises(RuntimeError):
            collector.attach()


@pytest.mark.parametrize("mode", ["native", "vm"])
class TestDurationCollector:
    def test_epoll_durations_accumulate(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=4, period_ms=3)
        collector = DurationCollector(kernel, proc.pid, [Sys.EPOLL_WAIT], mode).attach()
        kernel.env.run()
        stats = collector.snapshot()
        assert stats.count == 4
        # Worker is always idle-waiting the full 3ms between arrivals.
        assert stats.mean_ns() == pytest.approx(3 * MSEC, rel=0.01)

    def test_reset(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=4)
        collector = DurationCollector(kernel, proc.pid, [Sys.EPOLL_WAIT], mode).attach()
        kernel.env.run()
        collector.reset_window()
        assert collector.snapshot().count == 0


def _threaded_server(kernel, workers=3, sends=6, period_ms=2):
    """One process, ``workers`` threads, each answering its own connection."""
    env = kernel.env
    proc = kernel.create_process("srv")
    clients = []
    for _ in range(workers):
        client, server = kernel.open_connection()
        clients.append(client)

        def worker(task, server=server):
            ep = yield from task.sys_epoll_create1()
            yield from task.sys_epoll_ctl(ep, server)
            for _ in range(sends):
                yield from task.sys_epoll_wait(ep)
                msg = yield from task.sys_recv(Sys.READ, server)
                yield from task.sys_send(Sys.SENDMSG, server, Message(size=msg.size))

        proc.spawn_thread(worker)

    def driver():
        for _ in range(sends):
            for client in clients:
                yield env.timeout(period_ms * MSEC // workers)
                client.send(Message(size=64))

    env.process(driver())
    return proc


class TestThreadsFoldIntoOneTrace:
    """§IV-C-1: every thread of the process feeds one delta trace."""

    @staticmethod
    def _collector(config):
        kernel = _kernel()
        proc = _threaded_server(kernel)
        collector = DeltaCollector(kernel, proc.pid, [Sys.SENDMSG], config).attach()
        return kernel, collector

    def test_vm_equals_native_snapshots(self):
        snaps = []
        for mode in ("native", "vm"):
            kernel, collector = self._collector(mode)
            kernel.env.run()
            snaps.append(collector.snapshot())
        assert snaps[0] == snaps[1]
        # 3 threads x 6 sends in one trace: 18 events, 17 deltas.
        assert (snaps[0].events, snaps[0].count) == (18, 17)

    def test_vm_tiers_identical(self):
        results = []
        for tier in VM_TIERS:
            kernel, collector = self._collector(CollectorConfig(mode="vm", vm_tier=tier))
            kernel.env.run()
            results.append((collector.snapshot(),
                            dict(collector.bpf.invocations),
                            dict(collector.bpf.insns_executed)))
        assert results[0] == results[1]

    def test_vm_equals_native_across_a_window_reset(self):
        windows = []
        for mode in ("native", "vm"):
            kernel, collector = self._collector(mode)
            kernel.env.run(until=6 * MSEC)
            first = collector.snapshot()
            collector.reset_window()
            kernel.env.run()
            windows.append((first, collector.snapshot()))
        assert windows[0] == windows[1]
        first, second = windows[0]
        # The boundary-spanning delta belongs to the second window.
        assert first.events + second.events == 18
        assert first.count + second.count == 17


class TestVmNativeEquivalence:
    """The ABL-VM invariant: both modes compute identical statistics."""

    def _run(self, mode):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=12, period_ms=2)
        monitor = RequestMetricsMonitor(
            kernel, proc.pid, spec=SyscallSpec.data_caching(), config=mode
        ).attach()
        kernel.env.run()
        return monitor.snapshot()

    def test_identical_snapshots(self):
        native = self._run("native")
        vm = self._run("vm")
        assert native.send == vm.send
        assert native.recv == vm.recv
        assert native.poll == vm.poll


class TestMonitor:
    def test_snapshot_fields(self):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=10, period_ms=1)
        monitor = RequestMetricsMonitor(
            kernel, proc.pid, spec=SyscallSpec.data_caching()
        ).attach()
        kernel.env.run()
        snap = monitor.snapshot()
        assert snap.rps_obsv == pytest.approx(1000.0, rel=0.02)
        assert snap.rps_obsv_recv == pytest.approx(1000.0, rel=0.02)
        assert snap.poll.count == 10
        assert snap.poll_mean_duration_ns == pytest.approx(1 * MSEC, rel=0.02)
        assert snap.duration_ns == kernel.env.now

    def test_blackbox_mode_monitors_whole_families(self):
        """Without a SyscallSpec the monitor needs no app knowledge."""
        kernel = _kernel()
        proc = _echo_server(kernel, sends=5, recv=Sys.RECVFROM, send=Sys.SENDTO)
        monitor = RequestMetricsMonitor(kernel, proc.pid).attach()
        kernel.env.run()
        snap = monitor.snapshot()
        assert snap.send.events == 5
        assert snap.recv.events == 5

    def test_snapshot_requires_attach(self):
        kernel = _kernel()
        monitor = RequestMetricsMonitor(kernel, 1)
        with pytest.raises(RuntimeError):
            monitor.snapshot()

    def test_context_manager_detaches(self):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=3)
        with RequestMetricsMonitor(kernel, proc.pid) as monitor:
            kernel.env.run()
            assert monitor.snapshot().send.events == 3
        assert not kernel.tracepoints.any_probes

    def test_snapshot_reset_starts_new_window(self):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=10, period_ms=1)
        monitor = RequestMetricsMonitor(kernel, proc.pid,
                                        spec=SyscallSpec.data_caching()).attach()
        kernel.env.run(until=5 * MSEC)
        first = monitor.snapshot(reset=True)
        kernel.env.run()
        second = monitor.snapshot()
        assert first.window_start_ns == 0
        assert second.window_start_ns == 5 * MSEC
        assert first.poll.count + second.poll.count == 10


BUILDS = {
    "delta": lambda nrs: build_delta_program("s", 7, nrs, hist_map="h"),
    "duration-exit": lambda nrs: build_duration_programs("a", "b", 7, nrs)[1],
    "stream": lambda nrs: build_streaming_program("e", 7, nrs),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builders_assemble_once_and_hand_out_fresh_programs(name, monkeypatch):
    """A builder assembles once per argument tuple, a syscall list and
    tuple of the same numbers included; mutating a returned
    ``Program.insns`` leaves the next build unchanged."""
    build = BUILDS[name]
    first = build([0, 1])
    expected = list(first.insns)
    first.insns[0] = Insn(opcode=0x95)
    first.insns.append(Insn(opcode=0x95))
    assemblies = []
    real_build = Asm.build
    monkeypatch.setattr(Asm, "build", lambda asm: assemblies.append(asm) or real_build(asm))
    for nrs in ([0, 1], (0, 1)):
        again = build(nrs)
        assert again.insns == expected
        assert [insn.map_ref for insn in again.insns] == [insn.map_ref for insn in expected]
        assert again.insns is not first.insns
    assert assemblies == []
