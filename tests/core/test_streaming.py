"""Tests for the stream-to-userspace collector (§III's first methodology)."""

import pytest

from repro.core import (
    CollectorConfig,
    DeltaCollector,
    RequestMetricsMonitor,
    StreamingDeltaCollector,
)
from repro.core.streaming import RECORD_SIZE
from repro.kernel import Kernel, MachineSpec, Sys
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    return Kernel(Environment(), spec, SeedSequence(1), interference=False)


def _echo_server(kernel, sends=8, period_ms=2):
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()

    def worker(task):
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        for _ in range(sends):
            yield from task.sys_epoll_wait(ep)
            msg = yield from task.sys_read(server)
            yield from task.sys_sendmsg(server, Message(size=msg.size))

    proc.spawn_thread(worker)

    def driver():
        for _ in range(sends):
            yield env.timeout(period_ms * MSEC)
            client.send(Message(size=64))

    env.process(driver())
    return proc


def test_streams_records_with_timestamps():
    kernel = _kernel()
    proc = _echo_server(kernel, sends=5, period_ms=2)
    collector = StreamingDeltaCollector(kernel, proc.pid, [Sys.SENDMSG]).attach()
    kernel.env.run()
    records = collector.drain()
    assert len(records) == 5
    timestamps = [t for t, _nr in records]
    assert timestamps == sorted(timestamps)
    assert all(nr == Sys.SENDMSG for _t, nr in records)
    assert collector.bytes_streamed == 5 * RECORD_SIZE


def test_statistics_match_in_kernel_collector():
    """Streaming + userspace math == in-kernel math, when nothing drops."""
    def run(collector_cls):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=10, period_ms=3)
        if collector_cls is StreamingDeltaCollector:
            collector = collector_cls(kernel, proc.pid, [Sys.SENDMSG]).attach()
        else:
            collector = collector_cls(kernel, proc.pid, [Sys.SENDMSG], "vm").attach()
        kernel.env.run()
        return collector.snapshot()

    streamed = run(StreamingDeltaCollector)
    in_kernel = run(DeltaCollector)
    assert streamed == in_kernel


def test_filters_tgid_and_syscall():
    kernel = _kernel()
    proc = _echo_server(kernel, sends=4)
    collector = StreamingDeltaCollector(kernel, proc.pid, [Sys.SENDTO]).attach()
    kernel.env.run()
    assert collector.snapshot().events == 0


def test_full_buffer_drops_records():
    """The operational hazard of streaming: slow consumers lose data."""
    kernel = _kernel()
    proc = _echo_server(kernel, sends=10, period_ms=1)
    collector = StreamingDeltaCollector(
        kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(capacity=4)
    ).attach()
    kernel.env.run()  # no draining while the workload runs
    assert collector.lost_records == 6
    assert collector.snapshot().events == 4


def test_periodic_draining_prevents_drops():
    kernel = _kernel()
    proc = _echo_server(kernel, sends=10, period_ms=1)
    collector = StreamingDeltaCollector(
        kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(capacity=4)
    ).attach()

    def drainer():
        while True:
            yield kernel.env.timeout(2 * MSEC)
            collector.drain()

    kernel.env.process(drainer())
    kernel.env.run(until=30 * MSEC)
    assert collector.lost_records == 0
    assert collector.snapshot().events == 10


def _two_sender_server(kernel, sends=5, period_ms=2):
    """One process, two worker threads with their own connections.

    The driver alternates between the connections, so consecutive sendmsg
    events come from different tids, all folded into one stream.
    """
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
    return proc


def test_two_thread_statistics_match_in_kernel_collector():
    def run(streaming):
        kernel = _kernel()
        proc = _two_sender_server(kernel, sends=6, period_ms=3)
        if streaming:
            collector = StreamingDeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG]
            ).attach()
        else:
            collector = DeltaCollector(
                kernel, proc.pid, [Sys.SENDMSG], "vm"
            ).attach()
        kernel.env.run()
        return collector.snapshot()

    assert run(streaming=True) == run(streaming=False)


def test_reset_window_surfaces_undrained_tail():
    """Records buffered but not yet drained at the window boundary belong
    to the closing window; reset_window() must hand them back instead of
    silently zeroing them away."""
    kernel = _kernel()
    proc = _echo_server(kernel, sends=6, period_ms=2)
    collector = StreamingDeltaCollector(kernel, proc.pid, [Sys.SENDMSG]).attach()
    kernel.env.run(until=7 * MSEC)  # 3 sends buffered, nothing drained
    tail = collector.reset_window()
    assert len(tail) == 3
    assert [nr for _t, nr in tail] == [Sys.SENDMSG] * 3
    kernel.env.run()
    second = collector.snapshot()
    assert second.events == 3  # only the post-boundary sends
    assert second.count == 3  # incl. the boundary-spanning delta


def test_reset_window_tail_empty_when_pre_drained():
    kernel = _kernel()
    proc = _echo_server(kernel, sends=6, period_ms=2)
    collector = StreamingDeltaCollector(kernel, proc.pid, [Sys.SENDMSG]).attach()
    kernel.env.run(until=7 * MSEC)
    collector.drain()
    assert collector.reset_window() == []


def test_reset_window_continuity():
    kernel = _kernel()
    proc = _echo_server(kernel, sends=6, period_ms=2)
    collector = StreamingDeltaCollector(kernel, proc.pid, [Sys.SENDMSG]).attach()
    kernel.env.run(until=7 * MSEC)
    first = collector.snapshot()
    collector.reset_window()
    kernel.env.run()
    second = collector.snapshot()
    assert first.events == 3
    assert second.count == 3  # boundary-spanning delta preserved


def test_double_attach_rejected():
    kernel = _kernel()
    collector = StreamingDeltaCollector(kernel, 1, [Sys.SENDMSG]).attach()
    with pytest.raises(RuntimeError):
        collector.attach()


def test_requires_syscalls():
    kernel = _kernel()
    with pytest.raises(ValueError):
        StreamingDeltaCollector(kernel, 1, [])


class TestWindowedLoss:
    def test_lost_records_attributed_to_window(self):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=10, period_ms=1)
        collector = StreamingDeltaCollector(
            kernel, proc.pid, [Sys.SENDMSG], CollectorConfig(capacity=4)
        ).attach()
        kernel.env.run()  # nothing drained: 6 of 10 records drop
        assert collector.lost_in_window == 6
        collector.reset_window()
        # The new window starts clean even though the lifetime total stays.
        assert collector.lost_in_window == 0
        assert collector.lost_records == 6


class TestStreamMonitor:
    def test_stream_monitor_matches_native_when_healthy(self):
        def run(mode):
            kernel = _kernel()
            proc = _echo_server(kernel, sends=10, period_ms=2)
            monitor = RequestMetricsMonitor(kernel, proc.pid, config=mode).attach()
            kernel.env.run()
            return monitor.snapshot()

        native = run("native")
        stream = run("stream")
        assert stream.send == native.send
        assert stream.recv == native.recv
        assert not stream.degraded
        assert stream.confidence == 1.0
        assert stream.lost_records == 0

    def test_stream_monitor_surfaces_drops_as_confidence(self):
        kernel = _kernel()
        proc = _echo_server(kernel, sends=10, period_ms=1)
        monitor = RequestMetricsMonitor(
            kernel, proc.pid,
            config=CollectorConfig(mode="stream", capacity=4)
        ).attach()
        kernel.env.run()  # no consumer: both buffers overflow
        snap = monitor.snapshot()
        assert snap.send_lost == 6  # 10 sendmsg events, 4-record buffer
        assert snap.recv_lost == 6  # 10 read events likewise
        assert snap.degraded
        assert snap.confidence == pytest.approx(0.4)
        assert snap.lost_records == 12
        assert "lost=12" in repr(snap)

    def test_corrected_rate_recredits_interior_drops(self):
        # Drain before and after an outage so the retained events span the
        # window: the telescoped delta sum then makes the corrected rate
        # exact despite the interior loss.
        kernel = _kernel()
        proc = _echo_server(kernel, sends=20, period_ms=1)
        monitor = RequestMetricsMonitor(
            kernel, proc.pid,
            config=CollectorConfig(mode="stream", capacity=4)
        ).attach()

        def drainer():
            while True:
                yield kernel.env.timeout(3 * MSEC)
                if not 5 * MSEC < kernel.env.now < 16 * MSEC:  # outage window
                    monitor.send_collector.drain()
                    monitor.recv_collector.drain()

        kernel.env.process(drainer())
        kernel.env.run(until=30 * MSEC)
        snap = monitor.snapshot()
        assert snap.send_lost > 0
        true_rate = 1000.0 * MSEC / MSEC  # 1 send per ms -> 1000/s
        assert snap.rps_obsv < 0.8 * true_rate  # raw visibly under-reports
        assert snap.rps_obsv_corrected == pytest.approx(true_rate, rel=0.06)
