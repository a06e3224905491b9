"""The monitor's window bus: one window clock shared by every consumer."""

import pytest

from repro.analysis.executor import ExperimentSpec, execute_cell
from repro.core import CollectorConfig, ExportConfig, MetricsSnapshot, RequestMetricsMonitor
from repro.kernel import Kernel, MachineSpec
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence


def _echo_monitor(config="vm", sends=30, period_ms=1):
    """A monitor on an echo server answering one request per period."""
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(1), interference=False)
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

    def driver():
        for _ in range(sends):
            yield env.timeout(period_ms * MSEC)
            client.send(Message(size=64))

    proc.spawn_thread(worker)
    env.process(driver())
    return RequestMetricsMonitor(kernel, proc.pid, config=config).attach()


def _record(monitor, window_ms):
    windows = []
    monitor.bus.subscribe(window_ms * MSEC, windows.append, on_tail=windows.append)
    return windows


def _bounds(windows):
    return [(w.window_start_ns // MSEC, w.window_end_ns // MSEC) for w in windows]


@pytest.mark.parametrize("mode", ["vm", "native"])
@pytest.mark.parametrize("cadences", [(10, 5), (6, 4)], ids=["gcd-grid", "incommensurate"])
def test_shared_windows_equal_solo_windows(mode, cadences):
    solos = []
    for window_ms in cadences:
        monitor = _echo_monitor(mode)
        solos.append(_record(monitor, window_ms))
        monitor.kernel.env.run(until=33 * MSEC)
        monitor.bus.finish()
    monitor = _echo_monitor(mode)
    shared = [_record(monitor, window_ms) for window_ms in cadences]
    monitor.kernel.env.run(until=33 * MSEC)
    merged = monitor.bus.finish()
    assert shared == solos
    # The running merge is the whole-run snapshot, tail included.
    reference = _echo_monitor(mode)
    reference.kernel.env.run(until=33 * MSEC)
    unwindowed = reference.snapshot()
    assert merged == MetricsSnapshot.merge_all(solos[0])
    assert (merged.send, merged.recv, merged.poll) == (
        unwindowed.send, unwindowed.recv, unwindowed.poll)


def test_ticks_only_where_some_window_ends():
    monitor = _echo_monitor()
    base = []
    monitor.bus.subscribe(6 * MSEC, lambda w: None)
    monitor.bus.subscribe(4 * MSEC, lambda w: None)
    original = monitor.snapshot

    def spy(reset=False):
        snapshot = original(reset=reset)
        base.append(snapshot)
        return snapshot

    monitor.snapshot = spy
    monitor.kernel.env.run(until=13 * MSEC)
    assert _bounds(base) == [(0, 4), (4, 6), (6, 8), (8, 12)]


def test_tail_goes_only_to_tail_callbacks():
    monitor = _echo_monitor()
    full, tails = [], []
    monitor.bus.subscribe(10 * MSEC, full.append)
    monitor.bus.subscribe(4 * MSEC, lambda w: None, on_tail=tails.append)
    monitor.kernel.env.run(until=25 * MSEC)
    merged = monitor.bus.finish()
    assert _bounds(full) == [(0, 10), (10, 20)]
    # The tail is the merge of the base windows since the last delivery.
    assert _bounds(tails) == [(24, 25)]
    assert monitor.bus.finish() is merged  # closes the tail once
    assert len(tails) == 1


def test_subscription_rules():
    monitor = _echo_monitor()
    with pytest.raises(ValueError, match="window_ns"):
        monitor.bus.subscribe(0, lambda w: None)
    monitor.bus.subscribe(5 * MSEC, lambda w: None)
    monitor.kernel.env.run(until=1 * MSEC)
    with pytest.raises(RuntimeError, match="before the window bus starts"):
        monitor.bus.subscribe(5 * MSEC, lambda w: None)


def test_unsubscribed_bus_schedules_nothing():
    monitor = _echo_monitor()
    env = monitor.kernel.env
    env.run()  # to an empty schedule: no bus event keeps it alive
    unwindowed = monitor.snapshot()
    assert monitor.bus.finish() == unwindowed


def test_detach_and_reattach_leave_exactly_one_live_bus():
    config = CollectorConfig(mode="vm", export=ExportConfig(window_ns=5 * MSEC))
    monitor = _echo_monitor(config, sends=40)
    env = monitor.kernel.env
    exporter = monitor.exporter
    first_bus = monitor.bus
    env.run(until=12 * MSEC)
    monitor.detach()  # finishes the bus: the tail [10, 12) is observed
    assert first_bus.finished
    env.run(until=20 * MSEC)  # no tick after detach()
    assert _bounds(exporter.windows) == [(0, 5), (5, 10), (10, 12)]
    monitor.attach()
    assert monitor.bus is not first_bus
    env.run(until=32 * MSEC)
    # One tick per boundary of the new bus; no stale loop doubles them.
    assert _bounds(exporter.windows) == [(0, 5), (5, 10), (10, 12), (20, 25), (25, 30)]
    assert exporter.render_count == 4  # one scrape per full window
    monitor.detach()
    env.run()  # nothing stays scheduled once the bus is finished
    assert len(exporter.windows) == 6


def test_plain_cells_create_no_bus_process(monkeypatch):
    names = []
    original = Environment.process

    def recording(self, generator, name=None):
        names.append(name)
        return original(self, generator, name=name)

    monkeypatch.setattr(Environment, "process", recording)
    spec = ExperimentSpec("data-caching", 4000, requests=100, monitor_mode="vm")
    execute_cell(spec)
    assert "window-bus" not in names
    execute_cell(spec.replace(export=ExportConfig(window_ns=10 * MSEC)))
    assert names.count("window-bus") == 1
