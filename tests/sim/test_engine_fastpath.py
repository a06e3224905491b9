"""Equivalence tests for the engine's hot-loop fast paths.

The inlined ``run()`` dispatch loop (one loop for all three ``until``
forms), the dedicated ``Timeout`` schedule path, and lazy timeout
cancellation are pure performance work: event order and clock values
must be indistinguishable from repeated ``step()`` dispatch.  These
tests pin that contract, plus the new cancellation semantics.
"""

import random

import pytest

from repro.kernel import Kernel, MachineSpec
from repro.loadgen import OpenLoopClient
from repro.net import Message
from repro.sim import EmptySchedule, Environment, Interrupt, SeedSequence
from repro.sim.events import Timeout


# ----------------------------------------------------------------------
# the inlined run() loop vs step()
# ----------------------------------------------------------------------

def _random_workload(env, trace, seed):
    """Spawn a tangle of processes with same-instant collisions, nested
    spawns, interrupts, and shared events — every dispatch-order hazard."""
    rng = random.Random(seed)
    gate = env.event()

    def sleeper(name, delays):
        for d in delays:
            yield env.timeout(d)
            trace.append((env.now, name))

    def opener():
        yield env.timeout(50)
        trace.append((env.now, "open"))
        gate.succeed("opened")

    def waiter(name):
        value = yield gate
        trace.append((env.now, name, value))
        yield env.timeout(rng.randint(0, 5))
        trace.append((env.now, name, "done"))

    def spawner():
        yield env.timeout(10)
        child = env.process(sleeper("child", [rng.randint(1, 30)]))
        trace.append((env.now, "spawned"))
        yield child
        trace.append((env.now, "joined"))

    def victim():
        try:
            yield env.timeout(10_000)
            trace.append((env.now, "victim-survived"))
        except Interrupt as interrupt:
            trace.append((env.now, "victim-interrupted", interrupt.cause))

    def assassin(target):
        yield env.timeout(rng.randint(1, 80))
        target.interrupt("bang")
        trace.append((env.now, "fired"))

    for i in range(4):
        delays = [rng.randint(0, 40) for _ in range(rng.randint(1, 4))]
        env.process(sleeper(f"s{i}", delays))
    env.process(opener())
    for i in range(3):
        env.process(waiter(f"w{i}"))
    env.process(spawner())
    target = env.process(victim())
    env.process(assassin(target))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_drain_matches_step_by_step(seed):
    """run(until=None) must produce the exact event order and final clock
    of a manual step() loop over an identically-seeded workload."""
    trace_run, trace_step = [], []

    env = Environment()
    _random_workload(env, trace_run, seed)
    env.run()
    now_run = env.now

    env = Environment()
    _random_workload(env, trace_step, seed)
    while True:
        try:
            env.step()
        except EmptySchedule:
            break
    assert trace_run == trace_step
    assert now_run == env.now


@pytest.mark.parametrize("seed", [0, 5])
def test_run_until_horizon_matches_step_by_step(seed):
    trace_run, trace_step = [], []

    env = Environment()
    _random_workload(env, trace_run, seed)
    env.run(until=60)
    now_run = env.now

    env = Environment()
    _random_workload(env, trace_step, seed)
    while (peek := env.peek()) is not None and peek <= 60:
        env.step()
    trimmed = [entry for entry in trace_run if entry[0] <= 60]
    assert trace_run == trimmed == trace_step
    assert now_run == 60


def test_run_until_event_matches_step_by_step():
    trace_run, trace_step = [], []

    def build(trace):
        env = Environment()
        _random_workload(env, trace, seed=7)
        stop = env.timeout(55, value="stopped")
        return env, stop

    env, stop = build(trace_run)
    assert env.run(until=stop) == "stopped"
    now_run = env.now

    env, stop = build(trace_step)
    while not stop.processed:
        env.step()
    assert trace_run == trace_step
    assert now_run == env.now == 55


def test_failed_event_propagates_from_run():
    env = Environment()

    def bomber():
        yield env.timeout(10)
        raise RuntimeError("boom")

    env.process(bomber())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_failed_run_until_horizon_leaves_no_stop_event():
    """A run(until=horizon) that raises before the horizon cancels its stop
    event: the next run() ends at the last live event, not at the stale
    horizon."""
    env = Environment()

    def bomber():
        yield env.timeout(10)
        raise RuntimeError("boom")

    env.process(bomber())
    env.timeout(50)
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=1_000)
    assert env.now == 10
    env.run()
    assert env.now == 50


# ----------------------------------------------------------------------
# the dedicated Timeout schedule path
# ----------------------------------------------------------------------

def test_timeout_fast_path_state():
    env = Environment(initial_time=100)
    timeout = env.timeout(40, value="v")
    assert isinstance(timeout, Timeout)
    assert timeout.triggered and timeout.ok and not timeout.processed
    assert timeout.value == "v"
    assert timeout.delay == 40
    assert env.peek() == 140
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_ordering_interleaves_with_generic_events():
    """Timeouts and generic succeed()-scheduled events share one insertion
    counter, so same-instant events still fire in creation order."""
    env = Environment()
    fired = []
    t1 = env.timeout(10)
    ev = env.event()
    t2 = env.timeout(10)
    t1.callbacks.append(lambda _: fired.append("t1"))
    ev.callbacks.append(lambda _: fired.append("ev"))
    t2.callbacks.append(lambda _: fired.append("t2"))

    def trigger_at_ten():
        yield env.timeout(10)
        ev.succeed()

    env.process(trigger_at_ten())
    env.run()
    assert fired == ["t1", "t2", "ev"]  # ev scheduled last, at the same ns


# ----------------------------------------------------------------------
# lazy cancellation
# ----------------------------------------------------------------------

def test_canceled_timeout_never_fires_and_clock_skips_it():
    env = Environment()
    fired = []
    doomed = env.timeout(500)
    doomed.callbacks.append(lambda _: fired.append("doomed"))
    keeper = env.timeout(200)
    keeper.callbacks.append(lambda _: fired.append("keeper"))
    env.cancel(doomed)
    env.run()
    assert fired == ["keeper"]
    # The clock never advanced to the canceled deadline.
    assert env.now == 200


def test_cancel_is_lazy_no_heap_rebuild():
    env = Environment()
    doomed = env.timeout(500)
    env.cancel(doomed)
    # Still physically queued (lazy deletion), but invisible to peek/step.
    assert len(env._queue) == 1
    assert env.peek() is None
    with pytest.raises(EmptySchedule):
        env.step()


def test_cancel_processed_event_raises():
    env = Environment()
    timeout = env.timeout(10)
    env.run()
    with pytest.raises(RuntimeError, match="already processed"):
        env.cancel(timeout)


def test_canceled_event_inside_horizon_is_skipped():
    env = Environment()
    fired = []
    doomed = env.timeout(30)
    doomed.callbacks.append(lambda _: fired.append("doomed"))
    env.timeout(40).callbacks.append(lambda _: fired.append("kept"))
    env.cancel(doomed)
    env.run(until=100)
    assert fired == ["kept"]
    assert env.now == 100


# ----------------------------------------------------------------------
# watchdog wiring: a finished client leaves no live timer behind
# ----------------------------------------------------------------------

def _echo_kernel_and_sockets():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(2), interference=False)
    proc = kernel.create_process("echo")
    client_sock, server = kernel.open_connection()

    def worker(task, sock=server):
        while True:
            msg = yield from task.sys_read(sock)
            yield from task.compute(100_000)
            yield from task.sys_sendmsg(
                sock, Message(payload="r", size=msg.size, tag=msg.tag)
            )

    proc.spawn_thread(worker)
    return kernel, [client_sock]


def test_watchdog_timer_canceled_when_done_fires():
    kernel, sockets = _echo_kernel_and_sockets()
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
        total_requests=20, retry_timeout_ns=10_000_000_000,  # never stale
    )
    client.start()
    report = kernel.env.run(until=client.done)
    assert report.completed == 20
    assert report.retried == 0
    done_at = kernel.env.now
    # The watchdog's pending 10s sleep was lazily canceled: draining the
    # queue must not advance the clock anywhere near its deadline.
    kernel.env.run()
    assert kernel.env.now - done_at < 10_000_000_000


# ----------------------------------------------------------------------
# canceled-set compaction
# ----------------------------------------------------------------------

def test_canceled_set_bounded_across_horizon_windows():
    """Regression: dead schedule entries must not accumulate without bound.

    The windowed-collection pattern — every window arms a far-future
    watchdog, does its work, cancels the watchdog, then stops at the
    window edge via ``run(until=horizon)`` — never pops the canceled
    entries (the run stops long before their deadlines).  Pre-compaction,
    both the canceled set and the heap grew by one dead entry per cancel
    for the whole simulation.
    """
    env = Environment()
    windows, per_window = 200, 5
    for w in range(windows):
        watchdogs = [env.timeout(10_000_000_000) for _ in range(per_window)]
        env.timeout(10)  # some live work inside the window
        env.run(until=(w + 1) * 1_000)
        for watchdog in watchdogs:
            env.cancel(watchdog)
    dead = windows * per_window
    assert len(env._canceled) < dead // 4
    assert len(env._queue) + len(env._immediate) < dead // 4


def test_compaction_keeps_live_events():
    """Compaction must only drop canceled entries — live watchdogs armed
    alongside hundreds of canceled ones still fire on schedule."""
    env = Environment()
    fired = []
    keeper = env.timeout(5_000_000)
    keeper.callbacks.append(lambda ev: fired.append(env.now))
    for _ in range(500):
        env.cancel(env.timeout(1_000_000_000))
    env.run()
    assert fired == [5_000_000]


def test_cancel_before_schedule_survives_compaction():
    """An event canceled while only in the canceled set (never scheduled)
    keeps its suppression through a compaction pass."""
    env = Environment()
    pending = env.event()
    pending.callbacks.append(lambda ev: pytest.fail("canceled event fired"))
    env.cancel(pending)
    for _ in range(500):  # force at least one compaction
        env.cancel(env.timeout(1_000_000_000))
    pending.succeed("late")  # schedules it; the old cancel must still hold
    env.run()


def test_immediate_lane_merges_with_heap_in_eid_order():
    """Same-instant default-priority events split across the two schedule
    containers — zero-delay Timeouts land on the heap, ``succeed()`` lands
    in the immediate deque — must still dispatch in creation order."""
    order = []

    def build(env):
        for i in range(10):
            if i % 2:
                ev = env.event()
                ev.callbacks.append(lambda _e, i=i: order.append(i))
                ev.succeed(i)  # immediate lane
            else:
                t = env.timeout(0)  # heap, same instant
                t.callbacks.append(lambda _e, i=i: order.append(i))

    env = Environment()
    build(env)
    env.run()
    run_order = list(order)

    order.clear()
    env = Environment()
    build(env)
    while True:
        try:
            env.step()
        except EmptySchedule:
            break
    assert run_order == order == list(range(10))
