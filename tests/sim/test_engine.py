"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SELF_DRIVE, EmptySchedule, Environment, Event, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_initial_time():
    env = Environment(initial_time=42)
    assert env.now == 42


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(1000)
    env.run()
    assert env.now == 1000


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(500)
    env.timeout(1500)
    env.run(until=1000)
    assert env.now == 1000


def test_run_until_past_raises():
    env = Environment()
    env.timeout(2000)
    env.run(until=2000)
    with pytest.raises(ValueError):
        env.run(until=1000)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_fire_in_time_order():
    env = Environment()
    fired = []
    for delay in (300, 100, 200):
        env.timeout(delay).callbacks.append(lambda ev, d=delay: fired.append(d))
    env.run()
    assert fired == [100, 200, 300]


def test_same_time_fifo_order():
    env = Environment()
    fired = []
    for tag in "abc":
        env.timeout(100).callbacks.append(lambda ev, t=tag: fired.append(t))
    env.run()
    assert fired == ["a", "b", "c"]


def test_priority_overrides_fifo():
    env = Environment()
    fired = []
    low = Event(env)
    low.callbacks.append(lambda ev: fired.append("low"))
    high = Event(env)
    high.callbacks.append(lambda ev: fired.append("high"))
    low._ok = True
    low._value = None
    high._ok = True
    high._value = None
    env.schedule(low, priority=5)
    env.schedule(high, priority=0)
    env.run()
    assert fired == ["high", "low"]


def test_process_waits_on_timeout():
    env = Environment()
    trace = []

    def proc():
        trace.append(env.now)
        yield env.timeout(10)
        trace.append(env.now)
        yield env.timeout(5)
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [0, 10, 15]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_process_exception_propagates():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("boom")

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError, match="nobody caught me"):
        env.run()


def test_processes_wait_on_each_other():
    env = Environment()

    def child():
        yield env.timeout(20)
        return 7

    def parent():
        value = yield env.process(child())
        return value * 2

    p = env.process(parent())
    assert env.run(until=p) == 14
    assert env.now == 20


def test_event_succeed_delivers_value():
    env = Environment()
    gate = env.event()
    got = []

    def waiter():
        value = yield gate
        got.append(value)

    def opener():
        yield env.timeout(5)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert got == ["open"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_yield_non_event_is_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(RuntimeError, match="not an Event"):
        env.run()


def test_wait_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # processes ev
    got = []

    def late():
        value = yield ev
        got.append((env.now, value))

    env.process(late())
    env.run()
    assert got == [(0, "early")]


def test_any_of_returns_first():
    env = Environment()

    def proc():
        t_fast = env.timeout(10, value="fast")
        t_slow = env.timeout(100, value="slow")
        result = yield env.any_of([t_fast, t_slow])
        return (env.now, list(result.values()))

    p = env.process(proc())
    when, values = env.run(until=p)
    assert when == 10
    assert values == ["fast"]


def test_any_of_empty_fires_immediately():
    env = Environment()

    def proc():
        result = yield env.any_of([])
        return result

    p = env.process(proc())
    assert env.run(until=p) == {}


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    def poker(target):
        yield env.timeout(50)
        target.interrupt("wake up")

    p = env.process(sleeper())
    env.process(poker(p))
    env.run()
    assert caught == [(50, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_stops_listening_to_old_target():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("timeout fired in process")
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(500)
        log.append("second sleep done")

    def poker(target):
        yield env.timeout(10)
        target.interrupt()

    p = env.process(sleeper())
    env.process(poker(p))
    env.run()
    # The original 100ns timeout still fires at t=100 but must not resume the
    # process a second time.
    assert log == ["interrupted", "second sleep done"]


def test_self_driven_process_is_interruptible():
    """Past its SELF_DRIVE hand-over a process waits through its
    callback list: interrupt empties it, so the pending timeout resumes
    nobody, and throws Interrupt at the wait point at once; a second
    interrupt before it unwinds is refused like a driven one."""
    env = Environment()
    log = []

    def body():
        cb = yield SELF_DRIVE
        env.timeout(100).callbacks = cb
        try:
            yield
            log.append("timeout fired in process")
        finally:
            log.append(("unwound", env.now))

    def poker(target):
        yield env.timeout(10)
        target.interrupt("crash")
        with pytest.raises(RuntimeError, match="not waiting"):
            target.interrupt()

    proc = env.process(body())
    proc.defuse()
    env.process(poker(proc))
    env.run()
    assert log == [("unwound", 10)]
    assert not proc.is_alive
    assert isinstance(proc.value, Interrupt) and proc.value.cause == "crash"


def test_self_drive_hands_the_generator_its_own_send():
    """The process drives the cold path, then answers SELF_DRIVE with a
    callback list holding the generator's ``send``, which the engine
    calls with each event the generator registers it on."""
    env = Environment()
    seen = []

    def body():
        yield env.timeout(5)
        cb = yield SELF_DRIVE
        seen.append(cb)
        env.timeout(10, value="v").callbacks = cb
        event = yield
        seen.append((env.now, event.value))
        proc.succeed("done")
        yield

    gen = body()
    proc = env.process(gen)
    assert env.run(proc) == "done"
    assert seen == [[gen.send], (15, "v")]
    assert proc.cb is seen[0] and proc.target is None


def test_self_driving_body_is_validated_until_its_hand_over():
    """A self-driving body's cold path runs under the same checks as any
    process: a non-event yield before SELF_DRIVE is an error."""
    env = Environment()

    def body():
        yield 42
        cb = yield SELF_DRIVE
        env.timeout(1).callbacks = cb
        yield

    env.process(body())
    with pytest.raises(RuntimeError, match="yielded 42, which is not an Event"):
        env.run()


def test_determinism_across_runs():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(tag, period):
            for _ in range(5):
                yield env.timeout(period)
                trace.append((env.now, tag))

        env.process(worker("a", 7))
        env.process(worker("b", 11))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
