"""AnyOf edge cases: failures, mixing, reuse."""

import pytest

from repro.sim import Environment, Event


def test_anyof_propagates_failure():
    env = Environment()
    boom = env.event()
    slow = env.timeout(100)
    caught = []

    def waiter():
        try:
            yield env.any_of([boom, slow])
        except ValueError as error:
            caught.append(str(error))

    env.process(waiter())

    def failer():
        yield env.timeout(10)
        boom.fail(ValueError("nope"))

    env.process(failer())
    env.run()
    assert caught == ["nope"]


def test_condition_value_preserves_completion_values():
    env = Environment()

    def proc():
        events = [env.timeout(20, value="late"), env.timeout(10, value="early")]
        result = yield env.any_of(events)
        return [result.get(e) for e in events]

    p = env.process(proc())
    assert env.run(until=p) == [None, "early"]


def test_anyof_after_failure_already_processed():
    """A pre-failed (and defused) event fails the condition on creation."""
    env = Environment()
    bad = env.event()
    bad.fail(ValueError("early"))
    bad.defuse()
    env.run()

    def waiter():
        with pytest.raises(ValueError):
            yield env.any_of([bad, env.timeout(5)])

    done = env.process(waiter())
    env.run(until=done)


def test_cross_environment_events_rejected():
    env_a = Environment()
    env_b = Environment()
    with pytest.raises(ValueError, match="different environments"):
        env_a.any_of([Event(env_a), Event(env_b)])


def test_nested_conditions():
    env = Environment()

    def proc():
        inner = env.any_of([env.timeout(30, value="x"), env.timeout(50)])
        outer = yield env.any_of([inner, env.timeout(40)])
        return (env.now, len(outer))

    p = env.process(proc())
    when, n_fired = env.run(until=p)
    assert when == 30
    assert n_fired == 1


def test_anyof_multiple_simultaneous():
    env = Environment()

    def proc():
        events = [env.timeout(10, value=i) for i in range(3)]
        result = yield env.any_of(events)
        return sorted(result.values())

    p = env.process(proc())
    # Only the first-processed constituent is collected; the others fire in
    # the same step but after the condition triggered.
    assert env.run(until=p) == [0]


def test_two_waiters_one_event():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter(tag):
        value = yield gate
        woke.append((tag, value))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def opener():
        yield env.timeout(5)
        gate.succeed(42)

    env.process(opener())
    env.run()
    assert sorted(woke) == [("a", 42), ("b", 42)]
