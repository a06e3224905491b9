"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2

    def test_over_capacity_waits(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert first.triggered
        assert not second.triggered
        assert res.queue_len == 1
        res.release(first)
        assert second.triggered
        assert res.queue_len == 0

    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        holder = res.request()
        waiters = [res.request() for _ in range(3)]
        res.release(holder)
        assert [w.triggered for w in waiters] == [True, False, False]

    def test_release_foreign_request_rejected(self, env):
        res_a = Resource(env, capacity=1)
        res_b = Resource(env, capacity=1)
        req = res_a.request()
        with pytest.raises(ValueError):
            res_b.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        holder = res.request()
        queued = res.request()
        res.release(queued)  # cancel while waiting
        assert res.queue_len == 0
        third = res.request()
        res.release(holder)
        assert third.triggered

    def test_process_round_trip(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            req = res.request()
            yield req
            order.append(("acq", tag, env.now))
            yield env.timeout(hold)
            res.release(req)
            order.append(("rel", tag, env.now))

        env.process(user("a", 10))
        env.process(user("b", 10))
        env.run()
        assert order == [
            ("acq", "a", 0),
            ("rel", "a", 10),
            ("acq", "b", 10),
            ("rel", "b", 20),
        ]


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = [store.get().value for _ in range(3)]
        assert got == [1, 2, 3]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(30)
            store.put("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(30, "x")]

    def test_try_get_empty(self, env):
        store = Store(env)
        ok, item = store.try_get()
        assert not ok and item is None

    def test_cancel_get(self, env):
        store = Store(env)
        getter = store.get()
        store.cancel_get(getter)
        store.put("later")
        assert not getter.triggered
        assert len(store) == 1

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        g1, g2 = store.get(), store.get()
        store.put("first")
        store.put("second")
        assert g1.value == "first"
        assert g2.value == "second"

    def test_put_succeeds_after_the_getter_it_wakes(self, env):
        store = Store(env)
        order = []
        store.get().callbacks.append(lambda _event: order.append("get"))
        put = store.put("x")
        assert put.triggered
        put.callbacks.append(lambda _event: order.append("put"))
        env.run()
        assert order == ["get", "put"]

    def test_producer_consumer_pipeline(self, env):
        store = Store(env)
        consumed = []

        def producer():
            for i in range(6):
                yield store.put(i)
                yield env.timeout(1)

        def consumer():
            for _ in range(6):
                item = yield store.get()
                consumed.append(item)
                yield env.timeout(5)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert consumed == list(range(6))
