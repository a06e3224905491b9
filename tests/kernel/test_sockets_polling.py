"""Tests for sockets, fd tables, epoll and select semantics."""

import pytest

from repro.kernel import (
    EpollInstance,
    FdTable,
    ListenSocket,
    SocketEndpoint,
    connect_pair,
    wait_for_readable,
)
from repro.net import Message, NetemConfig
from repro.sim import MSEC, Environment, SeedSequence


@pytest.fixture
def env():
    return Environment()


def _pair(env, seed=1, c2s=None, s2c=None, listener=None):
    return connect_pair(
        env,
        SeedSequence(seed),
        "test",
        c2s or NetemConfig.ideal(),
        s2c or NetemConfig.ideal(),
        listener=listener,
    )


class TestFdTable:
    def test_numbers_start_at_three(self, env):
        table = FdTable()
        sock = SocketEndpoint(env)
        assert table.install(sock) == 3
        assert table.install(SocketEndpoint(env)) == 4

    def test_lookup_and_contains(self, env):
        table = FdTable()
        sock = SocketEndpoint(env)
        number = table.install(sock)
        assert table.lookup(number) is sock
        assert number in table
        assert sock.fd == number

    def test_lookup_bad_fd(self):
        with pytest.raises(KeyError, match="bad file descriptor"):
            FdTable().lookup(99)

    def test_remove(self, env):
        table = FdTable()
        number = table.install(SocketEndpoint(env))
        table.remove(number)
        assert number not in table
        assert len(table) == 0


class TestSockets:
    def test_message_flows_between_peers(self, env):
        client, server = _pair(env)
        client.send(Message(payload="ping", size=10))
        env.run()
        assert server.readable
        msg = server.pop()
        assert msg.payload == "ping"
        assert not server.readable

    def test_bidirectional(self, env):
        client, server = _pair(env)
        client.send(Message(payload="req"))
        env.run()
        server.pop()
        server.send(Message(payload="resp"))
        env.run()
        assert client.pop().payload == "resp"

    def test_netem_applies_per_direction(self, env):
        client, server = _pair(env, c2s=NetemConfig(delay_ns=5 * MSEC))
        client.send(Message())
        env.run()
        assert server.rx[0].delivered_at == 5 * MSEC

    def test_send_on_closed_socket_raises(self, env):
        client, _server = _pair(env)
        client.close()
        with pytest.raises(OSError):
            client.send(Message())

    def test_deliver_to_closed_socket_dropped(self, env):
        client, server = _pair(env)
        server.close()
        client.send(Message())
        env.run()
        assert not server.rx

    def test_unconnected_send_raises(self, env):
        sock = SocketEndpoint(env)
        with pytest.raises(RuntimeError):
            sock.send(Message())

    def test_wait_readable_immediate_when_data_present(self, env):
        client, server = _pair(env)
        client.send(Message())
        env.run()
        event = server.wait_readable()
        assert event.triggered

    def test_wait_readable_wakes_on_delivery(self, env):
        client, server = _pair(env, c2s=NetemConfig(delay_ns=2 * MSEC))
        woke = []

        def waiter():
            yield server.wait_readable()
            woke.append(env.now)

        env.process(waiter())
        client.send(Message())
        env.run()
        assert woke == [2 * MSEC]

    def test_counters(self, env):
        client, server = _pair(env)
        for _ in range(3):
            client.send(Message())
        env.run()
        assert client.tx_messages == 3
        assert server.rx_messages == 3


class TestListener:
    def test_connect_lands_in_accept_queue(self, env):
        listener = ListenSocket(env)
        _client, server = _pair(env, listener=listener)
        assert listener.readable
        assert listener.pop() is server
        assert not listener.readable
        assert listener.accepted == 1


class TestWaitForReadable:
    def test_immediate_when_ready(self, env):
        client, server = _pair(env)
        client.send(Message())
        env.run()

        def waiter():
            ready = yield from wait_for_readable(env, [server])
            return (env.now, ready)

        p = env.process(waiter())
        when, ready = env.run(until=p)
        assert ready == [server]

    def test_blocks_then_wakes(self, env):
        client, server = _pair(env, c2s=NetemConfig(delay_ns=3 * MSEC))

        def waiter():
            ready = yield from wait_for_readable(env, [server])
            return (env.now, ready)

        p = env.process(waiter())
        client.send(Message())
        when, ready = env.run(until=p)
        assert when == 3 * MSEC
        assert ready == [server]

    def test_timeout_returns_empty(self, env):
        server = SocketEndpoint(env)

        def waiter():
            ready = yield from wait_for_readable(env, [server], timeout_ns=1 * MSEC)
            return (env.now, ready)

        p = env.process(waiter())
        when, ready = env.run(until=p)
        assert when == 1 * MSEC
        assert ready == []

    def test_zero_timeout_is_nonblocking(self, env):
        server = SocketEndpoint(env)

        def waiter():
            ready = yield from wait_for_readable(env, [server], timeout_ns=0)
            return (env.now, ready)

        p = env.process(waiter())
        when, ready = env.run(until=p)
        assert when == 0
        assert ready == []

    def test_watchers_cleaned_up(self, env):
        client, server = _pair(env)

        def waiter():
            yield from wait_for_readable(env, [server])

        p = env.process(waiter())
        client.send(Message())
        env.run(until=p)
        assert not server._watchers


class TestEpoll:
    def test_register_unregister(self, env):
        ep = EpollInstance(env)
        sock = SocketEndpoint(env)
        ep.register(sock)
        assert sock in ep.interest
        ep.unregister(sock)
        assert sock not in ep.interest

    def test_double_register_eexist(self, env):
        ep = EpollInstance(env)
        sock = SocketEndpoint(env)
        ep.register(sock)
        with pytest.raises(ValueError, match="EEXIST"):
            ep.register(sock)

    def test_unregister_missing_enoent(self, env):
        ep = EpollInstance(env)
        with pytest.raises(ValueError, match="ENOENT"):
            ep.unregister(SocketEndpoint(env))

    def test_wait_returns_all_ready_fds(self, env):
        ep = EpollInstance(env)
        pairs = [_pair(env, seed=i) for i in range(3)]
        for _client, server in pairs:
            ep.register(server)
        pairs[0][0].send(Message())
        pairs[2][0].send(Message())
        env.run()

        def waiter():
            ready = yield from ep.wait()
            return ready

        p = env.process(waiter())
        ready = env.run(until=p)
        assert set(ready) == {pairs[0][1], pairs[2][1]}

    def test_level_triggered(self, env):
        """Un-consumed data keeps the fd ready on the next wait."""
        ep = EpollInstance(env)
        client, server = _pair(env)
        ep.register(server)
        client.send(Message())
        env.run()

        def waiter():
            first = yield from ep.wait()
            second = yield from ep.wait()
            return first, second

        p = env.process(waiter())
        first, second = env.run(until=p)
        assert first == [server] and second == [server]
