"""Open-loop client and arrival-process tests."""

import statistics

import pytest

from repro.kernel import Kernel, MachineSpec
from repro.loadgen import OpenLoopClient, poisson_interarrivals, uniform_interarrivals
from repro.net import Message
from repro.sim import MSEC, SEC, Environment, SeedSequence


def test_poisson_interarrival_mean():
    stream = SeedSequence(1).stream("arr")
    gaps = poisson_interarrivals(stream, rate_rps=1000)
    draws = [next(gaps) for _ in range(20000)]
    assert statistics.mean(draws) == pytest.approx(SEC / 1000, rel=0.05)


def test_poisson_validation():
    stream = SeedSequence(1).stream("arr")
    with pytest.raises(ValueError):
        next(poisson_interarrivals(stream, 0))


def test_uniform_interarrivals_fixed():
    stream = SeedSequence(1).stream("arr")
    gaps = uniform_interarrivals(stream, rate_rps=100)
    assert {next(gaps) for _ in range(10)} == {10 * MSEC}


def test_uniform_interarrivals_spread():
    stream = SeedSequence(1).stream("arr")
    gaps = uniform_interarrivals(stream, rate_rps=100, spread=0.5)
    draws = [next(gaps) for _ in range(1000)]
    assert min(draws) >= 5 * MSEC
    assert max(draws) <= 15 * MSEC
    with pytest.raises(ValueError):
        next(uniform_interarrivals(stream, 100, spread=1.0))


def _echo_kernel_and_sockets(n_conns=2):
    """A kernel with a trivial instant-echo server over n connections."""
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(2), interference=False)
    proc = kernel.create_process("echo")
    clients = []
    for _ in range(n_conns):
        client, server = kernel.open_connection()
        clients.append(client)

        def worker(task, sock=server):
            while True:
                msg = yield from task.sys_read(sock)
                yield from task.compute(100_000)  # 0.1 ms
                yield from task.sys_sendmsg(
                    sock, Message(payload="r", size=msg.size, tag=msg.tag)
                )

        proc.spawn_thread(worker)
    return kernel, clients


def test_client_completes_all_requests():
    kernel, sockets = _echo_kernel_and_sockets()
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
        total_requests=50,
    )
    client.start()
    report = kernel.env.run(until=client.done)
    assert report.completed == 50
    assert report.offered == 50
    assert report.latency.count == 50
    assert report.achieved_rps > 0


def test_client_latency_includes_service_time():
    kernel, sockets = _echo_kernel_and_sockets(n_conns=1)
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=100,
        total_requests=10,
    )
    client.start()
    report = kernel.env.run(until=client.done)
    assert report.latency.p50_ns() >= 100_000  # at least the service time


def test_qos_flag():
    kernel, sockets = _echo_kernel_and_sockets()
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=500,
        total_requests=20, qos_latency_ns=1,  # impossible target
    )
    client.start()
    report = kernel.env.run(until=client.done)
    assert report.qos_violated
    ok_client_report = report  # same data, relaxed target
    ok_client_report.qos_latency_ns = 10 * SEC
    assert not ok_client_report.qos_violated


def test_round_robin_across_connections():
    kernel, sockets = _echo_kernel_and_sockets(n_conns=2)
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(4).stream("cl"), rate_rps=1000,
        total_requests=10,
    )
    client.start()
    kernel.env.run(until=client.done)
    assert sockets[0].tx_messages == 5
    assert sockets[1].tx_messages == 5


def test_generator_process_ends_at_the_last_offer():
    """The self-driven generator ends its process where a driven one
    returns: at the instant it sends its last request."""
    kernel, sockets = _echo_kernel_and_sockets()
    client = OpenLoopClient(
        kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
        total_requests=7,
    )
    client.start()
    generator = client._gen_process
    ended = []
    generator.callbacks.append(lambda _proc: ended.append(kernel.env.now))
    kernel.env.run(until=client.done)
    assert ended == [client.last_offered_ns]
    assert not generator.is_alive


def test_client_validation():
    env = Environment()
    stream = SeedSequence(1).stream("c")
    with pytest.raises(ValueError):
        OpenLoopClient(env, [], stream, 100, 10)


def test_double_start_rejected():
    kernel, sockets = _echo_kernel_and_sockets()
    client = OpenLoopClient(kernel.env, sockets, SeedSequence(1).stream("c"), 100, 5)
    client.start()
    with pytest.raises(RuntimeError):
        client.start()


def test_report_before_any_completion():
    env = Environment()
    from repro.kernel import SocketEndpoint

    client = OpenLoopClient(env, [SocketEndpoint(env)], SeedSequence(1).stream("c"), 100, 5)
    report = client.report()
    assert report.completed == 0
    assert report.achieved_rps == 0.0


def _lossy_kernel_and_sockets(drop_tags, drop_forever=False):
    """Echo server that swallows requests with tags in ``drop_tags`` (the
    first time only, unless ``drop_forever``)."""
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(2), interference=False)
    proc = kernel.create_process("echo")
    client, server = kernel.open_connection()
    dropped = set()

    def worker(task):
        while True:
            msg = yield from task.sys_read(server)
            if msg.tag in drop_tags and (drop_forever or msg.tag not in dropped):
                dropped.add(msg.tag)
                continue  # swallow: no response
            yield from task.sys_sendmsg(
                server, Message(payload="r", size=msg.size, tag=msg.tag)
            )

    proc.spawn_thread(worker)
    return kernel, [client]


class TestRetryWatchdog:
    def test_retry_recovers_swallowed_request(self):
        kernel, sockets = _lossy_kernel_and_sockets(drop_tags={1})
        client = OpenLoopClient(
            kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
            total_requests=20, retry_timeout_ns=50 * MSEC,
        )
        client.start()
        report = kernel.env.run(until=client.done)
        assert report.completed == 20
        assert report.retried >= 1
        assert report.abandoned == 0
        # The retried request's latency counts from the ORIGINAL send.
        assert report.latency.max_ns() >= 50 * MSEC

    def test_abandon_after_max_retries(self):
        kernel, sockets = _lossy_kernel_and_sockets(drop_tags={1}, drop_forever=True)
        client = OpenLoopClient(
            kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
            total_requests=20, retry_timeout_ns=20 * MSEC, max_retries=2,
        )
        client.start()
        report = kernel.env.run(until=client.done)
        # done still fires: the unanswerable request is given up on.
        assert report.abandoned == 1
        assert report.completed == 19
        assert report.retried == 2

    def test_no_watchdog_no_retries(self):
        kernel, sockets = _lossy_kernel_and_sockets(drop_tags=set())
        client = OpenLoopClient(
            kernel.env, sockets, SeedSequence(3).stream("cl"), rate_rps=1000,
            total_requests=10,
        )
        client.start()
        report = kernel.env.run(until=client.done)
        assert report.retried == 0 and report.abandoned == 0

    def test_validation(self):
        kernel, sockets = _lossy_kernel_and_sockets(drop_tags=set())
        stream = SeedSequence(3).stream("cl")
        with pytest.raises(ValueError):
            OpenLoopClient(kernel.env, sockets, stream, rate_rps=10,
                           total_requests=1, retry_timeout_ns=0)
        with pytest.raises(ValueError):
            OpenLoopClient(kernel.env, sockets, stream, rate_rps=10,
                           total_requests=1, max_retries=-1)
