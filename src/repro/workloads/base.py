"""Server application models.

Three threading architectures cover the paper's nine workload
configurations (§IV-A):

* :class:`ThreadedPollApp` — "straightforward request-handling threading"
  (TailBench apps with ``select``, Data Caching with ``epoll``): each worker
  thread polls its share of connections and handles requests end-to-end.
* :class:`DispatchPoolApp` — Triton's structure: "dedicated threads that
  consume requests and dispatch them across other threads for processing".
* :class:`TwoTierApp` — Web Search's structure: a front-end process
  forwarding to an index-search process over internal sockets, with bounded
  in-flight backpressure.

Every app goes through a realistic *setup phase* (``socket``/``bind``/
``listen``/``accept``/``epoll_create1``/``epoll_ctl`` syscalls — Fig. 1(b))
before entering the request-processing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..kernel.kernel import Kernel
from ..kernel.polling import EpollInstance
from ..kernel.sockets import SocketEndpoint
from ..kernel.syscalls import Sys, SyscallSpec
from ..kernel.threads import KernelTask, KProcess
from ..net.netem import NetemConfig
from ..net.packet import Message
from ..sim.rng import Stream
from ..sim.timebase import MSEC
from .service import ServiceModel

__all__ = ["WorkloadConfig", "ServerApp", "ThreadedPollApp", "DispatchPoolApp", "TwoTierApp"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything an app model needs, plus calibration targets."""

    name: str
    syscalls: SyscallSpec
    service: ServiceModel
    workers: int = 8
    #: Cores the server is pinned to (the machine profile is restricted to
    #: this count, mirroring container CPU pinning in the paper's setup).
    cores: int = 8
    connections: int = 16
    request_size: int = 64
    response_size: int = 256
    #: p99 threshold defining QoS failure for this service.
    qos_latency_ns: int = 50 * MSEC
    #: The failure RPS the paper reports for this workload (ground truth
    #: for EXPERIMENTS.md comparisons).
    paper_fail_rps: float = 0.0
    #: Responses sent as 1..N chunked send syscalls (moses-style noise).
    sends_per_request: Tuple[int, int] = (1, 1)
    #: Probability of a non-request ``write`` per request (logging noise —
    #: Web Search's R² degradation).
    log_write_prob: float = 0.0
    #: Rate (per second) of bulk log flushes from a dedicated logger thread;
    #: each flush emits a burst of ``log_burst_size`` writes.  Burst counts
    #: do not average out across observation windows, which is what keeps
    #: Web Search's R² structurally low (~0.86) rather than
    #: sampling-limited.
    log_burst_rate: float = 0.0
    #: (min, max) writes per log flush burst.
    log_burst_size: Tuple[int, int] = (50, 150)
    #: Bypass the syscall layer entirely (the io_uring limitation, §V-C).
    io_uring: bool = False
    #: Scales the machine's convoy-window duration for this workload
    #: (contention timescales are app-specific: sub-ms for memcached's
    #: lock camping, tens of ms for JVM pauses).
    interference_scale: float = 1.0
    #: Dynamic batching (Triton-style): executors coalesce up to this many
    #: queued requests into one batch.  1 disables batching.
    batch_max: int = 1
    #: How long an executor waits for more requests to fill a batch.
    batch_window_ns: int = 0
    #: Marginal cost of each additional batched request relative to a solo
    #: one (GPU batching amortizes heavily; 0.35 ≈ Triton-like).
    batch_marginal_cost: float = 0.35
    #: Front-end threads (two-tier apps only).
    frontend_threads: int = 2
    #: Max in-flight requests per front-end thread before backpressure.
    inflight_limit: int = 8
    #: Small per-request front-end cost (two-tier) / network-thread cost.
    frontend_service: Optional[ServiceModel] = None

    def __post_init__(self) -> None:
        if self.workers < 1 or self.cores < 1 or self.connections < 1:
            raise ValueError("workers, cores and connections must be positive")
        low, high = self.sends_per_request
        if not 1 <= low <= high:
            raise ValueError(f"bad sends_per_request range {self.sends_per_request}")
        if not 0.0 <= self.log_write_prob <= 1.0:
            raise ValueError("log_write_prob must be a probability")
        if self.batch_max < 1 or self.batch_window_ns < 0:
            raise ValueError("batch_max must be >=1 and batch_window_ns >=0")
        if not 0.0 < self.batch_marginal_cost <= 1.0:
            raise ValueError("batch_marginal_cost must be in (0, 1]")

    def with_overrides(self, **kwargs) -> "WorkloadConfig":
        return replace(self, **kwargs)


def _round_robin_split(items: Sequence, buckets: int) -> List[list]:
    shares: List[list] = [[] for _ in range(buckets)]
    for index, item in enumerate(items):
        shares[index % buckets].append(item)
    return [share for share in shares if share]


class ServerApp:
    """Common wiring: connections, setup phase, client socket exposure."""

    #: Requested workload-sim tier: ``"reference"`` (generator service
    #: loops) or ``"compiled"`` (trace-specialized flat loops from
    #: :mod:`repro.workloads.compiled`).  Set before :meth:`start`.
    requested_sim_tier = "reference"
    #: The tier actually running after :meth:`start` — ``"compiled"``
    #: requests fall back to ``"reference"`` when the app's exact type or
    #: config is not specializable.
    sim_tier = "reference"

    def __init__(self, kernel: Kernel, config: WorkloadConfig,
                 client_to_server: Optional[NetemConfig] = None,
                 server_to_client: Optional[NetemConfig] = None) -> None:
        self.kernel = kernel
        self.config = config
        self.c2s = client_to_server or NetemConfig.ideal()
        self.s2c = server_to_client or NetemConfig.ideal()
        self.process = kernel.create_process(config.name)
        self.client_sockets: List[SocketEndpoint] = []
        self._server_sockets: List[SocketEndpoint] = []
        self._accepted_sockets: Optional[List[SocketEndpoint]] = None
        self._service_stream = kernel.seeds.stream(f"{config.name}:service")
        self._noise_stream = kernel.seeds.stream(f"{config.name}:noise")
        self._started = False
        # Per-run noise factors: logging verbosity and response chunking
        # vary run to run (different cache states, corpus mixes, warning
        # volumes).  These are *level-correlated* — they shift a whole run's
        # send-count-per-request — which is what keeps Web Search's and
        # moses' R² structurally below the others' (Fig. 2 / Table II)
        # instead of averaging away with window size.
        low, high = config.sends_per_request
        if config.log_write_prob > 0.0:
            self._run_log_factor = self._noise_stream.uniform(0.2, 2.2)
        else:
            self._run_log_factor = 1.0
        if high > low:
            midpoint = (low + high) / 2.0
            self._run_chunk_mean = midpoint + self._noise_stream.uniform(-0.3, 0.3)
        else:
            self._run_chunk_mean = float(low)
        #: Fault-injection hook (:class:`repro.faults.SendFragmentation`):
        #: when set, every response goes out as exactly this many small
        #: sends — a buffering regression (TCP_NODELAY flip, shrunk
        #: userspace write buffer) that multiplies send-syscall counts
        #: without touching request outcomes.
        self._fragment_override: Optional[int] = None

    @property
    def tgid(self) -> int:
        """The process to monitor (front-end process for multi-tier apps)."""
        return self.process.pid

    @property
    def worker_count(self) -> int:
        return self.config.workers

    def start(self) -> "ServerApp":
        if self._started:
            raise RuntimeError(f"{self.config.name} already started")
        requested = self.requested_sim_tier
        if requested not in ("reference", "compiled"):
            raise ValueError(
                f"unknown sim tier {requested!r}; pick 'reference' or 'compiled'"
            )
        self._started = True
        self._open_connections()
        if requested == "compiled":
            from .compiled import try_specialize

            if try_specialize(self):
                self.sim_tier = "compiled"
                return self
        self.sim_tier = "reference"
        self._spawn()
        return self

    # -- internals ---------------------------------------------------------
    def _open_connections(self) -> None:
        self._listener = self.kernel.create_listener(f"{self.config.name}:lsn")
        for index in range(self.config.connections):
            client, server = self.kernel.open_connection(
                listener=self._listener,
                client_to_server=self.c2s,
                server_to_client=self.s2c,
                name=f"{self.config.name}:c{index}",
            )
            self.client_sockets.append(client)
            self._server_sockets.append(server)

    def _setup_phase(self, task: KernelTask, conns: int):
        """Generator: the accept-loop setup syscalls of Fig. 1(b).

        Runs once per app: a worker *respawned* after a crash re-enters its
        body, but the process's fds survived, so the replacement inherits the
        already-accepted sockets instead of blocking on an empty listener.
        """
        if self._accepted_sockets is not None:
            return self._accepted_sockets
        yield from task.sys_socket()
        yield from task.sys_bind()
        yield from task.sys_listen()
        accepted = []
        for _ in range(conns):
            sock = yield from task.sys_accept(self._listener)
            accepted.append(sock)
        self._accepted_sockets = accepted
        return accepted

    def _chunks_for_response(self) -> int:
        if self._fragment_override is not None:
            return self._fragment_override
        low, high = self.config.sends_per_request
        if high == 1:
            return 1
        draw = self._noise_stream.normal(self._run_chunk_mean, 0.6)
        return max(low, min(high, int(round(draw))))

    @property
    def _effective_log_prob(self) -> float:
        return min(1.0, self.config.log_write_prob * self._run_log_factor)

    def _respond(self, task: KernelTask, sock: SocketEndpoint, request: Message):
        """Generator: send the (possibly chunked) response for a request."""
        config = self.config
        chunks = self._chunks_for_response()
        size = max(1, config.response_size // chunks)
        for chunk in range(chunks):
            tag = request.tag if chunk == chunks - 1 else None  # tag on final
            yield from task.sys_send(
                config.syscalls.send_nr, sock, Message(payload="response", size=size, tag=tag)
            )
        prob = self._effective_log_prob
        if prob and self._noise_stream.bernoulli(prob):
            yield from task.sys_write(self._log_sink(), Message(payload="log", size=128))

    _log_socket: Optional[SocketEndpoint] = None

    def _log_sink(self) -> SocketEndpoint:
        """A connected socket whose peer discards everything (log file)."""
        if self._log_socket is None:
            peer, sink_side = self.kernel.open_connection(name=f"{self.config.name}:log")
            peer.close()  # deliveries to a closed socket are dropped
            self.process.fds.install(sink_side)
            self._log_socket = sink_side
        return self._log_socket

    def _spawn_logger(self, process: Optional[KProcess] = None) -> None:
        """Optional logger thread issuing bursty bulk ``write`` flushes."""
        config = self.config
        if config.log_burst_rate <= 0.0:
            return
        stream = self.kernel.seeds.stream(f"{config.name}:logger")
        mean_gap = int(1e9 / config.log_burst_rate)
        low, high = config.log_burst_size

        def logger(task: KernelTask):
            while True:
                yield from task.sys_nanosleep(stream.exponential_ns(mean_gap))
                for _ in range(stream.randint(low, high)):
                    yield from task.sys_write(
                        self._log_sink(), Message(payload="log", size=100)
                    )

        (process or self.process).spawn_thread(logger, name=f"{config.name}/logger")

    # -- closed-loop actuation hooks (repro.control) -----------------------
    def admission_points(self) -> List[SocketEndpoint]:
        """Server-side sockets a shed-policy admission gate installs on.

        These sit below the application: the gate intercepts deliveries
        before the receive queue, so neither sim tier's service loop ever
        sees a rejected request.
        """
        return list(self._server_sockets)

    def worker_pools(self) -> List[tuple]:
        """``(process, name_substring)`` pools the scale actuator may act on.

        The substring convention matches the fault orchestrator's victim
        selection, so a controller revives exactly the population a
        :class:`~repro.faults.WorkerCrash` targets.
        """
        return [(self.process, f"{self.config.name}/w")]

    def _spawn(self) -> None:
        raise NotImplementedError


class ThreadedPollApp(ServerApp):
    """N worker threads, each polling its share of connections."""

    def worker_pools(self) -> List[tuple]:
        suffix = "/io" if self.config.io_uring else "/w"
        return [(self.process, f"{self.config.name}{suffix}")]

    def _spawn(self) -> None:
        if self.config.io_uring:
            self._spawn_io_uring()
            return
        shares = _round_robin_split(
            list(range(self.config.connections)), self.config.workers
        )
        uses_epoll = self.config.syscalls.poll_nr != Sys.SELECT

        def make_worker(share):
            def worker(task: KernelTask):
                if share and share[0] == 0:
                    # First worker performs the listening-socket setup.
                    yield from self._setup_phase(task, self.config.connections)
                socks = [self._server_sockets[i] for i in share]
                epoll: Optional[EpollInstance] = None
                if uses_epoll:
                    epoll = yield from task.sys_epoll_create1()
                    for sock in socks:
                        yield from task.sys_epoll_ctl(epoll, sock)
                while True:
                    if uses_epoll:
                        ready = yield from task.sys_epoll_wait(epoll)
                    else:
                        ready = yield from task.sys_select(socks)
                    for sock in ready:
                        request = yield from task.sys_recv(
                            self.config.syscalls.recv_nr, sock
                        )
                        yield from task.compute(
                            self.config.service.draw(self._service_stream)
                        )
                        yield from self._respond(task, sock, request)

            return worker

        for index, share in enumerate(shares):
            self.process.spawn_thread(make_worker(share), name=f"{self.config.name}/w{index}")

    def _spawn_io_uring(self) -> None:
        """Workers using a completion-queue model: no recv/send/poll
        syscalls ever fire, so syscall-based observability sees nothing."""
        shares = _round_robin_split(self._server_sockets, self.config.workers)

        def make_worker(socks):
            def worker(task: KernelTask):
                while True:
                    ready = [s for s in socks if s.readable]
                    if not ready:
                        yield task.env.any_of([s.wait_readable() for s in socks])
                        ready = [s for s in socks if s.readable]
                    for sock in ready:
                        request = sock.pop()
                        yield from task.compute(
                            self.config.service.draw(self._service_stream)
                        )
                        sock.send(Message(payload="response",
                                          size=self.config.response_size,
                                          tag=request.tag))

            return worker

        for index, socks in enumerate(shares):
            self.process.spawn_thread(make_worker(socks), name=f"{self.config.name}/io{index}")


class DispatchPoolApp(ServerApp):
    """Triton's structure: network threads dispatch to an executor pool."""

    NETWORK_THREADS = 2

    def worker_pools(self) -> List[tuple]:
        return [(self.process, f"{self.config.name}/exec")]

    def _spawn(self) -> None:
        from ..sim.resources import Store

        queue = Store(self.kernel.env)
        shares = _round_robin_split(
            list(range(self.config.connections)),
            min(self.NETWORK_THREADS, self.config.connections),
        )

        def make_net_thread(share):
            def net_thread(task: KernelTask):
                if share and share[0] == 0:
                    yield from self._setup_phase(task, self.config.connections)
                socks = [self._server_sockets[i] for i in share]
                epoll = yield from task.sys_epoll_create1()
                for sock in socks:
                    yield from task.sys_epoll_ctl(epoll, sock)
                while True:
                    ready = yield from task.sys_epoll_wait(epoll)
                    for sock in ready:
                        request = yield from task.sys_recv(
                            self.config.syscalls.recv_nr, sock
                        )
                        queue.put((sock, request))

            return net_thread

        config = self.config

        def executor(task: KernelTask):
            env = task.env
            while True:
                get_event = queue.get()
                if get_event.triggered:
                    batch = [get_event.value]
                else:
                    # Blocking on the empty dispatch queue surfaces as a
                    # futex wait to a syscall tracer.
                    batch = [(yield from task.sys_futex_wait(get_event))]
                # Dynamic batching: keep collecting until the batch fills or
                # the batching window closes (Triton's dynamic_batching).
                if config.batch_max > 1:
                    deadline = env.now + config.batch_window_ns
                    while len(batch) < config.batch_max:
                        ok, item = queue.try_get()
                        if ok:
                            batch.append(item)
                            continue
                        remaining = deadline - env.now
                        if remaining <= 0:
                            break
                        waiter = queue.get()
                        yield env.any_of([waiter, env.timeout(remaining)])
                        if waiter.triggered:
                            batch.append(waiter.value)
                        else:
                            queue.cancel_get(waiter)
                            break
                solo_cost = config.service.draw(self._service_stream)
                batch_cost = int(
                    solo_cost * (1 + (len(batch) - 1) * config.batch_marginal_cost)
                )
                yield from task.compute(batch_cost)
                for sock, request in batch:
                    yield from self._respond(task, sock, request)

        for index, share in enumerate(shares):
            self.process.spawn_thread(
                make_net_thread(share), name=f"{self.config.name}/net{index}"
            )
        for index in range(self.config.workers):
            self.process.spawn_thread(executor, name=f"{self.config.name}/exec{index}")


class TwoTierApp(ServerApp):
    """Web Search: front-end process + index-search process.

    The front-end polls client connections, forwards requests to the
    back-end over internal sockets (``write``), and relays responses back
    (``write``), occasionally emitting log writes.  When a front-end thread
    has too many requests in flight it *deregisters* its client connections
    (backpressure) and waits only on the back-end — the mechanism behind
    Web Search's post-saturation idleness rise in Fig. 4.
    """

    def __init__(self, kernel: Kernel, config: WorkloadConfig,
                 client_to_server: Optional[NetemConfig] = None,
                 server_to_client: Optional[NetemConfig] = None) -> None:
        super().__init__(kernel, config, client_to_server, server_to_client)
        self.backend_process = kernel.create_process(f"{config.name}-index")

    def worker_pools(self) -> List[tuple]:
        return [
            (self.process, f"{self.config.name}/fe"),
            (self.backend_process, f"{self.config.name}/ix"),
        ]

    def _open_internal(self) -> List[Tuple[SocketEndpoint, SocketEndpoint]]:
        """One internal connection per back-end worker, each end in its fd table."""
        internal = []
        for index in range(self.config.workers):
            front_side, back_side = self.kernel.open_connection(
                name=f"{self.config.name}:int{index}"
            )
            self.process.fds.install(front_side)
            self.backend_process.fds.install(back_side)
            internal.append((front_side, back_side))
        return internal

    def _spawn(self) -> None:
        config = self.config
        frontends = min(config.frontend_threads, config.connections)
        internal = self._open_internal()
        client_shares = _round_robin_split(list(range(config.connections)), frontends)
        backend_shares = _round_robin_split(list(range(config.workers)), frontends)

        def make_frontend(fe_index, client_ids, backend_ids):
            def frontend(task: KernelTask):
                if client_ids and client_ids[0] == 0:
                    yield from self._setup_phase(task, config.connections)
                clients = [self._server_sockets[i] for i in client_ids]
                backends = [internal[i][0] for i in backend_ids]
                epoll = yield from task.sys_epoll_create1()
                for sock in clients + backends:
                    yield from task.sys_epoll_ctl(epoll, sock)
                fe_service = config.frontend_service
                inflight = 0
                clients_registered = True
                rr = 0
                while True:
                    ready = yield from task.sys_epoll_wait(epoll)
                    for sock in ready:
                        if sock in backends:
                            response = yield from task.sys_recv(
                                config.syscalls.recv_nr, sock
                            )
                            inflight -= 1
                            client_index, tag = response.payload
                            # The front-end relays in one send unless the
                            # fragmentation fault is active (chunk noise is a
                            # back-end property; the relay buffer is not).
                            chunks = self._fragment_override or 1
                            size = max(1, config.response_size // chunks)
                            for chunk in range(chunks):
                                chunk_tag = tag if chunk == chunks - 1 else None
                                yield from task.sys_send(
                                    config.syscalls.send_nr,
                                    self._server_sockets[client_index],
                                    Message(payload="response", size=size,
                                            tag=chunk_tag),
                                )
                            if config.log_write_prob and self._noise_stream.bernoulli(
                                self._effective_log_prob
                            ):
                                yield from task.sys_write(
                                    self._log_sink(), Message(payload="log", size=128)
                                )
                        elif clients_registered:
                            request = yield from task.sys_recv(
                                config.syscalls.recv_nr, sock
                            )
                            if fe_service is not None:
                                yield from task.compute(
                                    fe_service.draw(self._service_stream)
                                )
                            client_index = self._server_sockets.index(sock)
                            backend = backends[rr % len(backends)]
                            rr += 1
                            yield from task.sys_send(
                                config.syscalls.send_nr,
                                backend,
                                Message(payload=(client_index, request.tag),
                                        size=request.size),
                            )
                            inflight += 1
                    # Backpressure: stop listening to clients when too many
                    # requests are in flight; resume once drained.
                    if clients_registered and inflight >= config.inflight_limit:
                        for sock in clients:
                            yield from task.sys_epoll_del(epoll, sock)
                        clients_registered = False
                    elif not clients_registered and inflight <= config.inflight_limit // 2:
                        for sock in clients:
                            yield from task.sys_epoll_ctl(epoll, sock)
                        clients_registered = True

            return frontend

        def make_backend(back_side):
            def backend(task: KernelTask):
                epoll = yield from task.sys_epoll_create1()
                yield from task.sys_epoll_ctl(epoll, back_side)
                while True:
                    yield from task.sys_epoll_wait(epoll)
                    request = yield from task.sys_recv(config.syscalls.recv_nr, back_side)
                    yield from task.compute(config.service.draw(self._service_stream))
                    yield from task.sys_send(
                        config.syscalls.send_nr,
                        back_side,
                        Message(payload=request.payload, size=config.response_size),
                    )

            return backend

        for index, (client_ids, backend_ids) in enumerate(
            zip(client_shares, backend_shares)
        ):
            self.process.spawn_thread(
                make_frontend(index, client_ids, backend_ids),
                name=f"{config.name}/fe{index}",
            )
        for index, (_front, back_side) in enumerate(internal):
            self.backend_process.spawn_thread(
                make_backend(back_side), name=f"{config.name}/ix{index}"
            )
        self._spawn_logger()

    @property
    def worker_count(self) -> int:
        return min(self.config.frontend_threads, self.config.connections)
