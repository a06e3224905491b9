"""Trace-specialized (compiled-tier) service loops for the workload apps.

This is the workload-simulation counterpart of :mod:`repro.ebpf.compiled`:
where the eBPF compiled tier translates a *program* into one flat Python
function, this module specializes each app archetype's steady-state
per-request service *trace* into flat generators.  The reference apps
(:mod:`repro.workloads.base`) express every request through a chain of
delegating generators —

    worker -> sys_epoll_wait -> body -> _enter -> ... (4-6 frames deep)

— so each simulated nanosecond of progress pays a ``yield from`` bubble
through the whole chain plus a generator frame per syscall.  Here each
step of a request is one *block*, a sub-generator one frame below the
worker's loop: ``poll`` (the epoll/select wait-set dance), ``recv``,
``send``, ``respond`` (chunked sends plus the log-write draw) and
``compute`` (the CPU quantum-slice loop).  A block inlines its
tracepoint firing, syscall overhead charging and socket queue
operations, and closes over the app's invariants (tracepoint bus, core
resource internals, syscall numbers, per-run noise constants), which
:func:`_block_factory` hoists once per app.  Each worker loop then reads
like its reference twin.

The bodies are plain kernel threads: their process drives the cold setup
(which still uses the reference syscall helpers), then each switches to
the *self-driving* protocol (:data:`repro.sim.process.SELF_DRIVE`): the
generator owns its ``send`` bound method and pre-registers it as the
sole callback of every event it waits on, so the engine resumes it with
zero driver frames; the per-slice core claim and hold events are single
reused objects re-armed in place rather than fresh allocations.  A
worker binds its blocks once, to its own callback list ``cb`` (``cb =
yield SELF_DRIVE``) and its own claim and hold, and may ``yield from``
them: every wait inside a block registers that same ``cb``, so
``gen.send`` on the worker reaches the block's bare ``yield`` through
the delegation.  A self-driven body never ``yield from``-s a reference
syscall helper, whose waits would not register ``cb``.  A crash unwinds
a flat worker where it unwinds a reference one, and a respawned worker
re-enters its body and switches to self-drive as it did at start.

Semantics contract (pinned by ``tests/workloads/test_compiled_apps.py``):
a specialized app is **bit-identical** to its generator twin — same RNG
draw order on every stream, same timestamps, same tracepoint firings with
the same context fields, same metric output.  Event ids differ (the flat
loops skip creating events that the reference path triggers and then
discards unobserved, e.g. ``Store.put`` acknowledgements), which is safe
because only the *relative* order of callback-bearing events determines
dispatch, and that order is preserved.

Fallback rules (mirroring the eBPF tiers' per-program fallback):

* only the exact archetype classes specialize — subclasses may override
  hooks the flat loops bypass, so they fall back to their own ``_spawn``;
* ``io_uring`` configs fall back (different loop structure, cold path);
* ``DispatchPoolApp`` with dynamic batching (``batch_max > 1``) falls
  back — the batching window logic is control-flow heavy and cold.

:func:`try_specialize` returns ``False`` on fallback and the caller runs
the generator ``_spawn`` instead, so specialization is never observable
except in wall-clock speed.
"""

from __future__ import annotations

from heapq import heappush

from ..kernel.syscalls import Sys
from ..net.packet import Message
from ..sim.events import PENDING, Event, Timeout
from ..sim.process import SELF_DRIVE
from ..sim.resources import Request, Store
from .base import (
    DispatchPoolApp,
    ServerApp,
    ThreadedPollApp,
    TwoTierApp,
    _round_robin_split,
)

__all__ = ["try_specialize"]


def try_specialize(app: ServerApp) -> bool:
    """Spawn flat specialized workers for ``app`` if its exact type and
    config are supported; returns False (spawning nothing) on fallback."""
    specializer = _SPECIALIZERS.get(type(app))
    if specializer is None:
        return False
    return specializer(app)


def _block_factory(app: ServerApp):
    """Hoist ``app``'s engine and kernel invariants once; returns
    ``blocks(task, cb)``, which binds one worker's ``(poll, recv, send,
    respond, compute)`` to its pid_tgid, its callback list ``cb`` and
    its own reused core claim and slice hold."""
    kernel = app.kernel
    env = kernel.env
    fire_enter = kernel.tracepoints.fire_enter
    fire_exit = kernel.tracepoints.fire_exit
    overhead = kernel.spec.syscall_overhead_ns
    cpu = kernel.cpu
    cores = cpu._cores
    granted = cores._granted
    waiting = cores._waiting
    core_cap = cores.capacity
    ncores = cpu.spec.cores
    quantum = cpu.spec.quantum_ns
    ctx_ns = cpu.spec.ctx_switch_ns
    stall_fn = cpu.interference.stall_ns
    heap = env._queue
    imm_append = env._immediate.append
    wait_pop = waiting.popleft
    wait_append = waiting.append
    gr_add = granted.add
    gr_rem = granted.remove
    config = app.config
    recv_nr = config.syscalls.recv_nr
    send_nr = config.syscalls.send_nr
    response_size = config.response_size
    log_prob = app._effective_log_prob
    log_draw = app._noise_stream.bernoulli
    log_sink = app._log_sink

    def blocks(task, cb):
        pid_tgid = task.pid_tgid
        # The core claim, re-armed every slice (kill_thread withdraws it).
        claim = Request.__new__(Request)
        claim.env = env
        claim.callbacks = None
        claim._ok = True
        claim._defused = False
        claim.resource = cores
        task.sim_process.claim = claim
        # The slice hold, pre-triggered like a Timeout: value and ok are
        # decided at creation.
        hold = Event.__new__(Event)
        hold.env = env
        hold._value = None
        hold._ok = True
        hold._defused = False

        def poll(nr, arg, wait_set):
            """``epoll_wait``/``select`` over ``wait_set``: its ready fds."""
            cost = fire_enter(pid_tgid, nr, (arg,), env._now) + overhead
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield
            ready = [fd for fd in wait_set if fd.rx]
            if not ready:
                wake = Event(env)

                def waker(fd, _event=wake):
                    if _event._value is PENDING:
                        _event.succeed(fd)

                for fd in wait_set:
                    fd._watchers.append(waker)
                wake.callbacks = cb
                try:
                    yield
                finally:
                    for fd in wait_set:
                        watchers = fd._watchers
                        if waker in watchers:
                            watchers.remove(waker)
                ready = [fd for fd in wait_set if fd.rx]
            cost = fire_exit(pid_tgid, nr, len(ready), env._now)
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield
            return ready

        def recv(sock):
            """A recv-family syscall: the next message on ``sock``."""
            cost = fire_enter(pid_tgid, recv_nr, (sock.fd,), env._now) + overhead
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield
            if not sock.rx:
                sock.wait_readable().callbacks = cb
                yield
            message = sock.rx.popleft()
            cost = fire_exit(pid_tgid, recv_nr, message.size, env._now)
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield
            return message

        def send(nr, sock, message):
            """A send-family syscall (``nr``) of ``message`` on ``sock``."""
            cost = fire_enter(pid_tgid, nr, (sock.fd, message.size), env._now) + overhead
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield
            ret = sock.send(message)
            cost = fire_exit(pid_tgid, nr, ret, env._now)
            if cost > 0:
                Timeout(env, cost).callbacks = cb
                yield

        def respond(sock, tag, chunks):
            """``ServerApp._respond`` with the chunk count decided by the
            caller: ``chunks`` sends, the tag on the last, then the
            per-request log-write draw."""
            size = max(1, response_size // chunks)
            last = chunks - 1
            for chunk in range(chunks):
                yield from send(send_nr, sock, Message(
                    payload="response", size=size,
                    tag=tag if chunk == last else None,
                ))
            if log_prob and log_draw(log_prob):
                yield from send(Sys.WRITE, log_sink(), Message(payload="log", size=128))

        def compute(remaining):
            """``CPU.execute``: quantum slices on a claimed core."""
            while remaining > 0:
                claim.callbacks = cb
                if len(granted) < core_cap:
                    gr_add(claim)
                    claim._value = None
                    env._eid = eid = env._eid + 1
                    imm_append((eid, claim))
                else:
                    claim._value = PENDING
                    wait_append(claim)
                yield
                now = env._now
                stall = stall_fn(len(waiting), ncores, now)
                if cpu._stall_until > now:
                    stall += cpu._stall_until - now
                slice_ns = remaining if not waiting else (
                    quantum if quantum < remaining else remaining
                )
                speed = cpu._speed
                wall_ns = slice_ns if speed == 1.0 else max(
                    1, int(round(slice_ns / speed))
                )
                hold.callbacks = cb
                env._eid = teid = env._eid + 1
                heappush(heap, (now + ctx_ns + stall + wall_ns, 1, teid, hold))
                try:
                    yield
                finally:
                    gr_rem(claim)
                    while waiting and len(granted) < core_cap:
                        nxt = wait_pop()
                        gr_add(nxt)
                        nxt._value = None
                        env._eid = neid = env._eid + 1
                        imm_append((neid, nxt))
                cpu.busy_ns += wall_ns
                cpu.stall_ns += stall
                remaining -= slice_ns

        return poll, recv, send, respond, compute

    return blocks


# ----------------------------------------------------------------------
# ThreadedPollApp: N workers, each polling its share of connections
# ----------------------------------------------------------------------

def _specialize_threaded_poll(app: ThreadedPollApp) -> bool:
    if app.config.io_uring:
        return False  # completion-queue loop: cold, structurally different

    blocks = _block_factory(app)
    config = app.config
    draw = config.service.draw
    stream = app._service_stream
    server_sockets = app._server_sockets
    connections = config.connections
    uses_epoll = config.syscalls.poll_nr != Sys.SELECT

    def make_worker(share):
        def worker(task):
            if share and share[0] == 0:
                yield from app._setup_phase(task, connections)
            socks = [server_sockets[i] for i in share]
            if uses_epoll:
                epoll = yield from task.sys_epoll_create1()
                for sock in socks:
                    yield from task.sys_epoll_ctl(epoll, sock)
                poll_nr, poll_arg, wait_set = Sys.EPOLL_WAIT, epoll.fd, epoll._interest
            else:
                poll_nr, poll_arg, wait_set = Sys.SELECT, len(socks), socks
            poll, recv, _send, respond, compute = blocks(task, (yield SELF_DRIVE))
            while True:
                ready = yield from poll(poll_nr, poll_arg, wait_set)
                for sock in ready:
                    request = yield from recv(sock)
                    yield from compute(draw(stream))
                    yield from respond(sock, request.tag, app._chunks_for_response())

        return worker

    shares = _round_robin_split(list(range(connections)), config.workers)
    for index, share in enumerate(shares):
        app.process.spawn_thread(make_worker(share), name=f"{config.name}/w{index}")
    return True


# ----------------------------------------------------------------------
# DispatchPoolApp: network threads feeding an executor pool
# ----------------------------------------------------------------------

def _specialize_dispatch_pool(app: DispatchPoolApp) -> bool:
    if app.config.batch_max > 1:
        return False  # dynamic batching window: cold, control-flow heavy
    if app.config.io_uring:
        return False

    blocks = _block_factory(app)
    kernel = app.kernel
    env = kernel.env
    fire_enter = kernel.tracepoints.fire_enter
    fire_exit = kernel.tracepoints.fire_exit
    overhead = kernel.spec.syscall_overhead_ns
    imm_append = env._immediate.append
    config = app.config
    draw = config.service.draw
    stream = app._service_stream
    server_sockets = app._server_sockets
    connections = config.connections

    queue = Store(env)
    items = queue.items
    getters = queue._getters

    def make_net_thread(share):
        def net_thread(task):
            if share and share[0] == 0:
                yield from app._setup_phase(task, connections)
            socks = [server_sockets[i] for i in share]
            epoll = yield from task.sys_epoll_create1()
            for sock in socks:
                yield from task.sys_epoll_ctl(epoll, sock)
            poll, recv, _send, _respond, _compute = blocks(task, (yield SELF_DRIVE))
            while True:
                ready = yield from poll(Sys.EPOLL_WAIT, epoll.fd, epoll._interest)
                for sock in ready:
                    request = yield from recv(sock)
                    # Store.put on an unbounded store: the reference
                    # path's put acknowledgement triggers immediately and
                    # nobody waits on it.
                    if getters:
                        getter = getters.popleft()
                        getter._value = (sock, request)
                        env._eid = geid = env._eid + 1
                        imm_append((geid, getter))
                    else:
                        items.append((sock, request))

        return net_thread

    def executor(task):
        pid_tgid = task.pid_tgid
        cb = yield SELF_DRIVE
        _poll, _recv, _send, respond, compute = blocks(task, cb)
        while True:
            # -- dispatch-queue get (futex wait when empty) -----------
            if items:
                sock, request = items.popleft()
            else:
                get_event = Event(env)
                getters.append(get_event)
                cost = fire_enter(pid_tgid, Sys.FUTEX, (), env._now) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                if get_event.callbacks is None:
                    # Handed the item while paying the enter cost: the
                    # driver re-schedules a proxy resume in the reference
                    # path — replicate its one-lane-hop dispatch order.
                    proxy = Event(env)
                    proxy._value = get_event._value
                    proxy.callbacks = cb
                    env._eid = peid = env._eid + 1
                    imm_append((peid, proxy))
                else:
                    get_event.callbacks = cb
                sock, request = (yield)._value
                cost = fire_exit(pid_tgid, Sys.FUTEX, 0, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
            # batch_max == 1: the batch is the single request and the
            # batch-cost scaling factor is exactly 1.0.
            yield from compute(draw(stream))
            yield from respond(sock, request.tag, app._chunks_for_response())

    shares = _round_robin_split(
        list(range(connections)), min(app.NETWORK_THREADS, connections)
    )
    for index, share in enumerate(shares):
        app.process.spawn_thread(make_net_thread(share), name=f"{config.name}/net{index}")
    for index in range(config.workers):
        app.process.spawn_thread(executor, name=f"{config.name}/exec{index}")
    return True


# ----------------------------------------------------------------------
# TwoTierApp: front-end process + index-search back-end process
# ----------------------------------------------------------------------

def _specialize_two_tier(app: TwoTierApp) -> bool:
    blocks = _block_factory(app)
    kernel = app.kernel
    env = kernel.env
    fire_enter = kernel.tracepoints.fire_enter
    fire_exit = kernel.tracepoints.fire_exit
    overhead = kernel.spec.syscall_overhead_ns
    config = app.config
    send_nr = config.syscalls.send_nr
    draw = config.service.draw
    fe_service = config.frontend_service
    fe_draw = fe_service.draw if fe_service is not None else None
    stream = app._service_stream
    response_size = config.response_size
    server_sockets = app._server_sockets
    sock_index = {sock: i for i, sock in enumerate(server_sockets)}
    connections = config.connections
    inflight_limit = config.inflight_limit
    resume_limit = inflight_limit // 2

    internal = app._open_internal()

    def make_frontend(client_ids, backend_ids):
        def frontend(task):
            pid_tgid = task.pid_tgid
            if client_ids and client_ids[0] == 0:
                yield from app._setup_phase(task, connections)
            clients = [server_sockets[i] for i in client_ids]
            backends = [internal[i][0] for i in backend_ids]
            backend_set = set(backends)
            epoll = yield from task.sys_epoll_create1()
            for sock in clients + backends:
                yield from task.sys_epoll_ctl(epoll, sock)
            inflight = 0
            clients_registered = True
            rr = 0
            cb = yield SELF_DRIVE
            poll, recv, send, respond, compute = blocks(task, cb)
            while True:
                ready = yield from poll(Sys.EPOLL_WAIT, epoll.fd, epoll._interest)
                for sock in ready:
                    if sock in backend_set:
                        response = yield from recv(sock)
                        inflight -= 1
                        client_index, tag = response.payload
                        # The relay sends once unless a fragmentation
                        # fault is active (chunk noise is a back-end
                        # property; the relay buffer is not).
                        yield from respond(server_sockets[client_index], tag,
                                           app._fragment_override or 1)
                    elif clients_registered:
                        request = yield from recv(sock)
                        if fe_draw is not None:
                            yield from compute(fe_draw(stream))
                        backend = backends[rr % len(backends)]
                        rr += 1
                        yield from send(send_nr, backend, Message(
                            payload=(sock_index[sock], request.tag),
                            size=request.size,
                        ))
                        inflight += 1
                # Backpressure: deregister clients past the in-flight
                # limit; resume once half-drained (cold path, inlined
                # epoll_ctl because a self-driven generator cannot
                # bubble through the reference helpers).
                if clients_registered and inflight >= inflight_limit:
                    epoll_ctl = epoll.unregister
                elif not clients_registered and inflight <= resume_limit:
                    epoll_ctl = epoll.register
                else:
                    continue
                for sock in clients:
                    cost = fire_enter(pid_tgid, Sys.EPOLL_CTL, (), env._now) + overhead
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                    epoll_ctl(sock)
                    cost = fire_exit(pid_tgid, Sys.EPOLL_CTL, 0, env._now)
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                clients_registered = not clients_registered

        return frontend

    def make_backend(back_side):
        def backend(task):
            epoll = yield from task.sys_epoll_create1()
            yield from task.sys_epoll_ctl(epoll, back_side)
            poll, recv, send, _respond, compute = blocks(task, (yield SELF_DRIVE))
            while True:
                yield from poll(Sys.EPOLL_WAIT, epoll.fd, epoll._interest)
                request = yield from recv(back_side)
                yield from compute(draw(stream))
                yield from send(send_nr, back_side, Message(
                    payload=request.payload, size=response_size
                ))

        return backend

    frontends = min(config.frontend_threads, connections)
    client_shares = _round_robin_split(list(range(connections)), frontends)
    backend_shares = _round_robin_split(list(range(config.workers)), frontends)
    for index, (client_ids, backend_ids) in enumerate(
        zip(client_shares, backend_shares)
    ):
        app.process.spawn_thread(
            make_frontend(client_ids, backend_ids), name=f"{config.name}/fe{index}"
        )
    for index, (_front, back_side) in enumerate(internal):
        app.backend_process.spawn_thread(make_backend(back_side), name=f"{config.name}/ix{index}")
    app._spawn_logger()
    return True


_SPECIALIZERS = {
    ThreadedPollApp: _specialize_threaded_poll,
    DispatchPoolApp: _specialize_dispatch_pool,
    TwoTierApp: _specialize_two_tier,
}
