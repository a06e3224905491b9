"""Trace-specialized (compiled-tier) service loops for the workload apps.

This is the workload-simulation counterpart of :mod:`repro.ebpf.compiled`:
where the eBPF compiled tier translates a *program* into one flat Python
function, this module specializes each app archetype's steady-state
per-request service *trace* into one flat generator.  The reference apps
(:mod:`repro.workloads.base`) express every request through a chain of
delegating generators —

    worker -> sys_epoll_wait -> body -> _enter -> ... (4-6 frames deep)

— so each simulated nanosecond of progress pays a ``yield from`` bubble
through the whole chain plus a generator frame per syscall.  The flat
loops below inline that chain: tracepoint firing, syscall overhead
charging, socket queue operations, the epoll wait-set dance, dispatch
queue hand-off, and the CPU quantum-slice loop are all expanded into a
single generator body with the invariant lookups (tracepoint bus, core
resource internals, syscall numbers, per-run noise constants) hoisted
out at specialization time.

The bodies start under :class:`repro.sim.compiled.FlatProcess` for the
cold setup (which still uses the reference syscall helpers), then switch
to the *self-driving* protocol (:data:`repro.sim.compiled.SELF_DRIVE`):
each generator owns its ``send`` bound method and pre-registers it as the
sole callback of every event it waits on, so the engine resumes it with
zero driver frames; the per-slice core claim and hold events are single
reused objects re-armed in place rather than fresh allocations.

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
  back — the batching window logic is control-flow heavy and cold;
* faulted cells run the reference tier (``repro.faults.runner`` forces
  it): kill/respawn semantics stay on the fully-general path, and
  self-driven workers cannot be interrupted.  The flat loops do read the
  app's ``SendFragmentation`` override, so a fragmentation fault armed
  on a compiled cell stays bit-identical.

:func:`try_specialize` returns ``False`` on fallback and the caller runs
the generator ``_spawn`` instead, so specialization is never observable
except in wall-clock speed.
"""

from __future__ import annotations

from heapq import heappush

from ..kernel.syscalls import Sys
from ..net.packet import Message
from ..sim.compiled import SELF_DRIVE
from ..sim.events import PENDING, Event, Timeout
from ..sim.resources import Request
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


def _hoist(app: ServerApp):
    """The engine/kernel invariants every flat loop closes over."""
    kernel = app.kernel
    env = kernel.env
    cpu = kernel.cpu
    cores = cpu._cores
    return (
        env,
        kernel.tracepoints.fire_enter,
        kernel.tracepoints.fire_exit,
        kernel.spec.syscall_overhead_ns,
        cpu,
        cores,
        cores._granted,
        cores._waiting,
        cores.capacity,
        cpu.spec.cores,
        cpu.spec.quantum_ns,
        cpu.spec.ctx_switch_ns,
        cpu.interference.stall_ns,
        env._immediate,
        env._queue,
    )


def _fresh_claim(env, cores):
    """The per-worker reusable core-claim Request (re-armed every slice)."""
    claim = Request.__new__(Request)
    claim.env = env
    claim._ok = True
    claim._defused = False
    claim.resource = cores
    return claim


def _fresh_hold(env):
    """The per-worker reusable CPU-slice hold event (pre-triggered, like a
    Timeout: value and ok are decided at creation)."""
    hold = Event.__new__(Event)
    hold.env = env
    hold._value = None
    hold._ok = True
    hold._defused = False
    return hold


# ----------------------------------------------------------------------
# ThreadedPollApp: N workers, each polling its share of connections
# ----------------------------------------------------------------------

def _specialize_threaded_poll(app: ThreadedPollApp) -> bool:
    if app.config.io_uring:
        return False  # completion-queue loop: cold, structurally different

    (env, fire_enter, fire_exit, overhead, cpu, cores, granted, waiting,
     core_cap, ncores, quantum, ctx_ns, stall_fn, immediate, heap) = _hoist(app)
    config = app.config
    recv_nr = config.syscalls.recv_nr
    send_nr = config.syscalls.send_nr
    write_nr = Sys.WRITE
    poll_nr = config.syscalls.poll_nr
    uses_epoll = poll_nr != Sys.SELECT
    service_draw = config.service.draw
    sstream = app._service_stream
    noise = app._noise_stream
    chunk_low, chunk_high = config.sends_per_request
    chunk_mean = app._run_chunk_mean
    response_size = config.response_size
    log_prob = app._effective_log_prob
    log_sink = app._log_sink
    server_sockets = app._server_sockets
    connections = config.connections

    shares = _round_robin_split(list(range(connections)), config.workers)

    def make_worker(share):
        def worker(task):
            pid_tgid = task.pid_tgid
            accepted = []  # noqa: F841 — mirrors the reference body
            if share and share[0] == 0:
                accepted = yield from app._setup_phase(task, connections)
            socks = [server_sockets[i] for i in share]
            if uses_epoll:
                epoll = yield from task.sys_epoll_create1()
                for sock in socks:
                    yield from task.sys_epoll_ctl(epoll, sock)
                wait_set = epoll._interest
                wait_arg = id(epoll) & 0xFFFF
                wait_nr = Sys.EPOLL_WAIT
            else:
                wait_set = socks
                wait_arg = len(socks)
                wait_nr = Sys.SELECT
            my_send = yield SELF_DRIVE
            cb = [my_send]
            imm_append = immediate.append
            wait_pop = waiting.popleft
            wait_append = waiting.append
            gr_add = granted.add
            gr_rem = granted.remove
            claim = _fresh_claim(env, cores)
            hold = _fresh_hold(env)
            while True:
                # -- epoll_wait / select ------------------------------
                cost = fire_enter(pid_tgid, wait_nr, (wait_arg,), env._now) + overhead
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
                cost = fire_exit(pid_tgid, wait_nr, len(ready), env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                for sock in ready:
                    # -- recv -----------------------------------------
                    cost = fire_enter(
                        pid_tgid, recv_nr, (id(sock) & 0xFFFF,), env._now
                    ) + overhead
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                    if not sock.rx:
                        sock.wait_readable().callbacks = cb
                        yield
                    request = sock.rx.popleft()
                    cost = fire_exit(pid_tgid, recv_nr, request.size, env._now)
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                    # -- compute (CPU quantum-slice loop) -------------
                    remaining = service_draw(sstream)
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
                    # -- respond (chunked sends + log noise) ----------
                    # A SendFragmentation fault fixes the chunk count and
                    # skips the noise draw, as _chunks_for_response does.
                    chunks = app._fragment_override
                    if chunks is None:
                        chunks = 1
                        if chunk_high != 1:
                            chunks = int(round(noise.normal(chunk_mean, 0.6)))
                            if chunks < chunk_low:
                                chunks = chunk_low
                            elif chunks > chunk_high:
                                chunks = chunk_high
                    size = response_size // chunks
                    if size < 1:
                        size = 1
                    last = chunks - 1
                    for chunk in range(chunks):
                        msg = Message(
                            payload="response",
                            size=size,
                            tag=request.tag if chunk == last else None,
                        )
                        cost = fire_enter(
                            pid_tgid, send_nr, (id(sock) & 0xFFFF, size), env._now
                        ) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        ret = sock.send(msg)
                        cost = fire_exit(pid_tgid, send_nr, ret, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                    if log_prob and noise.bernoulli(log_prob):
                        sink = log_sink()
                        msg = Message(payload="log", size=128)
                        cost = fire_enter(
                            pid_tgid, write_nr, (id(sink) & 0xFFFF, 128), env._now
                        ) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        ret = sink.send(msg)
                        cost = fire_exit(pid_tgid, write_nr, ret, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield

        return worker

    for index, share in enumerate(shares):
        app.process.spawn_thread(
            make_worker(share), name=f"{config.name}/w{index}", flat=True
        )
    return True


# ----------------------------------------------------------------------
# DispatchPoolApp: network threads feeding an executor pool
# ----------------------------------------------------------------------

def _specialize_dispatch_pool(app: DispatchPoolApp) -> bool:
    if app.config.batch_max > 1:
        return False  # dynamic batching window: cold, control-flow heavy
    if app.config.io_uring:
        return False

    from ..sim.resources import Store

    (env, fire_enter, fire_exit, overhead, cpu, cores, granted, waiting,
     core_cap, ncores, quantum, ctx_ns, stall_fn, immediate, heap) = _hoist(app)
    config = app.config
    recv_nr = config.syscalls.recv_nr
    send_nr = config.syscalls.send_nr
    write_nr = Sys.WRITE
    futex_nr = Sys.FUTEX
    epoll_nr = Sys.EPOLL_WAIT
    service_draw = config.service.draw
    sstream = app._service_stream
    noise = app._noise_stream
    chunk_low, chunk_high = config.sends_per_request
    chunk_mean = app._run_chunk_mean
    response_size = config.response_size
    log_prob = app._effective_log_prob
    log_sink = app._log_sink
    server_sockets = app._server_sockets
    connections = config.connections

    queue = Store(env)
    items = queue.items
    getters = queue._getters
    shares = _round_robin_split(
        list(range(connections)), min(app.NETWORK_THREADS, connections)
    )

    def make_net_thread(share):
        def net_thread(task):
            pid_tgid = task.pid_tgid
            if share and share[0] == 0:
                yield from app._setup_phase(task, connections)
            socks = [server_sockets[i] for i in share]
            epoll = yield from task.sys_epoll_create1()
            for sock in socks:
                yield from task.sys_epoll_ctl(epoll, sock)
            interest = epoll._interest
            epoll_arg = id(epoll) & 0xFFFF
            my_send = yield SELF_DRIVE
            cb = [my_send]
            imm_append = immediate.append
            while True:
                # -- epoll_wait ---------------------------------------
                cost = fire_enter(pid_tgid, epoll_nr, (epoll_arg,), env._now) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ready = [fd for fd in interest if fd.rx]
                if not ready:
                    wake = Event(env)

                    def waker(fd, _event=wake):
                        if _event._value is PENDING:
                            _event.succeed(fd)

                    for fd in interest:
                        fd._watchers.append(waker)
                    wake.callbacks = cb
                    try:
                        yield
                    finally:
                        for fd in interest:
                            watchers = fd._watchers
                            if waker in watchers:
                                watchers.remove(waker)
                    ready = [fd for fd in interest if fd.rx]
                cost = fire_exit(pid_tgid, epoll_nr, len(ready), env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                for sock in ready:
                    # -- recv -----------------------------------------
                    cost = fire_enter(
                        pid_tgid, recv_nr, (id(sock) & 0xFFFF,), env._now
                    ) + overhead
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                    if not sock.rx:
                        sock.wait_readable().callbacks = cb
                        yield
                    request = sock.rx.popleft()
                    cost = fire_exit(pid_tgid, recv_nr, request.size, env._now)
                    if cost > 0:
                        Timeout(env, cost).callbacks = cb
                        yield
                    # -- dispatch: Store.put on an unbounded store ----
                    # (the put acknowledgement event of the reference
                    # path triggers immediately and nobody waits on it)
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
        my_send = yield SELF_DRIVE
        cb = [my_send]
        imm_append = immediate.append
        wait_pop = waiting.popleft
        wait_append = waiting.append
        gr_add = granted.add
        gr_rem = granted.remove
        claim = _fresh_claim(env, cores)
        hold = _fresh_hold(env)
        items_pop = items.popleft
        while True:
            # -- dispatch-queue get (futex wait when empty) -----------
            if items:
                sock, request = items_pop()
            else:
                get_event = Event(env)
                getters.append(get_event)
                cost = fire_enter(pid_tgid, futex_nr, (), env._now) + overhead
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
                    sock, request = (yield)._value
                else:
                    get_event.callbacks = cb
                    sock, request = (yield)._value
                cost = fire_exit(pid_tgid, futex_nr, 0, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
            # batch_max == 1: the batch is the single request and the
            # batch-cost scaling factor is exactly 1.0.
            remaining = service_draw(sstream)
            # -- compute (CPU quantum-slice loop) ---------------------
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
            # -- respond (a fragmentation fault fixes the chunk count) -
            chunks = app._fragment_override
            if chunks is None:
                chunks = 1
                if chunk_high != 1:
                    chunks = int(round(noise.normal(chunk_mean, 0.6)))
                    if chunks < chunk_low:
                        chunks = chunk_low
                    elif chunks > chunk_high:
                        chunks = chunk_high
            size = response_size // chunks
            if size < 1:
                size = 1
            last = chunks - 1
            for chunk in range(chunks):
                msg = Message(
                    payload="response",
                    size=size,
                    tag=request.tag if chunk == last else None,
                )
                cost = fire_enter(
                    pid_tgid, send_nr, (id(sock) & 0xFFFF, size), env._now
                ) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ret = sock.send(msg)
                cost = fire_exit(pid_tgid, send_nr, ret, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
            if log_prob and noise.bernoulli(log_prob):
                sink = log_sink()
                msg = Message(payload="log", size=128)
                cost = fire_enter(
                    pid_tgid, write_nr, (id(sink) & 0xFFFF, 128), env._now
                ) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ret = sink.send(msg)
                cost = fire_exit(pid_tgid, write_nr, ret, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield

    for index, share in enumerate(shares):
        app.process.spawn_thread(
            make_net_thread(share), name=f"{config.name}/net{index}", flat=True
        )
    for index in range(config.workers):
        app.process.spawn_thread(
            executor, name=f"{config.name}/exec{index}", flat=True
        )
    return True


# ----------------------------------------------------------------------
# TwoTierApp: front-end process + index-search back-end process
# ----------------------------------------------------------------------

def _specialize_two_tier(app: TwoTierApp) -> bool:
    (env, fire_enter, fire_exit, overhead, cpu, cores, granted, waiting,
     core_cap, ncores, quantum, ctx_ns, stall_fn, immediate, heap) = _hoist(app)
    config = app.config
    recv_nr = config.syscalls.recv_nr
    send_nr = config.syscalls.send_nr
    write_nr = Sys.WRITE
    epoll_nr = Sys.EPOLL_WAIT
    ctl_nr = Sys.EPOLL_CTL
    service_draw = config.service.draw
    fe_service = config.frontend_service
    fe_draw = fe_service.draw if fe_service is not None else None
    sstream = app._service_stream
    noise = app._noise_stream
    response_size = config.response_size
    log_write_prob = config.log_write_prob
    log_prob = app._effective_log_prob
    log_sink = app._log_sink
    server_sockets = app._server_sockets
    sock_index = {sock: i for i, sock in enumerate(server_sockets)}
    connections = config.connections
    inflight_limit = config.inflight_limit
    resume_limit = inflight_limit // 2

    frontends = min(config.frontend_threads, connections)
    internal = []
    for index in range(config.workers):
        front_side, back_side = app.kernel.open_connection(
            name=f"{config.name}:int{index}"
        )
        internal.append((front_side, back_side))

    client_shares = _round_robin_split(list(range(connections)), frontends)
    backend_shares = _round_robin_split(list(range(config.workers)), frontends)

    def make_frontend(fe_index, client_ids, backend_ids):
        def frontend(task):
            pid_tgid = task.pid_tgid
            if client_ids and client_ids[0] == 0:
                yield from app._setup_phase(task, connections)
            clients = [server_sockets[i] for i in client_ids]
            backends = [internal[i][0] for i in backend_ids]
            backend_set = set(backends)
            n_backends = len(backends)
            epoll = yield from task.sys_epoll_create1()
            for sock in clients + backends:
                yield from task.sys_epoll_ctl(epoll, sock)
            interest = epoll._interest
            epoll_arg = id(epoll) & 0xFFFF
            inflight = 0
            clients_registered = True
            rr = 0
            my_send = yield SELF_DRIVE
            cb = [my_send]
            imm_append = immediate.append
            wait_pop = waiting.popleft
            wait_append = waiting.append
            gr_add = granted.add
            gr_rem = granted.remove
            claim = _fresh_claim(env, cores)
            hold = _fresh_hold(env)
            while True:
                # -- epoll_wait ---------------------------------------
                cost = fire_enter(pid_tgid, epoll_nr, (epoll_arg,), env._now) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ready = [fd for fd in interest if fd.rx]
                if not ready:
                    wake = Event(env)

                    def waker(fd, _event=wake):
                        if _event._value is PENDING:
                            _event.succeed(fd)

                    for fd in interest:
                        fd._watchers.append(waker)
                    wake.callbacks = cb
                    try:
                        yield
                    finally:
                        for fd in interest:
                            watchers = fd._watchers
                            if waker in watchers:
                                watchers.remove(waker)
                    ready = [fd for fd in interest if fd.rx]
                cost = fire_exit(pid_tgid, epoll_nr, len(ready), env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                for sock in ready:
                    if sock in backend_set:
                        # -- recv back-end response -------------------
                        cost = fire_enter(
                            pid_tgid, recv_nr, (id(sock) & 0xFFFF,), env._now
                        ) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        if not sock.rx:
                            sock.wait_readable().callbacks = cb
                            yield
                        response = sock.rx.popleft()
                        cost = fire_exit(pid_tgid, recv_nr, response.size, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        inflight -= 1
                        client_index, tag = response.payload
                        out = server_sockets[client_index]
                        # -- relay to client: one send, or the chunks a
                        # fragmentation fault asks for ----------------
                        chunks = app._fragment_override or 1
                        size = response_size // chunks
                        if size < 1:
                            size = 1
                        last = chunks - 1
                        for chunk in range(chunks):
                            msg = Message(payload="response", size=size,
                                          tag=tag if chunk == last else None)
                            cost = fire_enter(
                                pid_tgid, send_nr, (id(out) & 0xFFFF, size), env._now
                            ) + overhead
                            if cost > 0:
                                Timeout(env, cost).callbacks = cb
                                yield
                            ret = out.send(msg)
                            cost = fire_exit(pid_tgid, send_nr, ret, env._now)
                            if cost > 0:
                                Timeout(env, cost).callbacks = cb
                                yield
                        if log_write_prob and noise.bernoulli(log_prob):
                            sink = log_sink()
                            msg = Message(payload="log", size=128)
                            cost = fire_enter(
                                pid_tgid, write_nr,
                                (id(sink) & 0xFFFF, 128), env._now
                            ) + overhead
                            if cost > 0:
                                Timeout(env, cost).callbacks = cb
                                yield
                            ret = sink.send(msg)
                            cost = fire_exit(pid_tgid, write_nr, ret, env._now)
                            if cost > 0:
                                Timeout(env, cost).callbacks = cb
                                yield
                    elif clients_registered:
                        # -- recv client request ----------------------
                        cost = fire_enter(
                            pid_tgid, recv_nr, (id(sock) & 0xFFFF,), env._now
                        ) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        if not sock.rx:
                            sock.wait_readable().callbacks = cb
                            yield
                        request = sock.rx.popleft()
                        cost = fire_exit(pid_tgid, recv_nr, request.size, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        if fe_draw is not None:
                            # -- front-end compute --------------------
                            remaining = fe_draw(sstream)
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
                        client_index = sock_index[sock]
                        backend = backends[rr % n_backends]
                        rr += 1
                        msg = Message(
                            payload=(client_index, request.tag), size=request.size
                        )
                        # -- forward to back-end ----------------------
                        cost = fire_enter(
                            pid_tgid, send_nr,
                            (id(backend) & 0xFFFF, request.size), env._now
                        ) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        ret = backend.send(msg)
                        cost = fire_exit(pid_tgid, send_nr, ret, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        inflight += 1
                # Backpressure: deregister clients past the in-flight
                # limit; resume once half-drained (cold path, inlined
                # epoll_ctl because a self-driven generator cannot
                # bubble through the reference helpers).
                if clients_registered and inflight >= inflight_limit:
                    for sock in clients:
                        cost = fire_enter(pid_tgid, ctl_nr, (), env._now) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        interest.remove(sock)
                        cost = fire_exit(pid_tgid, ctl_nr, 0, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                    clients_registered = False
                elif not clients_registered and inflight <= resume_limit:
                    for sock in clients:
                        cost = fire_enter(pid_tgid, ctl_nr, (), env._now) + overhead
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                        interest.append(sock)
                        cost = fire_exit(pid_tgid, ctl_nr, 0, env._now)
                        if cost > 0:
                            Timeout(env, cost).callbacks = cb
                            yield
                    clients_registered = True

        return frontend

    def make_backend(back_side):
        def backend(task):
            pid_tgid = task.pid_tgid
            epoll = yield from task.sys_epoll_create1()
            yield from task.sys_epoll_ctl(epoll, back_side)
            interest = epoll._interest
            epoll_arg = id(epoll) & 0xFFFF
            my_send = yield SELF_DRIVE
            cb = [my_send]
            imm_append = immediate.append
            wait_pop = waiting.popleft
            wait_append = waiting.append
            gr_add = granted.add
            gr_rem = granted.remove
            claim = _fresh_claim(env, cores)
            hold = _fresh_hold(env)
            while True:
                # -- epoll_wait ---------------------------------------
                cost = fire_enter(pid_tgid, epoll_nr, (epoll_arg,), env._now) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ready = [fd for fd in interest if fd.rx]
                if not ready:
                    wake = Event(env)

                    def waker(fd, _event=wake):
                        if _event._value is PENDING:
                            _event.succeed(fd)

                    for fd in interest:
                        fd._watchers.append(waker)
                    wake.callbacks = cb
                    try:
                        yield
                    finally:
                        for fd in interest:
                            watchers = fd._watchers
                            if waker in watchers:
                                watchers.remove(waker)
                    ready = [fd for fd in interest if fd.rx]
                cost = fire_exit(pid_tgid, epoll_nr, len(ready), env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                # -- recv -----------------------------------------
                cost = fire_enter(
                    pid_tgid, recv_nr, (id(back_side) & 0xFFFF,), env._now
                ) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                if not back_side.rx:
                    back_side.wait_readable().callbacks = cb
                    yield
                request = back_side.rx.popleft()
                cost = fire_exit(pid_tgid, recv_nr, request.size, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                # -- compute (CPU quantum-slice loop) -----------------
                remaining = service_draw(sstream)
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
                # -- reply to the front-end ---------------------------
                msg = Message(payload=request.payload, size=response_size)
                cost = fire_enter(
                    pid_tgid, send_nr,
                    (id(back_side) & 0xFFFF, response_size), env._now
                ) + overhead
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield
                ret = back_side.send(msg)
                cost = fire_exit(pid_tgid, send_nr, ret, env._now)
                if cost > 0:
                    Timeout(env, cost).callbacks = cb
                    yield

        return backend

    for index, (client_ids, backend_ids) in enumerate(
        zip(client_shares, backend_shares)
    ):
        app.process.spawn_thread(
            make_frontend(index, client_ids, backend_ids),
            name=f"{config.name}/fe{index}",
            flat=True,
        )
    for index, (_front, back_side) in enumerate(internal):
        app.backend_process.spawn_thread(
            make_backend(back_side), name=f"{config.name}/ix{index}", flat=True
        )
    app._spawn_logger()
    return True


_SPECIALIZERS = {
    ThreadedPollApp: _specialize_threaded_poll,
    DispatchPoolApp: _specialize_dispatch_pool,
    TwoTierApp: _specialize_two_tier,
}
