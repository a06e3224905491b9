"""Tests for the syscall layer: tracepoint firing, blocking semantics,
duration bracketing, and trace recording."""

import pytest

from repro.kernel import (
    AMD_EPYC_7302,
    Kernel,
    MachineSpec,
    Sys,
    SyscallFamily,
    TraceRecorder,
)
from repro.net import Message, NetemConfig
from repro.sim import MSEC, USEC, Environment, SeedSequence


def _kernel(env=None, cores=4, syscall_overhead=0, interference=False):
    env = env or Environment()
    spec = MachineSpec(
        name="test",
        cores=cores,
        ctx_switch_ns=0,
        syscall_overhead_ns=syscall_overhead,
    )
    return Kernel(env, spec, SeedSequence(1), interference=interference)


def test_pid_tgid_layout():
    kernel = _kernel()
    proc = kernel.create_process("srv")
    task = proc.adopt_thread()
    assert task.pid_tgid >> 32 == proc.pid
    assert task.pid_tgid & 0xFFFFFFFF == task.tid


def test_distinct_pids_and_tids():
    kernel = _kernel()
    p1, p2 = kernel.create_process("a"), kernel.create_process("b")
    t1, t2 = p1.adopt_thread(), p1.adopt_thread()
    assert p1.pid != p2.pid
    assert t1.tid != t2.tid


def test_send_recv_fire_tracepoints_with_correct_nrs():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        msg = yield from task.sys_read(server)
        yield from task.sys_sendmsg(server, Message(payload="resp", size=msg.size))

    proc.spawn_thread(worker)
    client.send(Message(payload="req", size=100))
    env.run()

    nrs = [r.syscall_nr for r in recorder.records]
    assert nrs == [Sys.READ, Sys.SENDMSG]
    read_rec = recorder.records[0]
    assert read_rec.ret == 100  # read returns byte count
    assert read_rec.family == SyscallFamily.RECV


def test_recv_blocks_until_message_arrives():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection(client_to_server=NetemConfig(delay_ns=4 * MSEC))
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        yield from task.sys_recvfrom(server)

    proc.spawn_thread(worker)
    client.send(Message())
    env.run()

    rec = recorder.records[0]
    assert rec.syscall_nr == Sys.RECVFROM
    assert rec.enter_ns == 0
    assert rec.exit_ns == 4 * MSEC
    assert rec.duration_ns == 4 * MSEC


def test_epoll_wait_duration_measures_idleness():
    """The paper's saturation-slack signal: epoll_wait duration = wait time."""
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection(client_to_server=NetemConfig(delay_ns=7 * MSEC))
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        ready = yield from task.sys_epoll_wait(ep)
        assert ready == [server]

    proc.spawn_thread(worker)
    client.send(Message())
    env.run()

    waits = recorder.by_syscall(Sys.EPOLL_WAIT)
    assert len(waits) == 1
    assert waits[0].duration_ns == 7 * MSEC


def test_select_records_legacy_syscall():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        ready = yield from task.sys_select([server])
        assert ready == [server]

    proc.spawn_thread(worker)
    client.send(Message())
    env.run()
    assert [r.syscall_nr for r in recorder.records] == [Sys.SELECT]


def test_accept_installs_fd():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    listener = kernel.create_listener()
    recorder = TraceRecorder(kernel.tracepoints).attach()
    accepted = []

    def acceptor(task):
        sock = yield from task.sys_accept(listener)
        accepted.append(sock)

    proc.spawn_thread(acceptor)
    _client, server_side = kernel.open_connection(listener=listener)
    env.run()

    assert accepted == [server_side]
    assert server_side.fd == 3
    assert recorder.records[0].syscall_nr == Sys.ACCEPT
    assert recorder.records[0].ret == 3


def test_fd_arguments_are_fd_table_numbers():
    """epoll_create1 installs the instance and returns its fd; epoll_wait,
    read and sendmsg name their objects by fd number in ``args[0]``."""
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    listener = kernel.create_listener()
    recorder = TraceRecorder(kernel.tracepoints).attach()
    named = []
    kernel.tracepoints.sys_enter.attach(
        lambda pid_tgid, nr, args, ktime_ns: named.append((nr, args[:1])) if args else None)

    def worker(task):
        sock = yield from task.sys_accept(listener)
        epoll = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(epoll, sock)
        yield from task.sys_epoll_wait(epoll)
        request = yield from task.sys_read(sock)
        yield from task.sys_sendmsg(sock, request)

    proc.spawn_thread(worker)
    client, _server_side = kernel.open_connection(listener=listener)
    client.send(Message())
    env.run()

    assert [r.ret for r in recorder.by_syscall(Sys.EPOLL_CREATE1)] == [4]
    assert named == [(Sys.EPOLL_WAIT, (4,)), (Sys.READ, (3,)), (Sys.SENDMSG, (3,))]


def test_syscall_overhead_brackets_duration():
    kernel = _kernel(syscall_overhead=600)
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()
    client.send(Message())
    env.run()
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        yield from task.sys_read(server)

    proc.spawn_thread(worker)
    env.run()
    assert recorder.records[0].duration_ns == 600


def test_probe_cost_charged_to_syscall():
    """EXP-OVH mechanism: tracing cost appears inside syscall duration."""
    def run_with(probe_cost):
        kernel = _kernel(syscall_overhead=0)
        env = kernel.env
        proc = kernel.create_process("srv")
        client, server = kernel.open_connection()
        client.send(Message())
        env.run()
        recorder = TraceRecorder(kernel.tracepoints, probe_cost_ns=probe_cost).attach()
        done = []

        def worker(task):
            yield from task.sys_read(server)
            done.append(env.now)

        proc.spawn_thread(worker)
        env.run()
        return recorder.records[0].duration_ns, done[0]

    dur0, end0 = run_with(0)
    dur1, end1 = run_with(2 * USEC)
    assert dur0 == 0
    # Enter-probe cost lands inside the bracketed duration; exit-probe cost
    # delays the caller after the exit timestamp.
    assert dur1 == 2 * USEC
    assert end1 == end0 + 4 * USEC


def test_trace_recorder_tgid_filter():
    kernel = _kernel()
    env = kernel.env
    proc_a = kernel.create_process("a")
    proc_b = kernel.create_process("b")
    recorder = TraceRecorder(kernel.tracepoints, tgid=proc_a.pid).attach()

    def worker(task):
        yield from task.sys_socket()

    proc_a.spawn_thread(worker)
    proc_b.spawn_thread(worker)
    env.run()
    assert len(recorder.records) == 1
    assert recorder.records[0].tgid == proc_a.pid


def test_trace_recorder_context_manager_detaches():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")

    with TraceRecorder(kernel.tracepoints) as recorder:
        def worker(task):
            yield from task.sys_socket()

        proc.spawn_thread(worker)
        env.run()
    assert len(recorder.records) == 1
    assert not kernel.tracepoints.any_probes


def test_enter_times_sorted_by_family():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        for _ in range(3):
            msg = yield from task.sys_read(server)
            yield from task.sys_sendto(server, Message(size=msg.size))

    proc.spawn_thread(worker)
    for _ in range(3):
        client.send(Message())
    env.run()

    sends = recorder.enter_times({Sys.SENDTO})
    assert len(sends) == 3
    assert sends == sorted(sends)


def test_nanosleep():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    recorder = TraceRecorder(kernel.tracepoints).attach()

    def worker(task):
        yield from task.sys_nanosleep(3 * MSEC)

    proc.spawn_thread(worker)
    env.run()
    assert recorder.records[0].duration_ns == 3 * MSEC


def test_futex_wait_wraps_userspace_blocking():
    kernel = _kernel()
    env = kernel.env
    proc = kernel.create_process("srv")
    recorder = TraceRecorder(kernel.tracepoints).attach()
    gate = env.event()
    got = []

    def waiter(task):
        value = yield from task.sys_futex_wait(gate)
        got.append(value)

    def opener():
        yield env.timeout(5 * MSEC)
        gate.succeed("go")

    proc.spawn_thread(waiter)
    env.process(opener())
    env.run()
    assert got == ["go"]
    futexes = recorder.by_syscall(Sys.FUTEX)
    assert futexes[0].duration_ns == 5 * MSEC


def test_compute_contends_on_cpu():
    kernel = _kernel(cores=1)
    env = kernel.env
    proc = kernel.create_process("srv")
    done = []

    def worker(task):
        yield from task.compute(2 * MSEC)
        done.append(env.now)

    proc.spawn_thread(worker)
    proc.spawn_thread(worker)
    env.run()
    assert sorted(done) == [3 * MSEC, 4 * MSEC]


def test_machine_profiles_exist():
    assert AMD_EPYC_7302.cores == 64
    assert AMD_EPYC_7302.name == "amd-epyc-7302"


def test_untraced_kernel_has_zero_probe_overhead():
    kernel = _kernel()
    assert not kernel.tracepoints.any_probes
    # fire paths return 0 cost with no probes
    assert kernel.tracepoints.fire_enter(1, 0, (), 0) == 0
    assert kernel.tracepoints.sys_enter.fired == 1
