"""Background system noise: other processes doing unrelated syscalls.

A real server is never quiet — the paper's collectors filter by
``pid_tgid`` precisely because dozens of other processes hammer the same
tracepoints.  :func:`spawn_noise_process` creates such a neighbour: a
process burning a configurable rate of mixed syscalls (including
send/recv/poll-family ones, the worst case for a leaky filter), so tests
and experiments can verify isolation end to end.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.kernel import Kernel
from ..kernel.threads import KProcess
from ..net.packet import Message
from ..sim.timebase import SEC

__all__ = ["spawn_noise_process"]


def spawn_noise_process(
    kernel: Kernel,
    syscalls_per_second: float = 1000.0,
    name: str = "noise",
    threads: int = 2,
) -> KProcess:
    """Start a neighbour process emitting mixed syscall chatter forever.

    The mix deliberately includes recv/send/poll-family syscalls (a daemon
    shoveling its own sockets), so any tgid-filter bug in a collector shows
    up as corrupted statistics rather than passing silently.
    """
    if syscalls_per_second <= 0:
        raise ValueError("syscalls_per_second must be positive")
    if threads < 1:
        raise ValueError("need at least one noise thread")
    process = kernel.create_process(name)
    stream = kernel.seeds.stream(f"{name}:gaps")
    mean_gap = int(SEC / syscalls_per_second) * threads

    def chatter(task):
        # A private connection pair this process talks to itself over.
        ours, peer = kernel.open_connection(name=f"{name}:{task.tid}")
        process.fds.install(peer)
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, peer)
        while True:
            yield from task.sys_nanosleep(stream.exponential_ns(max(1, mean_gap)))
            choice = stream.randint(0, 3)
            if choice == 0:
                ours.send(Message(payload="noise", size=32))
                yield from task.sys_epoll_wait(ep)
                yield from task.sys_read(peer)
            elif choice == 1:
                yield from task.sys_sendmsg(peer, Message(payload="noise", size=32))
            elif choice == 2:
                yield from task.sys_openat()
            else:
                yield from task.sys_socket()

    for index in range(threads):
        process.spawn_thread(chatter, name=f"{name}/t{index}")
    return process
