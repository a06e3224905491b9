"""Kernel tasks (threads) and the syscall layer.

:class:`KernelTask` is the simulated analogue of a Linux task: it has a tid,
belongs to a process (tgid), and interacts with kernel objects exclusively
through ``sys_*`` generator methods.  Every ``sys_*`` call:

1. fires ``raw_syscalls:sys_enter`` (running attached probes, whose cost is
   charged to the syscall),
2. performs the operation — possibly blocking the task,
3. fires ``raw_syscalls:sys_exit`` with the return value.

The enter/exit timestamps observed by probes therefore bracket the true
kernel-side duration, which is the raw signal the whole paper builds on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..net.packet import Message
from ..sim.process import Process
from ..sim.resources import Request
from .objects import FdTable, FileDescriptor
from .polling import EpollInstance, wait_for_readable
from .sockets import ListenSocket, SocketEndpoint
from .syscalls import Sys

__all__ = ["KProcess", "KernelTask"]


class KProcess:
    """A process: a tgid, an fd table, and member tasks."""

    def __init__(self, kernel, pid: int, name: str) -> None:
        self.kernel = kernel
        self.pid = pid  # == tgid
        self.name = name
        self.fds = FdTable()
        self.tasks: List["KernelTask"] = []

    def spawn_thread(self, fn, name: Optional[str] = None) -> "KernelTask":
        """Create a task running ``fn(task)`` (a generator function)."""
        task = self.kernel._new_task(self, name or f"{self.name}/t{len(self.tasks)}")
        self.tasks.append(task)
        task.body_fn = fn
        task.sim_process = self.kernel.env.process(fn(task), name=task.name)
        return task

    def kill_thread(self, task: "KernelTask", cause: str = "killed") -> bool:
        """Forcibly terminate a task at its current wait point (crash
        injection).  Returns False if the task already finished.

        The task's generator unwinds via :class:`Interrupt`, so ``finally``
        blocks run (held CPU cores are released); a *queued* core claim is
        withdrawn explicitly, at the call (a self-driven compiled-tier
        worker's is its reused ``claim`` while that is registered on its
        callback list ``cb``).
        Anything the corpse was about to dequeue is lost — exactly the
        in-flight request a real worker crash eats, which is what the
        client's retry watchdog exists to absorb.
        """
        proc = task.sim_process
        if proc is None or not proc.is_alive:
            return False
        target = proc.target
        cb = proc.cb
        # The crash is deliberate: nobody joins the corpse, so stop its
        # failure from crashing the engine.
        proc.defuse()
        if target is None and not cb:
            # Never resumed, or already interrupted: close the generator.
            proc._generator.close()
            return True
        if cb and proc.claim is not None and proc.claim.callbacks is cb:
            target = proc.claim
        proc.interrupt(cause)
        if isinstance(target, Request):
            target.resource.release(target)
        return True

    def respawn_thread(self, task: "KernelTask") -> "KernelTask":
        """Restart a killed worker: a fresh task (new tid, same name and
        tgid) running the same body the original was spawned with."""
        if task.body_fn is None:
            raise ValueError(f"{task!r} was not spawned with a body function")
        return self.spawn_thread(task.body_fn, name=task.name)

    def adopt_thread(self, name: Optional[str] = None) -> "KernelTask":
        """Create a task whose body is driven externally (tests)."""
        task = self.kernel._new_task(self, name or f"{self.name}/t{len(self.tasks)}")
        self.tasks.append(task)
        return task

    def __repr__(self) -> str:
        return f"<KProcess {self.name} pid={self.pid} tasks={len(self.tasks)}>"


class KernelTask:
    """One schedulable thread with the full syscall interface."""

    def __init__(self, kernel, process: KProcess, tid: int, name: str) -> None:
        self.kernel = kernel
        self.process = process
        self.tid = tid
        self.name = name
        self.env = kernel.env
        self.sim_process: Optional[Process] = None
        #: The generator function this task was spawned with (None for
        #: adopted tasks); kept so a crashed worker can be respawned.
        self.body_fn = None

    @property
    def pid_tgid(self) -> int:
        """``bpf_get_current_pid_tgid()``: tgid in the high 32 bits."""
        return (self.process.pid << 32) | self.tid

    # ------------------------------------------------------------------
    # syscall plumbing
    # ------------------------------------------------------------------
    def _enter(self, nr: int, args: Sequence[int] = ()):
        """Fire sys_enter, then charge probe cost + kernel-entry overhead."""
        bus = self.kernel.tracepoints
        cost = bus.fire_enter(self.pid_tgid, nr, tuple(args), self.env.now)
        cost += self.kernel.spec.syscall_overhead_ns
        if cost > 0:
            yield self.env.timeout(cost)

    def _exit(self, nr: int, ret: int):
        """Fire sys_exit, then charge probe cost (after the timestamp)."""
        bus = self.kernel.tracepoints
        cost = bus.fire_exit(self.pid_tgid, nr, ret, self.env.now)
        if cost > 0:
            yield self.env.timeout(cost)

    # ------------------------------------------------------------------
    # compute (userspace, not a syscall)
    # ------------------------------------------------------------------
    def compute(self, duration_ns: int):
        """Burn CPU through the scheduler (request service time)."""
        yield from self.kernel.cpu.execute(duration_ns)

    # ------------------------------------------------------------------
    # receive family
    # ------------------------------------------------------------------
    def sys_read(self, sock: SocketEndpoint):
        return self._recv_syscall(Sys.READ, sock)

    def sys_recvfrom(self, sock: SocketEndpoint):
        return self._recv_syscall(Sys.RECVFROM, sock)

    def sys_recv(self, nr: int, sock: SocketEndpoint):
        """Receive using an explicit recv-family syscall number."""
        return self._recv_syscall(nr, sock)

    def _recv_syscall(self, nr: int, sock: SocketEndpoint):
        yield from self._enter(nr, (sock.fd,))
        if not sock.readable:
            yield sock.wait_readable()
        message = sock.pop()
        yield from self._exit(nr, message.size)
        return message

    # ------------------------------------------------------------------
    # send family
    # ------------------------------------------------------------------
    def sys_write(self, sock: SocketEndpoint, message: Message):
        return self._send_syscall(Sys.WRITE, sock, message)

    def sys_sendto(self, sock: SocketEndpoint, message: Message):
        return self._send_syscall(Sys.SENDTO, sock, message)

    def sys_sendmsg(self, sock: SocketEndpoint, message: Message):
        return self._send_syscall(Sys.SENDMSG, sock, message)

    def sys_send(self, nr: int, sock: SocketEndpoint, message: Message):
        """Send using an explicit send-family syscall number."""
        return self._send_syscall(nr, sock, message)

    def _send_syscall(self, nr: int, sock: SocketEndpoint, message: Message):
        yield from self._enter(nr, (sock.fd, message.size))
        ret = sock.send(message)
        yield from self._exit(nr, ret)
        return ret

    # ------------------------------------------------------------------
    # poll family
    # ------------------------------------------------------------------
    def sys_epoll_wait(self, epoll: EpollInstance, timeout_ns: Optional[int] = None):
        """``epoll_wait``: block until the interest set has readable fds."""
        yield from self._enter(Sys.EPOLL_WAIT, (epoll.fd,))
        ready = yield from epoll.wait(timeout_ns)
        yield from self._exit(Sys.EPOLL_WAIT, len(ready))
        return ready

    def sys_select(self, fds: Sequence[FileDescriptor], timeout_ns: Optional[int] = None):
        """Legacy ``select`` over an explicit fd list (TailBench style)."""
        yield from self._enter(Sys.SELECT, (len(fds),))
        ready = yield from wait_for_readable(self.env, fds, timeout_ns)
        yield from self._exit(Sys.SELECT, len(ready))
        return ready

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def sys_accept(self, listener: ListenSocket):
        """``accept``: pop (or wait for) a pending connection; installs the
        new socket in the process fd table."""
        yield from self._enter(Sys.ACCEPT, ())
        if not listener.readable:
            ready = yield from wait_for_readable(self.env, [listener])
            assert ready, "accept woke without pending connection"
        sock = listener.pop()
        fd_number = self.process.fds.install(sock)
        yield from self._exit(Sys.ACCEPT, fd_number)
        return sock

    def sys_epoll_create1(self):
        yield from self._enter(Sys.EPOLL_CREATE1, ())
        epoll = EpollInstance(self.env, name=f"{self.name}:epoll")
        yield from self._exit(Sys.EPOLL_CREATE1, self.process.fds.install(epoll))
        return epoll

    def sys_epoll_ctl(self, epoll: EpollInstance, fd_obj: FileDescriptor):
        """``epoll_ctl(EPOLL_CTL_ADD)``."""
        yield from self._enter(Sys.EPOLL_CTL, ())
        epoll.register(fd_obj)
        yield from self._exit(Sys.EPOLL_CTL, 0)
        return 0

    def sys_epoll_del(self, epoll: EpollInstance, fd_obj: FileDescriptor):
        """``epoll_ctl(EPOLL_CTL_DEL)``."""
        yield from self._enter(Sys.EPOLL_CTL, ())
        epoll.unregister(fd_obj)
        yield from self._exit(Sys.EPOLL_CTL, 0)
        return 0

    # -- setup-phase syscalls (Fig. 1(b) realism; no-ops data-wise) --------
    def sys_socket(self):
        return self._trivial(Sys.SOCKET)

    def sys_bind(self):
        return self._trivial(Sys.BIND)

    def sys_listen(self):
        return self._trivial(Sys.LISTEN)

    def sys_openat(self):
        return self._trivial(Sys.OPENAT)

    def _trivial(self, nr: int):
        yield from self._enter(nr, ())
        yield from self._exit(nr, 0)
        return 0

    # ------------------------------------------------------------------
    # sleeping / userspace blocking
    # ------------------------------------------------------------------
    def sys_nanosleep(self, duration_ns: int):
        yield from self._enter(Sys.NANOSLEEP, (duration_ns,))
        yield self.env.timeout(duration_ns)
        yield from self._exit(Sys.NANOSLEEP, 0)
        return 0

    def sys_futex_wait(self, event):
        """Block on an arbitrary sim event inside a ``futex`` syscall.

        This is how userspace queue/condvar waits (Triton's dispatch queue,
        Web Search's tier hand-off) appear to a syscall tracer.  Returns the
        event's value.
        """
        yield from self._enter(Sys.FUTEX, ())
        value = yield event
        yield from self._exit(Sys.FUTEX, 0)
        return value

    def __repr__(self) -> str:
        return f"<KernelTask {self.name} tid={self.tid}>"
