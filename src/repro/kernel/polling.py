"""Readiness polling: ``epoll`` instances and the shared wait helper used by
both ``epoll_wait`` and legacy ``select``."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..sim.engine import Environment
from .objects import FileDescriptor

__all__ = ["EpollInstance", "wait_for_readable"]


def wait_for_readable(
    env: Environment,
    fds: Sequence[FileDescriptor],
    timeout_ns: Optional[int] = None,
):
    """Generator: block until any of ``fds`` is readable (or timeout).

    Returns the list of currently-readable fds — empty only on timeout.
    This single helper backs both ``epoll_wait`` and ``select`` semantics
    (level-triggered: an fd that is already readable returns immediately).
    """
    ready = [fd for fd in fds if fd.readable]
    if ready:
        return ready
    if timeout_ns == 0:
        return []

    wake = env.event()

    def waker(fd, _event=wake):
        if not _event.triggered:
            _event.succeed(fd)

    for fd in fds:
        fd.add_watcher(waker)
    try:
        if timeout_ns is None:
            yield wake
        else:
            yield env.any_of([wake, env.timeout(timeout_ns)])
    finally:
        for fd in fds:
            fd.remove_watcher(waker)
    return [fd for fd in fds if fd.readable]


class EpollInstance:
    """An epoll interest set (created by ``epoll_create1``).

    Only level-triggered read-side interest is modelled — the mode the
    paper's workloads (libevent, gRPC, memcached) actually exercise through
    ``epoll_wait``.
    """

    def __init__(self, env: Environment, name: str = "epoll") -> None:
        self.env = env
        self.name = name
        #: Its fd number once ``epoll_create1`` installs it (-1 until then).
        self.fd = -1
        self._interest: List[FileDescriptor] = []

    def register(self, fd: FileDescriptor) -> None:
        if fd in self._interest:
            raise ValueError(f"{fd!r} is already registered (EEXIST)")
        self._interest.append(fd)

    def unregister(self, fd: FileDescriptor) -> None:
        try:
            self._interest.remove(fd)
        except ValueError:
            raise ValueError(f"{fd!r} is not registered (ENOENT)") from None

    @property
    def interest(self) -> Sequence[FileDescriptor]:
        return tuple(self._interest)

    def ready(self) -> List[FileDescriptor]:
        return [fd for fd in self._interest if fd.readable]

    def wait(self, timeout_ns: Optional[int] = None):
        """Generator with ``epoll_wait`` semantics over the interest set."""
        result = yield from wait_for_readable(self.env, self._interest, timeout_ns)
        return result

    def __repr__(self) -> str:
        return f"<EpollInstance {self.name} interest={len(self._interest)}>"
