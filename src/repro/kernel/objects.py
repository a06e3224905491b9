"""Kernel objects: file descriptors and per-process fd tables."""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["FileDescriptor", "FdTable"]

#: Readiness watcher: called with the fd that (possibly) became readable.
Watcher = Callable[["FileDescriptor"], None]


class FileDescriptor:
    """Base class for pollable kernel objects (sockets, listeners).

    Readiness follows the epoll model: an fd is *readable* when a read-type
    operation would not block.  Watchers are lightweight callbacks used by
    blocked ``epoll_wait``/``select``/``recv`` calls; they fire on every
    data arrival and are removed by their owner on wakeup.
    """

    closed = False
    #: The fd number a process's :class:`FdTable` installed this object
    #: under (-1 until then); syscalls pass it as ``args[0]``.
    fd = -1

    def __init__(self, name: str = "fd") -> None:
        self.name = name
        self._watchers: List[Watcher] = []

    @property
    def readable(self) -> bool:
        """Would a read-type operation complete without blocking?"""
        raise NotImplementedError

    def add_watcher(self, watcher: Watcher) -> None:
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: Watcher) -> None:
        if watcher in self._watchers:
            self._watchers.remove(watcher)

    def _notify(self) -> None:
        """Tell every watcher new data arrived (watchers may self-remove)."""
        for watcher in list(self._watchers):
            watcher(self)

    def close(self) -> None:
        self.closed = True
        self._watchers.clear()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("readable" if self.readable else "idle")
        return f"<{type(self).__name__} {self.name} {state}>"


class FdTable:
    """Per-process fd-number allocation (numbers start at 3, like after
    stdin/stdout/stderr)."""

    FIRST_FD = 3

    def __init__(self) -> None:
        self._table: Dict[int, FileDescriptor] = {}
        self._next = self.FIRST_FD

    def install(self, fd_obj) -> int:
        """Assign the lowest unused fd number to ``fd_obj`` (also kept as
        ``fd_obj.fd``)."""
        number = self._next
        self._next += 1
        self._table[number] = fd_obj
        fd_obj.fd = number
        return number

    def lookup(self, number: int) -> FileDescriptor:
        try:
            return self._table[number]
        except KeyError:
            raise KeyError(f"bad file descriptor {number}") from None

    def remove(self, number: int) -> FileDescriptor:
        fd_obj = self._table.pop(number)
        fd_obj.fd = -1
        return fd_obj

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, number: int) -> bool:
        return number in self._table
