"""Shared resources: FIFO capacity resources and item stores.

These mirror the small subset of simpy's resource zoo the kernel needs:

* :class:`Resource` — ``capacity`` slots handed out first-come first-served
  (used for CPU cores and locks);
* :class:`Store` — an unbounded FIFO of items (used for application
  dispatch queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .events import Event

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    The request event triggers once a slot is granted.  Call
    :meth:`Resource.release` with the request to return the slot.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """``capacity`` identical slots, granted in strict FIFO order."""

    def __init__(self, env, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._granted: set = set()
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently granted."""
        return len(self._granted)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._granted) < self.capacity:
            self._granted.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot, waking the oldest waiter if any."""
        if request in self._granted:
            self._granted.remove(request)
        elif request in self._waiting:
            # Cancelling a queued request is allowed (e.g. on interrupt).
            self._waiting.remove(request)
            return
        else:
            raise ValueError("request does not hold this resource")
        while self._waiting and len(self._granted) < self.capacity:
            nxt = self._waiting.popleft()
            self._granted.add(nxt)
            nxt.succeed()

    def __repr__(self) -> str:
        return f"<Resource {self.count}/{self.capacity} used, {self.queue_len} waiting>"


class Store:
    """Unbounded FIFO item store.

    ``put`` always succeeds at once; ``get`` on an empty store blocks
    (returns a pending event).  Getters are served FIFO.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event has already succeeded."""
        event = Event(self.env)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
        event.succeed()
        return event

    def get(self) -> Event:
        """Remove and return the oldest item; blocks while empty."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if self.items:
            return True, self.items.popleft()
        return False, None

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending getter (e.g. poll timed out)."""
        if event in self._getters:
            self._getters.remove(event)

    def __repr__(self) -> str:
        return f"<Store {len(self.items)} items>"
