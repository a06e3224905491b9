"""Stream sockets over netem channels.

A connection is a pair of :class:`SocketEndpoint` objects joined by two
:class:`~repro.net.channel.Channel` instances (one per direction).  Each
endpoint buffers delivered messages in an unbounded receive queue; delivery
notifies readiness watchers so blocked ``epoll_wait``/``recv`` calls wake.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..net.channel import Channel
from ..net.netem import NetemConfig
from ..net.packet import Message
from ..sim.engine import Environment
from ..sim.rng import SeedSequence
from .objects import FileDescriptor

__all__ = ["SocketEndpoint", "ListenSocket", "connect_pair"]


class SocketEndpoint(FileDescriptor):
    """One end of an established stream connection."""

    #: Optional admission gate consulted before a delivered message is
    #: queued (closed-loop load shedding, :mod:`repro.control`).  ``None``
    #: on the class so the plain data path pays a single attribute check.
    admission = None
    #: The outbound channel (set by :func:`connect_pair`) and the other end.
    _tx: Optional[Channel] = None
    peer: Optional["SocketEndpoint"] = None
    #: Diagnostics.
    rx_messages = 0
    tx_messages = 0

    def __init__(self, env: Environment, name: str = "sock") -> None:
        super().__init__(name=name)
        self.env = env
        self.rx: Deque[Message] = deque()

    # -- data path ---------------------------------------------------------
    @property
    def readable(self) -> bool:
        return bool(self.rx)

    def deliver(self, message: Message) -> None:
        """Called by the inbound channel when a message arrives.

        When an admission gate is installed on this endpoint (server-side
        sockets under a ``"shed"`` controller), the gate may consume the
        message *below* the application — the rejected request never
        reaches the receive queue; the gate answers it on the wire.  Both
        sim tiers funnel every inbound message through here, so the gate
        behaves identically under the reference and compiled workload
        loops.
        """
        if self.closed:
            return
        if self.admission is not None and not self.admission.admit(self, message):
            return
        self.rx.append(message)
        self.rx_messages += 1
        self._notify()

    def send(self, message: Message) -> int:
        """Hand a message to the outbound channel; returns bytes sent."""
        if self.closed:
            raise OSError(f"send on closed socket {self.name}")
        if self._tx is None:
            raise RuntimeError(f"socket {self.name} is not connected")
        self._tx.send(message)
        self.tx_messages += 1
        return message.size

    def pop(self) -> Message:
        """Dequeue the oldest received message (caller checked readable)."""
        return self.rx.popleft()

    def wait_readable(self):
        """Event that fires when the socket has (or receives) data."""
        event = self.env.event()
        if self.rx:
            event.succeed(self)
            return event

        def waker(fd, _event=event):
            if not _event.triggered:
                _event.succeed(fd)
            self.remove_watcher(waker)

        self.add_watcher(waker)
        return event


class ListenSocket(FileDescriptor):
    """A listening socket: readiness means a pending connection to accept."""

    def __init__(self, env: Environment, name: str = "listen") -> None:
        super().__init__(name=name)
        self.env = env
        self.pending: Deque[SocketEndpoint] = deque()
        self.accepted = 0

    @property
    def readable(self) -> bool:
        return bool(self.pending)

    def enqueue(self, server_side: SocketEndpoint) -> None:
        self.pending.append(server_side)
        self._notify()

    def pop(self) -> SocketEndpoint:
        self.accepted += 1
        return self.pending.popleft()


def connect_pair(
    env: Environment,
    seeds: SeedSequence,
    name: str,
    client_to_server: NetemConfig,
    server_to_client: NetemConfig,
    listener: Optional[ListenSocket] = None,
) -> Tuple[SocketEndpoint, SocketEndpoint]:
    """Create a connected (client, server) socket pair.

    Each direction gets its own netem path and RNG stream.  If ``listener``
    is given, the server side lands in its accept queue instead of being
    returned ready-made (the accepting thread still sees the same object).
    """
    client = SocketEndpoint(env, name=f"{name}:client")
    server = SocketEndpoint(env, name=f"{name}:server")
    client.peer, server.peer = server, client

    c2s, s2c = f"{name}:c2s", f"{name}:s2c"
    client._tx = Channel(env, client_to_server, seeds.stream(c2s), server.deliver, c2s)
    server._tx = Channel(env, server_to_client, seeds.stream(s2c), client.deliver, s2c)

    if listener is not None:
        listener.enqueue(server)
    return client, server
