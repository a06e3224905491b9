"""Reliable, ordered message channels (one TCP direction).

A :class:`Channel` connects a sender to a delivery callback (the receiving
socket).  Every message traverses a :class:`~repro.net.netem.NetemPath`; the
channel then enforces FIFO delivery, which models TCP's in-order guarantee:
a retransmitted message *head-of-line blocks* everything sent after it, so a
single loss inflates the latency of multiple requests — the effect behind
Fig. 5's tail-latency blowup.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.rng import Stream
from .netem import NetemConfig, NetemPath
from .packet import Message

__all__ = ["Channel"]

#: Minimal per-message serialization cost so two messages sent at the same
#: instant never collapse to the same delivery tick.
MIN_SPACING_NS = 1


class Channel:
    """One direction of a connection: sender → netem → FIFO → receiver.

    The zero-initialised state and counters are class-level defaults, so
    building a channel costs its four assignments.
    """

    #: Watermark enforcing in-order delivery.
    _last_arrival = -1
    #: Flow-density tracking for loss recovery: dense flows generate the
    #: dup-ACKs TCP fast retransmit needs (~1.5 RTT recovery); sparse
    #: flows hit tail losses and eat the full RTO.  Kept only on a path
    #: that can lose, since the retransmission estimate is its only reader.
    _last_send_ns: Optional[int] = None
    _gap_ewma_ns: Optional[float] = None
    #: Messages sent strictly before this time are dropped at arrival
    #: (connection reset discards in-flight data).
    _drop_sent_before = 0
    #: Diagnostics.
    sent = 0
    delivered = 0
    reset_drops = 0

    def __init__(
        self,
        env: Environment,
        config: NetemConfig,
        stream: Stream,
        deliver: Optional[Callable[[Message], None]] = None,
        name: str = "chan",
    ) -> None:
        self.env = env
        self.name = name
        self.path = NetemPath(config, stream)
        self._deliver = deliver

    def connect(self, deliver: Callable[[Message], None]) -> None:
        """Late-bind the delivery callback."""
        self._deliver = deliver

    def send(self, message: Message) -> int:
        """Enqueue ``message``; returns its scheduled arrival time (ns)."""
        if self._deliver is None:
            raise RuntimeError(f"channel {self.name!r} has no receiver connected")
        env = self.env
        now = env._now
        message.sent_at = now
        path = self.path
        config = path.config
        size = message.size
        arrival = now + path.transit_ns(
            self._loss_recovery_ns() if config.can_fail else None, size
        )
        # Rate limiting (tc-netem 'rate'): a message cannot finish arriving
        # until the link has clocked it out after the previous message.
        spacing = MIN_SPACING_NS
        if config.rate_bps:
            serialization = config.serialization_ns(size)
            arrival += serialization
            spacing = max(MIN_SPACING_NS, serialization)
        if arrival < self._last_arrival + spacing:
            arrival = self._last_arrival + spacing
        self._last_arrival = arrival
        if config.duplicate and path.duplicate_draw(size):
            # tc-netem 'duplicate': the receiver's TCP discards the copy,
            # but it still clocks out behind the original and delays
            # whatever is sent next on this direction.
            self._last_arrival = arrival + spacing
        self.sent += 1

        event = Event(env)
        event.callbacks.append(self._arrive)
        event._value = message
        env._schedule(event, arrival)
        return arrival

    def _loss_recovery_ns(self) -> Optional[int]:
        """First-retransmission latency estimate for this flow (and update
        the flow-density EWMA with the current send gap)."""
        now = self.env.now
        if self._last_send_ns is not None:
            gap = now - self._last_send_ns
            if self._gap_ewma_ns is None:
                self._gap_ewma_ns = float(gap)
            else:
                self._gap_ewma_ns = 0.8 * self._gap_ewma_ns + 0.2 * gap
        self._last_send_ns = now
        if self._gap_ewma_ns is None:
            return None  # unknown density: assume tail loss (full RTO)
        # Fast retransmit needs ~3 following segments (dup-ACKs) plus ~1.5
        # round trips of the configured path delay.
        fast = int(3 * self._gap_ewma_ns + 3 * self.path.config.delay_ns) + 1
        return fast

    def stall(self, duration_ns: int) -> None:
        """Head-of-line stall this direction for ``duration_ns``: nothing
        sent from now on is delivered before ``now + duration_ns``, and the
        backlog then drains in order at the link's pacing.  Models admission
        delay upstream of the receiver — a saturated listen backlog holding
        accepts, or a middlebox pausing a flow — which the receiver's own
        syscalls cannot see: from its side the connection merely goes quiet,
        then catches up.  Messages already in flight keep their schedule
        (they are past the stall point, like data already in the backlog)."""
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        self._last_arrival = max(self._last_arrival, self.env.now + duration_ns)

    def reset(self) -> None:
        """Model a connection reset on this direction: every message
        already in flight (sent before now) is discarded instead of
        delivered, like data queued on a connection that receives an RST.
        Messages sent from this instant on flow normally.

        The post-reset direction is a *new* TCP connection, so the pacing
        and flow-density state of the torn-down one must not leak into it:
        the in-order watermark would head-of-line-block the first fresh
        send behind discarded in-flight data, and a stale send-gap EWMA
        would let the new flow inherit the old flow's fast-retransmit
        density estimate."""
        self._drop_sent_before = self.env.now
        self._last_arrival = -1
        self._last_send_ns = None
        self._gap_ewma_ns = None

    def _arrive(self, event: Event) -> None:
        message = event._value
        if message.sent_at < self._drop_sent_before:
            self.reset_drops += 1
            return
        message.delivered_at = self.env.now
        self.delivered += 1
        self._deliver(message)

    def __repr__(self) -> str:
        return f"<Channel {self.name} sent={self.sent} delivered={self.delivered}>"
