"""tc-netem model: the full impairment knob set over one direction.

The paper injects network impairments with Linux ``tc-netem`` on the
loopback interface (client and server share a machine).  This module models
the knobs the paper turns — fixed delay (with optional jitter) and iid loss
probability — plus the rest of tc-netem's packet-mangling repertoire, so
robustness experiments can sweep realistic fault classes:

* ``reorder`` (with ``gap``): a fraction of packets jump the delay queue
  and are sent immediately; TCP's in-order delivery (the channel's FIFO
  watermark) holds them at the receiver until the gap fills.
* ``duplicate``: the copy is discarded by the receiver's TCP but consumes
  link capacity (an extra serialization slot on rate-limited links).
* ``corrupt``: a corrupted segment fails its checksum, so the transport
  treats it exactly like a loss (retransmission after recovery).
* Gilbert–Elliott (``gemodel``) bursty loss: a two-state good/bad Markov
  chain advanced per segment, replacing the iid loss model.

Loss matters because of the TCP behaviour layered on top: retransmission
after a retransmission timeout (RTO) with exponential backoff.  Linux
clamps the minimum TCP RTO at 200 ms, which is exactly why 1 % loss
devastates millisecond-scale tail latency (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.rng import Stream
from ..sim.timebase import MSEC

__all__ = ["NetemConfig", "NetemPath", "TCP_MIN_RTO_NS"]

#: Linux's minimum TCP retransmission timeout (net.ipv4 default).
TCP_MIN_RTO_NS = 200 * MSEC

#: Give up after this many retransmissions (far above anything the paper's
#: 1 % loss scenario can hit; prevents unbounded loops in pathological
#: configurations).
MAX_RETRANSMISSIONS = 15


@dataclass(frozen=True)
class NetemConfig:
    """One direction's impairment configuration (mirrors ``tc-netem``).

    Construction derives two plain attributes, which are not fields, so
    ``asdict``, equality and cache keys see only the knobs:
    ``can_fail`` says whether a transmission attempt can fail (iid loss,
    corruption or the GE model), and ``fixed_transit_ns`` is the transit
    every message takes when nothing can draw (none of those, no jitter,
    no reorder), else ``None``.
    """

    #: Fixed one-way delay in nanoseconds.
    delay_ns: int = 0
    #: Uniform jitter half-width: actual delay is U[delay-jitter, delay+jitter].
    jitter_ns: int = 0
    #: iid probability that a transmission attempt is lost.
    loss: float = 0.0
    #: Base retransmission timeout (doubles per consecutive loss).
    rto_ns: int = TCP_MIN_RTO_NS
    #: Link rate in bits/second (tc-netem's ``rate`` option); 0 = unlimited.
    #: Adds per-message serialization delay and queueing behind earlier
    #: messages on the same direction.
    rate_bps: int = 0
    #: Probability a delay-eligible packet is instead transmitted
    #: immediately (tc ``reorder PERCENT``).  Requires ``delay_ns > 0``,
    #: as in tc ("reordering not possible without specifying some delay").
    reorder: float = 0.0
    #: tc ``gap N``: only every Nth packet is a reorder candidate
    #: (0 or 1 = every packet).
    reorder_gap: int = 0
    #: Per-segment duplication probability (tc ``duplicate PERCENT``).
    duplicate: float = 0.0
    #: Per-segment corruption probability (tc ``corrupt PERCENT``); a
    #: corrupted segment fails its checksum and behaves as a loss.
    corrupt: float = 0.0
    #: Gilbert–Elliott ``loss gemodel``: good->bad transition probability
    #: per segment.  > 0 enables the bursty model (exclusive with ``loss``).
    ge_p: float = 0.0
    #: Gilbert–Elliott bad->good transition probability per segment
    #: (mean burst length = 1/ge_r segments).
    ge_r: float = 0.0
    #: Loss probability while in the bad state (tc's ``1-h``).
    ge_loss_bad: float = 1.0
    #: Loss probability while in the good state (tc's ``1-k``).
    ge_loss_good: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_ns < 0 or self.jitter_ns < 0:
            raise ValueError("delay and jitter must be non-negative")
        # Note: jitter_ns > delay_ns is legal, exactly as in tc-netem —
        # the sampled delay simply clamps at zero.
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.rto_ns <= 0:
            raise ValueError("rto must be positive")
        if self.rate_bps < 0:
            raise ValueError("rate must be non-negative (0 = unlimited)")
        if not 0.0 <= self.reorder <= 1.0:
            raise ValueError(f"reorder must be in [0, 1], got {self.reorder}")
        if self.reorder > 0.0 and self.delay_ns <= 0:
            raise ValueError("reordering not possible without specifying some delay")
        if self.reorder_gap < 0:
            raise ValueError("reorder_gap must be non-negative")
        if not 0.0 <= self.duplicate < 1.0:
            raise ValueError(f"duplicate must be in [0, 1), got {self.duplicate}")
        if not 0.0 <= self.corrupt < 1.0:
            raise ValueError(f"corrupt must be in [0, 1), got {self.corrupt}")
        for name in ("ge_p", "ge_r", "ge_loss_bad", "ge_loss_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.ge_p > 0.0:
            if self.ge_r <= 0.0:
                raise ValueError("gemodel needs ge_r > 0 (bad state must be escapable)")
            if self.loss > 0.0:
                raise ValueError("iid loss and gemodel loss are mutually exclusive")
            if self.ge_loss_good >= 1.0:
                raise ValueError("ge_loss_good must stay below 1")
        # Classified here, once per config, not once per path: a
        # data-caching cell builds 512 paths.
        can_fail = self.loss > 0.0 or self.corrupt > 0.0 or self.ge_p > 0.0
        object.__setattr__(self, "can_fail", can_fail)
        object.__setattr__(
            self,
            "fixed_transit_ns",
            None if can_fail or self.jitter_ns or self.reorder > 0.0 else self.delay_ns,
        )

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the link (0 when unlimited)."""
        if self.rate_bps <= 0:
            return 0
        return int(round(size_bytes * 8 * 1e9 / self.rate_bps))

    @classmethod
    def ideal(cls) -> "NetemConfig":
        """Unimpaired loopback (the paper's ``0ms delay / 0% loss`` column).

        One shared instance, since configs are frozen: a web-search cell
        asks for 37 of them."""
        return _IDEAL

    @classmethod
    def paper_impaired(cls) -> "NetemConfig":
        """The paper's ``10ms delay / 1% loss`` column (Table II)."""
        return cls(delay_ns=10 * MSEC, loss=0.01)

    def label(self) -> str:
        base = f"{self.delay_ns / MSEC:g}ms delay / {self.loss * 100:g}% loss"
        extras = []
        if self.ge_p > 0.0:
            extras.append(f"GE(p={self.ge_p:g}, r={self.ge_r:g})")
        if self.reorder > 0.0:
            gap = f" gap {self.reorder_gap}" if self.reorder_gap > 1 else ""
            extras.append(f"{self.reorder * 100:g}% reorder{gap}")
        if self.duplicate > 0.0:
            extras.append(f"{self.duplicate * 100:g}% duplicate")
        if self.corrupt > 0.0:
            extras.append(f"{self.corrupt * 100:g}% corrupt")
        return " / ".join([base] + extras)


#: The unimpaired config :meth:`NetemConfig.ideal` returns.
_IDEAL = NetemConfig()


class NetemPath:
    """Computes per-message latency through one impaired direction.

    The path is stateless apart from its RNG stream; FIFO (head-of-line)
    ordering across messages of one connection is enforced by the channel,
    not here.  The zero-initialised state and counters are class-level
    defaults, so building a path costs two assignments.
    """

    #: Gilbert–Elliott channel state (bad = bursty-loss regime).
    _ge_bad = False
    #: Reorder-candidate counter (tc ``gap``).
    _reorder_counter = 0
    #: Diagnostics: transmission attempts lost so far.
    losses = 0
    #: Diagnostics: transmission attempts dropped to checksum failure.
    corrupted = 0
    #: Diagnostics: packets that jumped the delay queue.
    reordered = 0
    #: Diagnostics: messages duplicated on the wire.
    duplicated = 0
    #: Diagnostics: messages carried.
    carried = 0

    MSS_BYTES = 1460

    def __init__(self, config: NetemConfig, stream: Stream) -> None:
        self.config = config
        self._stream = stream

    def _segments(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // self.MSS_BYTES)) if size_bytes else 1

    def _attempt_lost(self, segments: int) -> Optional[str]:
        """One transmission attempt: ``None`` (delivered), ``"loss"`` or
        ``"corrupt"``.  Gilbert–Elliott advances per segment; iid mechanisms
        aggregate into one draw so legacy loss-only configs consume the RNG
        stream identically to earlier versions.
        """
        cfg = self.config
        if cfg.ge_p > 0.0:
            for _ in range(segments):
                if self._ge_bad:
                    if self._stream.bernoulli(cfg.ge_r):
                        self._ge_bad = False
                elif self._stream.bernoulli(cfg.ge_p):
                    self._ge_bad = True
                p_loss = cfg.ge_loss_bad if self._ge_bad else cfg.ge_loss_good
                if p_loss > 0.0 and self._stream.bernoulli(p_loss):
                    return "loss"
                if cfg.corrupt > 0.0 and self._stream.bernoulli(cfg.corrupt):
                    return "corrupt"
            return None
        p_ok = ((1.0 - cfg.loss) * (1.0 - cfg.corrupt)) ** segments
        p_fail = 1.0 - p_ok
        if p_fail <= 0.0 or not self._stream.bernoulli(p_fail):
            return None
        if cfg.corrupt <= 0.0:
            return "loss"
        if cfg.loss <= 0.0:
            return "corrupt"
        # Both mechanisms active: attribute the failure proportionally.
        share = cfg.loss / (cfg.loss + cfg.corrupt)
        return "loss" if self._stream.bernoulli(share) else "corrupt"

    def _reorder_candidate(self) -> bool:
        gap = self.config.reorder_gap
        self._reorder_counter += 1
        if gap <= 1:
            return True
        return self._reorder_counter % gap == 0

    def transit_ns(self, recovery_ns: Optional[int] = None, size_bytes: int = 0) -> int:
        """Latency of one message: retransmission backoffs + one-way delay.

        ``recovery_ns`` is the first-retransmission latency; callers that
        know the flow is busy pass a fast-retransmit estimate (TCP recovers
        via dup-ACKs in ~1 RTT on dense flows), while sparse flows eat the
        full RTO.  Defaults to the RTO.  Backoff doubling applies on
        consecutive losses either way.

        ``size_bytes``: netem drops *segments*; a message spanning several
        MSS-sized segments is exposed to loss/corruption once per segment.

        A path on which nothing can draw returns its config's fixed
        transit at once.
        """
        cfg = self.config
        fixed = cfg.fixed_transit_ns
        if fixed is not None:
            self.carried += 1
            return fixed
        total = 0
        recovery = cfg.rto_ns if recovery_ns is None else min(cfg.rto_ns, recovery_ns)
        recovery = max(1, recovery)
        segments = self._segments(size_bytes)
        retries = 0
        while retries < MAX_RETRANSMISSIONS:
            reason = self._attempt_lost(segments)
            if reason is None:
                break
            if reason == "corrupt":
                self.corrupted += 1
            else:
                self.losses += 1
            retries += 1
            total += recovery
            recovery *= 2
        self.carried += 1
        if (cfg.reorder > 0.0 and self._reorder_candidate()
                and self._stream.bernoulli(cfg.reorder)):
            # tc-netem reorder: the packet jumps the delay queue and is
            # transmitted immediately.  The channel's FIFO watermark models
            # TCP holding the early segment until the gap fills, so the
            # observable effect is arrival-spacing collapse, not actual
            # out-of-order delivery to the application.
            self.reordered += 1
            return total
        delay = cfg.delay_ns
        if cfg.jitter_ns:
            delay += int(self._stream.uniform(-cfg.jitter_ns, cfg.jitter_ns))
        return total + max(0, delay)

    def duplicate_draw(self, size_bytes: int = 0) -> bool:
        """Whether this message gets duplicated on the wire (tc
        ``duplicate``).  The receiver's TCP discards the copy, so the only
        observable cost is the link capacity it consumes — the channel
        charges an extra serialization slot when this returns True.
        """
        cfg = self.config
        if cfg.duplicate <= 0.0:
            return False
        p_dup = 1.0 - (1.0 - cfg.duplicate) ** self._segments(size_bytes)
        if self._stream.bernoulli(p_dup):
            self.duplicated += 1
            return True
        return False

    @property
    def loss_fraction(self) -> float:
        """Observed fraction of transmission attempts dropped, by either
        mechanism (diagnostics)."""
        dropped = self.losses + self.corrupted
        attempts = self.carried + dropped
        return dropped / attempts if attempts else 0.0
