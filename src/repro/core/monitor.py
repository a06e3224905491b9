"""The high-level observability façade: one monitor per target process.

:class:`RequestMetricsMonitor` bundles the three collectors the paper's
methodology needs — send-family deltas (Eq. 1 + Eq. 2), recv-family deltas,
and poll-family durations (saturation slack) — behind a windowed snapshot
API.  This is the interface a management runtime (power governor, resource
allocator) would consume (§VI); its :class:`WindowBus` is where every such
consumer gets its windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Union

from ..kernel.kernel import Kernel
from ..kernel.syscalls import POLL_FAMILY, RECV_FAMILY, SEND_FAMILY, SyscallSpec
from ..sim.timebase import SEC
from .collectors import DeltaCollector, DurationCollector, DurationStats
from .config import CollectorConfig, resolve_collector_config
from .deltas import DeltaStats
from .histograms import DeltaHistogram
from .streaming import StreamingDeltaCollector

__all__ = ["RequestMetricsMonitor", "MetricsSnapshot", "WindowBus"]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One observation window's worth of request-level observability."""

    window_start_ns: int
    window_end_ns: int
    send: DeltaStats
    recv: DeltaStats
    poll: DurationStats
    #: Collection-path records dropped in this window (stream mode only:
    #: the in-kernel collectors never lose events, so these stay 0).
    send_lost: int = 0
    recv_lost: int = 0
    #: Log2 delta histograms (export pipeline only; ``None`` otherwise).
    send_hist: Optional[DeltaHistogram] = None
    recv_hist: Optional[DeltaHistogram] = None

    @property
    def duration_ns(self) -> int:
        return self.window_end_ns - self.window_start_ns

    @property
    def rps_obsv(self) -> float:
        """Eq. 1 over the send family."""
        return self.send.rps_obsv()

    @property
    def rps_obsv_recv(self) -> float:
        """Eq. 1 computed from the recv family (ABL-RECV)."""
        return self.recv.rps_obsv()

    @property
    def send_delta_variance(self) -> int:
        """Eq. 2 over the send family (integer, in-kernel form)."""
        return self.send.variance_ns2()

    @property
    def recv_delta_variance(self) -> int:
        return self.recv.variance_ns2()

    @property
    def send_delta_cov2(self) -> float:
        """Rate-independent dispersion index of send deltas."""
        return self.send.cov2()

    @property
    def poll_mean_duration_ns(self) -> int:
        """Mean poll-family syscall duration — the idleness signal."""
        return self.poll.mean_ns()

    # -- degraded-collection accounting ---------------------------------
    @property
    def lost_records(self) -> int:
        """Total collection-path drops charged to this window."""
        return self.send_lost + self.recv_lost

    @property
    def confidence(self) -> float:
        """Fraction of send-family events that actually reached the
        statistics (1.0 = nothing dropped).  Consumers should treat
        windows with low confidence as known-degraded rather than
        trusting the raw Eq. 1/Eq. 2 values."""
        seen = self.send.events
        total = seen + self.send_lost
        return seen / total if total else 1.0

    @property
    def recv_confidence(self) -> float:
        seen = self.recv.events
        total = seen + self.recv_lost
        return seen / total if total else 1.0

    @property
    def overall_confidence(self) -> float:
        """Event-weighted confidence over *both* monitored families.

        ``confidence`` alone counts only send-family drops, so a recv-only
        outage (``recv_lost > 0, send_lost == 0``) would report a perfect
        1.0 while ``lost_records`` says otherwise.  This is the combined
        fraction of all send+recv events that reached the statistics — the
        number downstream consumers (LevelResult, the cross-layer
        correlator) should trust.
        """
        seen = self.send.events + self.recv.events
        total = seen + self.send_lost + self.recv_lost
        return seen / total if total else 1.0

    @property
    def degraded(self) -> bool:
        """True when any collection-path drop degraded this window."""
        return self.lost_records > 0

    @property
    def rps_obsv_corrected(self) -> float:
        """Eq. 1 corrected for known drops.  The send-delta sum telescopes
        to ``last_seen - first_seen`` no matter how many interior events
        were dropped, so re-crediting the lost count to the numerator
        recovers the true rate (up to edge effects at the window rim)."""
        if self.send.sum <= 0:
            return self.rps_obsv
        return SEC * (self.send.count + self.send_lost) / self.send.sum

    @property
    def recv_rate_corrected(self) -> float:
        """The recv-family counterpart of :attr:`rps_obsv_corrected`.

        Same telescoping argument, applied to recv deltas: re-crediting
        ``recv_lost`` to the numerator recovers the true recv rate.  The
        correlator needs both sides drop-corrected before judging whether
        a window's kernel view disagrees with the app's."""
        if self.recv.sum <= 0:
            return self.rps_obsv_recv
        return SEC * (self.recv.count + self.recv_lost) / self.recv.sum

    # -- composition -----------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two windows: statistics merge, losses add, the window
        bounds take the extremes, histograms sum (``None``-aware)."""
        def merge_hists(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return a.merge(b)
        return MetricsSnapshot(
            window_start_ns=min(self.window_start_ns, other.window_start_ns),
            window_end_ns=max(self.window_end_ns, other.window_end_ns),
            send=self.send.merge(other.send),
            recv=self.recv.merge(other.recv),
            poll=self.poll.merge(other.poll),
            send_lost=self.send_lost + other.send_lost,
            recv_lost=self.recv_lost + other.recv_lost,
            send_hist=merge_hists(self.send_hist, other.send_hist),
            recv_hist=merge_hists(self.recv_hist, other.recv_hist),
        )

    @staticmethod
    def merge_all(windows: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold a non-empty window sequence into one composite snapshot.

        With contiguous windows this reproduces the unwindowed totals
        exactly (the carried-anchor semantics make per-window delta
        populations a partition of the full trace's).
        """
        iterator = iter(windows)
        try:
            merged = next(iterator)
        except StopIteration:
            raise ValueError("merge_all needs at least one window") from None
        for window in iterator:
            merged = merged.merge(window)
        return merged

    def __repr__(self) -> str:
        return (
            f"<MetricsSnapshot rps={self.rps_obsv:.1f} "
            f"var={self.send_delta_variance} poll={self.poll_mean_duration_ns}ns"
            + (f" lost={self.lost_records}" if self.degraded else "")
            + ">"
        )


WindowCallback = Callable[[MetricsSnapshot], None]


@dataclass
class _Subscription:
    window_ns: int
    due_ns: int
    on_window: WindowCallback
    on_tail: Optional[WindowCallback]
    #: Base windows closed since this subscriber's last delivery, merged.
    pending: Optional[MetricsSnapshot] = None


class WindowBus:
    """The monitor's one window clock, shared by every windowed consumer.

    The bus ticks wherever some subscriber's window ends (the gcd grid of
    the cadences when each is a multiple of the smallest), taking one
    ``snapshot(reset=True)`` base window per tick.  A subscriber receives
    the merge of the base windows tiling its own window, which in
    vm/native mode is exactly what a private loop would close
    (carried-anchor merges telescope); in stream mode finer ticks drain
    the perf rings more often, so lossy windows may lose fewer records.
    :attr:`merged` folds every base window: the whole-run snapshot.

    The first subscription creates the bus's sim process; an unsubscribed
    bus does nothing until :meth:`finish`.  Each ``attach()`` gets a fresh
    bus, and ``detach()`` finishes it.
    """

    def __init__(self, monitor: "RequestMetricsMonitor") -> None:
        self.monitor = monitor
        #: Every window the bus closed, merged: the whole-run snapshot.
        self.merged: Optional[MetricsSnapshot] = None
        self.finished = False
        self._subscriptions: List[_Subscription] = []
        self._timer = None

    def subscribe(
        self,
        window_ns: int,
        on_window: WindowCallback,
        on_tail: Optional[WindowCallback] = None,
    ) -> None:
        """Call ``on_window(snapshot)`` at the end of every ``window_ns``
        of sim time, and ``on_tail`` (if given) once with the partial
        window :meth:`finish` closes; tail handling is the consumer's."""
        if window_ns < 1:
            raise ValueError(f"window_ns must be >= 1, got {window_ns}")
        if self.finished or self._timer is not None:
            raise RuntimeError("subscribe before the window bus starts ticking")
        env = self.monitor.kernel.env
        self._subscriptions.append(
            _Subscription(window_ns, env.now + window_ns, on_window, on_tail))
        if len(self._subscriptions) == 1:
            env.process(self._run(), name="window-bus")

    def _run(self):
        env = self.monitor.kernel.env
        while not self.finished:
            due = min(sub.due_ns for sub in self._subscriptions)
            self._timer = env.timeout(due - env.now)
            yield self._timer
            self._close(self.monitor.snapshot(reset=True), tail=False)

    def _close(self, window: MetricsSnapshot, tail: bool) -> None:
        self.merged = window if self.merged is None else self.merged.merge(window)
        now = self.monitor.kernel.env.now
        for sub in self._subscriptions:
            pending = window if sub.pending is None else sub.pending.merge(window)
            if tail:
                if sub.on_tail is not None:
                    sub.on_tail(pending)
            elif now == sub.due_ns:
                sub.due_ns += sub.window_ns
                sub.pending = None
                sub.on_window(pending)
            else:
                sub.pending = pending

    def finish(self) -> MetricsSnapshot:
        """Close the partial tail window (once), hand it to the
        subscribers' tail callbacks and stop ticking; returns
        :attr:`merged`."""
        if not self.finished:
            self.finished = True
            if self._timer is not None and self._timer.callbacks is not None:
                self.monitor.kernel.env.cancel(self._timer)
            self._close(self.monitor.snapshot(reset=True), tail=True)
        return self.merged


class RequestMetricsMonitor:
    """Attach/observe/window the paper's three signals for one process.

    Parameters
    ----------
    kernel, tgid:
        Target kernel and process.
    spec:
        The workload's :class:`~repro.kernel.syscalls.SyscallSpec`.  When
        omitted, whole families are monitored (the deployable blackbox
        configuration — no per-app knowledge needed).
    config:
        A :class:`~repro.core.config.CollectorConfig` (or a bare mode
        string) describing the whole collection pipeline.  ``mode`` picks
        the strategy: ``"vm"`` for interpreted eBPF collectors,
        ``"native"`` for the fast equivalent path, ``"stream"`` for the
        paper's first methodology — per-event perf streaming with
        userspace aggregation.  Stream mode is the only one that can
        *lose* events (slow consumer, full perf buffer); losses surface
        as ``MetricsSnapshot.send_lost``/``recv_lost`` so downstream
        consumers see degraded confidence instead of silently wrong
        rates.  ``capacity`` sizes the perf ring; ``vm_tier`` pins the
        eBPF VM tier (all tiers bit-for-bit identical); ``charge_cost``
        charges probe cost to traced syscalls (the overhead study).
        Every thread of the process folds into one trace per family
        (§IV-C-1).  A non-``None`` ``export`` starts
        the streaming Prometheus stage: the monitor subscribes its
        :class:`~repro.export.PrometheusExporter` (``self.exporter``) to
        :attr:`bus` every ``export.window_ns``, and the exporter renders
        a scrape per window.  Poll durations always run in-kernel: in
        stream mode the streamed record carries no entry/exit pairing,
        exactly as in the paper's first methodology.
    """

    def __init__(
        self,
        kernel: Kernel,
        tgid: int,
        spec: Optional[SyscallSpec] = None,
        config: Union[None, str, CollectorConfig] = None,
    ) -> None:
        config = resolve_collector_config(config, "RequestMetricsMonitor")
        self.config = config
        self.kernel = kernel
        self.tgid = tgid
        self.mode = config.mode
        self.vm_tier = config.vm_tier
        send_nrs = (spec.send_nr,) if spec else tuple(sorted(SEND_FAMILY))
        recv_nrs = (spec.recv_nr,) if spec else tuple(sorted(RECV_FAMILY))
        poll_nrs = (spec.poll_nr,) if spec else tuple(sorted(POLL_FAMILY))
        if config.mode == "stream":
            self.send_collector = StreamingDeltaCollector(
                kernel, tgid, send_nrs, config, name="send")
            self.recv_collector = StreamingDeltaCollector(
                kernel, tgid, recv_nrs, config, name="recv")
            # Poll durations need syscall entry *and* exit pairing, which
            # the streamed record format does not carry; the paper's first
            # methodology measured durations in-kernel too.
            poll_config = config.replace(mode="native")
        else:
            self.send_collector = DeltaCollector(
                kernel, tgid, send_nrs, config, name="send")
            self.recv_collector = DeltaCollector(
                kernel, tgid, recv_nrs, config, name="recv")
            poll_config = config
        self.poll_collector = DurationCollector(
            kernel, tgid, poll_nrs, poll_config, name="poll")
        #: The attached Prometheus export stage (``None`` when export is
        #: off).  Windows land here every ``export.window_ns`` of sim time.
        self.exporter = None
        if config.export is not None:
            # Imported lazily: repro.export consumes repro.core types, so a
            # module-level import here would be circular.
            from ..export.exporter import PrometheusExporter
            self.exporter = PrometheusExporter(config.export)
        #: This attach period's :class:`WindowBus` (``None`` until attach).
        self.bus: Optional[WindowBus] = None
        self._window_start: Optional[int] = None
        self._attached = False

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "RequestMetricsMonitor":
        self.send_collector.attach()
        self.recv_collector.attach()
        self.poll_collector.attach()
        self._window_start = self.kernel.env.now
        self._attached = True
        self.bus = WindowBus(self)
        if self.exporter is not None:
            exporter = self.exporter

            def export_window(window: MetricsSnapshot) -> None:
                exporter.observe_window(window)
                exporter.scrape()

            # The tail is observed but not scraped: whoever finishes the
            # run renders the final exposition.
            self.bus.subscribe(self.config.export.window_ns, export_window,
                               on_tail=exporter.observe_window)
        return self

    def detach(self) -> None:
        if self._attached:
            self.bus.finish()
        self.send_collector.detach()
        self.recv_collector.detach()
        self.poll_collector.detach()
        self._attached = False

    def __enter__(self) -> "RequestMetricsMonitor":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- windows ---------------------------------------------------------
    def snapshot(self, reset: bool = False) -> MetricsSnapshot:
        """Read the current window; optionally start a fresh one (leave
        resets to :attr:`bus` while anything subscribes to it)."""
        if not self._attached:
            raise RuntimeError("monitor is not attached")
        snap = MetricsSnapshot(
            window_start_ns=self._window_start if self._window_start is not None else 0,
            window_end_ns=self.kernel.env.now,
            send=self.send_collector.snapshot(),
            recv=self.recv_collector.snapshot(),
            poll=self.poll_collector.snapshot(),
            send_lost=getattr(self.send_collector, "lost_in_window", 0),
            recv_lost=getattr(self.recv_collector, "lost_in_window", 0),
            send_hist=self.send_collector.hist_snapshot(),
            recv_hist=self.recv_collector.hist_snapshot(),
        )
        if reset:
            self.reset_window()
        return snap

    def reset_window(self) -> None:
        self.send_collector.reset_window()
        self.recv_collector.reset_window()
        self.poll_collector.reset_window()
        self._window_start = self.kernel.env.now
