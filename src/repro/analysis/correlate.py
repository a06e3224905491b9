"""Cross-layer blind-spot correlation: when do the kernel and the app disagree?

The paper's Q1 asks whether syscall-level eBPF metrics can see
request-level behaviour; this module asks the sharper follow-up — *when
the two layers disagree, who is right?*  We own both layers natively: the
client knows ground-truth request outcomes (completions with latencies,
retries, abandons — :attr:`~repro.loadgen.OpenLoopClient.outcome_log`),
and the monitor sees the syscalls (per-window
:class:`~repro.core.MetricsSnapshot`\\ s from the monitor's
:class:`~repro.core.WindowBus`).
The correlator joins the two streams window by window and classifies each
window into a four-way discrepancy taxonomy:

``AGREE_HEALTHY``
    Neither layer reports trouble — the default for every clean cell.
``AGREE_DEGRADED``
    Both layers report trouble (e.g. a compute stall: the client's tail
    latency blows up *and* the send-delta dispersion knees).
``KERNEL_SILENT``
    The app reports trouble the syscall signals miss — the paper's
    structural blind spot.  Anything that starves the server of work
    (delayed accepts, head-of-line channel stalls) looks like a healthy
    idle server from inside the kernel: polls return leisurely, send
    deltas stay calm, nothing is dropped.
``APP_SILENT``
    The kernel sees trouble while the app still reports success: a
    send-delta dispersion knee (fragmented many-small-writes), an
    epoll-slack collapse, or drop-degraded collection confidence (slow
    perf-buffer drains).  These are exactly the feedback-free signals an
    eBeeMetrics-style controller would act on before the SLO notices.

Judgement is deliberately conservative: *rate* is never a trouble signal
(a quiet server and an underloaded server are indistinguishable from the
kernel side — that ambiguity is the finding, not a bug), and the pattern
signals (dispersion knee, slack collapse) are judged against the run's own
median window, so thresholds need no per-workload calibration and a
time-bounded anomaly cannot shift its own baseline.  Correlation is
post-hoc over the recorded windows; nothing here runs in the probe hot
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SLACK_RATIO, CorrelateConfig
from ..core.monitor import MetricsSnapshot

__all__ = [
    "AGREE_DEGRADED",
    "AGREE_HEALTHY",
    "APP_SILENT",
    "CONFIDENCE_FLOOR",
    "COV2_FLOOR",
    "KERNEL_SILENT",
    "KNEE_MULTIPLIER",
    "MIN_EVENTS",
    "SLACK_RATIO",
    "STARVE_INFLIGHT",
    "TAXONOMY",
    "CorrelationReport",
    "WindowVerdict",
    "correlate_windows",
    "correlation_of",
    "kernel_signals",
    "median",
    "robust_baseline",
]

AGREE_HEALTHY = "AGREE_HEALTHY"
AGREE_DEGRADED = "AGREE_DEGRADED"
KERNEL_SILENT = "KERNEL_SILENT"
APP_SILENT = "APP_SILENT"

#: The full discrepancy taxonomy, in severity-neutral canonical order.
TAXONOMY = (AGREE_HEALTHY, AGREE_DEGRADED, KERNEL_SILENT, APP_SILENT)

#: Labels that represent a cross-layer disagreement.
DISCREPANT = (KERNEL_SILENT, APP_SILENT)

# Signal thresholds, shared by this post-hoc correlator and the in-run
# controller (repro.control).  They are relative where the underlying
# signal is workload-dependent: the pattern signals (dispersion knee,
# slack collapse) are judged against the run's own median window, which a
# time-bounded anomaly cannot shift.  Only the confidence floor is
# absolute — a clean collection path never drops records, at any load.

#: Kernel-side signal: a window whose combined (send+recv) collection
#: confidence falls below this is drop-degraded.
CONFIDENCE_FLOOR = 0.999
#: Kernel-side signal: the variance knee.  A window knees when its
#: send-delta dispersion (``cov2``) sits more than this many robust
#: deviations (median absolute deviation, floored at 10% of the median)
#: above the run's median window — self-calibrating to each run's own
#: normal, so moses' chunky baseline and data-caching's tight one use the
#: same threshold.
KNEE_MULTIPLIER = 8.0
#: Absolute dispersion floor the knee must also clear (guards against a
#: near-zero median turning window noise into knees).
COV2_FLOOR = 1.0
# SLACK_RATIO, the epoll-slack collapse (mean poll duration below
# ``1/SLACK_RATIO`` x the run's median window), comes from
# repro.core.config, where it is also ControlConfig's default.
#: Pattern signals need at least this many send deltas in the window
#: (sparse windows are exactly the instability §IV-B warns about).
MIN_EVENTS = 8
#: App-side signal: a window with zero completions while at least this
#: many requests are in flight counts as starvation.
STARVE_INFLIGHT = 4


@dataclass
class WindowVerdict:
    """One correlated window: both layers' views plus the classification."""

    window_start_ns: int
    window_end_ns: int
    label: str
    #: Which app-side signals fired ("qos", "retry", "abandon", "starved").
    app_signals: Tuple[str, ...]
    #: Which kernel-side signals fired ("confidence", "dispersion-knee",
    #: "slack-collapse").
    kernel_signals: Tuple[str, ...]
    # -- app (ground-truth) view -----------------------------------------
    offers: int = 0
    completions: int = 0
    retries: int = 0
    abandons: int = 0
    inflight_end: int = 0
    max_latency_ns: int = 0
    # -- kernel (eBPF) view ----------------------------------------------
    rps_obsv: float = 0.0
    rps_obsv_corrected: float = 0.0
    recv_rate_corrected: float = 0.0
    send_cov2: float = 0.0
    poll_mean_ns: float = 0.0
    confidence: float = 1.0
    lost_records: int = 0

    @property
    def discrepant(self) -> bool:
        return self.label in DISCREPANT

    def to_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["app_signals"] = list(self.app_signals)
        payload["kernel_signals"] = list(self.kernel_signals)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowVerdict":
        data = dict(payload)
        data["app_signals"] = tuple(data.get("app_signals", ()))
        data["kernel_signals"] = tuple(data.get("kernel_signals", ()))
        return cls(**data)


@dataclass
class CorrelationReport:
    """The correlator's verdict over one cell's window sequence."""

    workload: str
    window_ns: int
    windows: List[WindowVerdict] = field(default_factory=list)
    #: The run-median baselines the pattern signals were judged against
    #: (``None`` when too few eligible windows existed to form one).
    baseline_cov2: Optional[float] = None
    baseline_poll_ns: Optional[float] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Windows per taxonomy label (every label present, possibly 0)."""
        counts = {label: 0 for label in TAXONOMY}
        for window in self.windows:
            counts[window.label] += 1
        return counts

    @property
    def discrepancies(self) -> List[WindowVerdict]:
        """The KERNEL_SILENT / APP_SILENT windows, in time order."""
        return [w for w in self.windows if w.discrepant]

    @property
    def labels(self) -> Tuple[str, ...]:
        """The distinct labels observed, in canonical taxonomy order."""
        seen = {w.label for w in self.windows}
        return tuple(label for label in TAXONOMY if label in seen)

    @property
    def clean(self) -> bool:
        """True when every window agrees and is healthy."""
        return all(w.label == AGREE_HEALTHY for w in self.windows)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "window_ns": self.window_ns,
            "windows": [w.to_dict() for w in self.windows],
            "baseline_cov2": self.baseline_cov2,
            "baseline_poll_ns": self.baseline_poll_ns,
            "counts": self.counts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorrelationReport":
        return cls(
            workload=payload["workload"],
            window_ns=payload["window_ns"],
            windows=[WindowVerdict.from_dict(w) for w in payload["windows"]],
            baseline_cov2=payload.get("baseline_cov2"),
            baseline_poll_ns=payload.get("baseline_poll_ns"),
        )

    def summary(self) -> str:
        """Human-readable multi-line summary (the CLI's output body)."""
        counts = self.counts
        lines = [
            f"{self.workload}: {len(self.windows)} windows of "
            f"{self.window_ns / 1e6:g} ms"
        ]
        for label in TAXONOMY:
            lines.append(f"  {label:<14} {counts[label]:5d}")
        for window in self.discrepancies:
            side = (
                f"app={'+'.join(window.app_signals) or '-'} "
                f"kernel={'+'.join(window.kernel_signals) or '-'}"
            )
            lines.append(
                f"  [{window.window_start_ns / 1e6:8.1f}ms, "
                f"{window.window_end_ns / 1e6:8.1f}ms) {window.label}: {side}"
            )
        return "\n".join(lines)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence, as a float."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_baseline(values: Sequence[float]) -> Tuple[float, float]:
    """A pattern signal's self-calibrated normal: ``(median, scale)``.

    The scale is the median absolute deviation, floored at 10 % of the
    median (and at 1e-3) so that perfectly regular runs (MAD ~ 0) don't
    turn microscopic wiggles into huge robust z-scores.
    """
    centre = median(values)
    mad = median([abs(x - centre) for x in values])
    return centre, max(mad, 0.1 * centre, 1e-3)


def kernel_signals(
    snapshot: MetricsSnapshot,
    slack_ratio: float,
    baseline_cov2: Optional[float],
    cov2_scale: Optional[float],
    baseline_poll_ns: Optional[float],
) -> List[str]:
    """The kernel-side signals ``snapshot`` fires, in canonical order:
    ``confidence``, ``dispersion-knee``, ``slack-collapse`` (see the
    thresholds above; ``slack_ratio`` is the caller's).  A ``None``
    baseline disables its signal.  The post-hoc correlator and the in-run
    controller both judge windows with this one function."""
    fired: List[str] = []
    if snapshot.overall_confidence < CONFIDENCE_FLOOR:
        fired.append("confidence")
    if baseline_cov2 is not None and snapshot.send.count >= MIN_EVENTS:
        cov2 = snapshot.send.cov2()
        if (
            cov2 > COV2_FLOOR
            and (cov2 - baseline_cov2) / cov2_scale > KNEE_MULTIPLIER
        ):
            fired.append("dispersion-knee")
    if (
        baseline_poll_ns is not None
        and baseline_poll_ns > 0
        and snapshot.poll.count > 0
        and snapshot.poll_mean_duration_ns < baseline_poll_ns / slack_ratio
    ):
        fired.append("slack-collapse")
    return fired


@dataclass
class _GroundTruth:
    """Client-side events binned into one window."""

    offers: int = 0
    completions: int = 0
    retries: int = 0
    abandons: int = 0
    max_latency_ns: int = 0
    #: Cumulative in-flight count at the window's end.
    inflight_end: int = 0


def _bin_outcomes(
    snapshots: Sequence[MetricsSnapshot], outcomes: Sequence[tuple]
) -> List[_GroundTruth]:
    """Assign each ``(t, kind, value)`` outcome event to its window.

    Windows are contiguous half-open ``[start, end)`` intervals; events at
    or past the last window's end (the run's final instant) are clamped
    into the last window.  The outcome log is time-ordered by
    construction (sim time is monotone), so a single forward walk bins
    everything in O(events + windows).
    """
    bins = [_GroundTruth() for _ in snapshots]
    if not snapshots:
        return bins
    index = 0
    last = len(snapshots) - 1
    inflight = 0
    for t_ns, kind, value in outcomes:
        while index < last and t_ns >= snapshots[index].window_end_ns:
            bins[index].inflight_end = inflight
            index += 1
        entry = bins[index]
        if kind == "offer":
            entry.offers += 1
            inflight += 1
        elif kind == "complete":
            entry.completions += 1
            inflight -= 1
            if value > entry.max_latency_ns:
                entry.max_latency_ns = value
        elif kind == "retry":
            entry.retries += 1
        elif kind == "abandon":
            entry.abandons += 1
            inflight -= 1
        elif kind == "reject":
            # Socket-layer shedding (repro.control): the request is done
            # from the client's perspective, just not completed.
            inflight -= 1
        entry.inflight_end = inflight
    # Windows the walk never reached keep the in-flight count they ended
    # with (events stopped before them).
    for position in range(index + 1, len(bins)):
        bins[position].inflight_end = inflight
    return bins


def correlate_windows(
    snapshots: Sequence[MetricsSnapshot],
    outcomes: Sequence[tuple],
    config: CorrelateConfig,
    qos_latency_ns: int,
    workload: str = "",
) -> CorrelationReport:
    """Join per-window kernel snapshots with client ground truth and
    classify every window into the discrepancy taxonomy.

    ``snapshots`` are contiguous windows from the monitor's
    :class:`~repro.core.WindowBus`; ``outcomes`` is the client's
    timestamped outcome log; ``qos_latency_ns`` is the workload's QoS
    threshold (the app-side definition of "trouble": a completion later
    than it marks its window).
    """
    truths = _bin_outcomes(snapshots, outcomes)
    first_completion = next(
        (t for t, kind, _v in outcomes if kind == "complete"), None
    )

    # Run-median baselines for the pattern signals.  Median (and MAD, for
    # the dispersion knee) over windows is robust to a time-bounded anomaly
    # (a minority of windows), which is what makes the thresholds
    # workload-independent: moses' natural response chunking gives it 30x
    # data-caching's baseline dispersion, but both runs know their own
    # normal.
    cov2_pool = [
        s.send.cov2() for s in snapshots if s.send.count >= MIN_EVENTS
    ]
    poll_pool = [
        float(s.poll_mean_duration_ns) for s in snapshots if s.poll.count > 0
    ]
    baseline_cov2 = cov2_scale = None
    if len(cov2_pool) >= 3:
        baseline_cov2, cov2_scale = robust_baseline(cov2_pool)
    baseline_poll = median(poll_pool) if len(poll_pool) >= 3 else None

    # Pass 1: raw per-window signals.
    app_sets: List[List[str]] = []
    kernel_sets: List[List[str]] = []
    for snapshot, truth in zip(snapshots, truths):
        app: List[str] = []
        if truth.abandons:
            app.append("abandon")
        if truth.retries:
            app.append("retry")
        if truth.completions and truth.max_latency_ns > qos_latency_ns:
            app.append("qos")
        if (
            truth.completions == 0
            and truth.inflight_end >= STARVE_INFLIGHT
            and first_completion is not None
            and snapshot.window_end_ns > first_completion
        ):
            # Requests are pending but none completed all window — the
            # server is starved of answerable work (warmup windows before
            # the first completion are setup phase, not starvation).
            app.append("starved")
        app_sets.append(app)
        kernel_sets.append(
            kernel_signals(snapshot, SLACK_RATIO, baseline_cov2, cov2_scale, baseline_poll)
        )

    # Pass 2: persistence filter.  An *uncorroborated* pattern signal — a
    # dispersion knee or slack collapse in a window where the app reports
    # nothing wrong — must also fire in an adjacent window to count: a real
    # buffering regression or saturation episode persists across windows,
    # while a one-off burst (web-search's log flushes) is an isolated
    # spike.  Drop-based confidence is exempt — lost records are lost no
    # matter how briefly — and so is any window the app corroborates
    # (claiming a cross-layer *discrepancy* is what demands the stronger
    # evidence).
    filtered: List[Tuple[str, ...]] = []
    last = len(snapshots) - 1
    for index, kernel in enumerate(kernel_sets):
        if app_sets[index]:
            filtered.append(tuple(kernel))
            continue
        kept = []
        for signal in kernel:
            if signal == "confidence":
                kept.append(signal)
                continue
            before = index > 0 and signal in kernel_sets[index - 1]
            after = index < last and signal in kernel_sets[index + 1]
            if before or after:
                kept.append(signal)
        filtered.append(tuple(kept))

    verdicts: List[WindowVerdict] = []
    for index, (snapshot, truth) in enumerate(zip(snapshots, truths)):
        app = app_sets[index]
        kernel = filtered[index]
        if app and kernel:
            label = AGREE_DEGRADED
        elif app:
            label = KERNEL_SILENT
        elif kernel:
            label = APP_SILENT
        else:
            label = AGREE_HEALTHY
        verdicts.append(
            WindowVerdict(
                window_start_ns=snapshot.window_start_ns,
                window_end_ns=snapshot.window_end_ns,
                label=label,
                app_signals=tuple(app),
                kernel_signals=tuple(kernel),
                offers=truth.offers,
                completions=truth.completions,
                retries=truth.retries,
                abandons=truth.abandons,
                inflight_end=truth.inflight_end,
                max_latency_ns=truth.max_latency_ns,
                rps_obsv=snapshot.rps_obsv,
                rps_obsv_corrected=snapshot.rps_obsv_corrected,
                recv_rate_corrected=snapshot.recv_rate_corrected,
                send_cov2=snapshot.send.cov2(),
                poll_mean_ns=float(snapshot.poll_mean_duration_ns),
                confidence=snapshot.overall_confidence,
                lost_records=snapshot.lost_records,
            )
        )

    return CorrelationReport(
        workload=workload,
        window_ns=config.window_ns,
        windows=verdicts,
        baseline_cov2=baseline_cov2,
        baseline_poll_ns=baseline_poll,
    )


def correlation_of(result) -> Optional[CorrelationReport]:
    """The :class:`CorrelationReport` attached to a
    :class:`~repro.analysis.executor.LevelResult` by a correlate-enabled
    cell, or ``None`` when the cell ran without correlation."""
    extra = getattr(result, "extra", None) or {}
    payload = extra.get("correlation")
    return CorrelationReport.from_dict(payload) if payload else None
