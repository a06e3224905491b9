"""The adversarial blind-spot scenario pack for the cross-layer correlator.

Each :class:`BlindSpotScenario` is a pathology engineered to be visible to
exactly one side of the kernel/app divide, annotated with the
:mod:`~repro.analysis.correlate` taxonomy label it should produce:

``fragmented-writes`` (APP_SILENT)
    A buffering regression sends every response as many small writes.
    Requests complete on time — the app layer is silent — but the
    send-delta dispersion knees.
``slow-drain`` (APP_SILENT)
    The perf-buffer consumer pauses while the ring is small: records drop,
    collection confidence collapses, and only the kernel side knows its
    own view degraded.
``hol-stall`` (KERNEL_SILENT)
    A head-of-line stall upstream of the server (saturated listen backlog,
    delayed accepts) holds requests in flight.  The client's latencies blow
    up; the server's syscalls see a quiet spell indistinguishable from an
    idle server — the structural blind spot of §V.
``worker-stall`` (AGREE_DEGRADED — control)
    A stop-the-world compute stall is visible to both layers: the client's
    tail inflates *and* the post-stall send burst knees the dispersion.
``clean`` (AGREE_HEALTHY — control)
    No fault at all; every window must agree.

Scenario timing is *fractional* — faults fire at fixed fractions of the
nominal run duration — so the same scenario scales across all nine
workloads' very different rates, and the anomaly stays a minority of the
run's windows (which the correlator's median baselines require).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.correlate import (
    AGREE_DEGRADED,
    AGREE_HEALTHY,
    APP_SILENT,
    KERNEL_SILENT,
    CorrelationReport,
    correlation_of,
)
from ..analysis.executor.spec import ExperimentSpec, LevelResult
from ..core.config import CorrelateConfig
from ..sim.timebase import MSEC, SEC
from .collection import ConsumerSchedule
from .orchestrator import ChannelStall, FaultReport, SendFragmentation, WorkerStall
from .runner import run_faulted_cell

__all__ = ["BlindSpotScenario", "SCENARIOS", "run_blind_spot_cell", "scenario"]

_KINDS = ("none", "fragment", "slow-drain", "hol-stall", "worker-stall")


@dataclass(frozen=True)
class BlindSpotScenario:
    """One app-invisible (or control) pathology plus its expected verdict."""

    key: str
    summary: str
    #: The taxonomy label this scenario is engineered to produce (the
    #: correlator must report it among the run's window labels).
    expected_label: str
    kind: str = "none"
    #: Active span as fractions of the nominal run duration
    #: (``requests / offered_rps``).  Keeping the span a minority of the
    #: run preserves the correlator's median baselines.
    start_frac: float = 0.40
    stop_frac: float = 0.65
    #: Sends per response while ``fragment`` is active.
    chunks: int = 12

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.start_frac < self.stop_frac <= 1.0:
            raise ValueError("need 0 <= start_frac < stop_frac <= 1")

    @property
    def needs_stream(self) -> bool:
        """Only the collection-path scenario needs perf streaming."""
        return self.kind == "slow-drain"

    def nominal_duration_ns(self, spec: ExperimentSpec) -> int:
        return int(spec.requests / spec.offered_rps * SEC)

    def materialize(
        self, spec: ExperimentSpec
    ) -> Tuple[tuple, Optional[ConsumerSchedule]]:
        """Concrete ``(faults, consumer)`` for one spec, timed off its
        nominal duration."""
        duration = self.nominal_duration_ns(spec)
        start = int(duration * self.start_frac)
        span = max(1, int(duration * (self.stop_frac - self.start_frac)))
        if self.kind == "fragment":
            return (SendFragmentation(at_ns=start, duration_ns=span,
                                      chunks=self.chunks),), None
        if self.kind == "hol-stall":
            return (ChannelStall(at_ns=start, duration_ns=span),), None
        if self.kind == "worker-stall":
            return (WorkerStall(at_ns=start, duration_ns=span),), None
        if self.kind == "slow-drain":
            # First pause lands at ~start_frac of the run and lasts the
            # scenario span; the cadence keeps any second pause off the end
            # of the run.
            return (), ConsumerSchedule(
                drain_interval_ns=1 * MSEC,
                pause_every_ns=max(1, start),
                pause_for_ns=span,
            )
        return (), None


SCENARIOS: Tuple[BlindSpotScenario, ...] = (
    BlindSpotScenario(
        key="clean",
        summary="no fault at all — every window must agree healthy",
        expected_label=AGREE_HEALTHY,
        kind="none",
    ),
    BlindSpotScenario(
        key="fragmented-writes",
        summary="responses go out as many small sends; app unaffected",
        expected_label=APP_SILENT,
        kind="fragment",
    ),
    BlindSpotScenario(
        key="slow-drain",
        summary="perf-buffer consumer pauses; records drop, app unaffected",
        expected_label=APP_SILENT,
        kind="slow-drain",
    ),
    # The stall scenarios span wider fractions: their signature lives in
    # *whole silent windows*, so the stall must fully cover at least one
    # correlation window regardless of boundary phase.
    BlindSpotScenario(
        key="hol-stall",
        summary="requests held upstream of the server (delayed accepts)",
        expected_label=KERNEL_SILENT,
        kind="hol-stall",
        start_frac=0.35,
        stop_frac=0.70,
    ),
    BlindSpotScenario(
        key="worker-stall",
        summary="stop-the-world compute stall, visible to both layers",
        expected_label=AGREE_DEGRADED,
        kind="worker-stall",
        start_frac=0.35,
        stop_frac=0.70,
    ),
)


def scenario(key: str) -> BlindSpotScenario:
    for entry in SCENARIOS:
        if entry.key == key:
            return entry
    known = ", ".join(s.key for s in SCENARIOS)
    raise KeyError(f"unknown blind-spot scenario {key!r} (known: {known})")


def run_blind_spot_cell(
    spec: ExperimentSpec,
    scenario: BlindSpotScenario,
    correlate: Optional[CorrelateConfig] = None,
) -> Tuple[LevelResult, CorrelationReport, FaultReport]:
    """Run one cell with a blind-spot scenario armed and the correlator on.

    Like :func:`run_faulted_cell` (which this wraps), scenario cells bypass
    the result cache.  The ``slow-drain`` scenario additionally forces
    stream-mode monitoring with a perf ring deliberately too small for one
    correlation window — in vm/native modes the in-kernel collectors cannot
    drop records, so there would be nothing for the consumer pause to lose.
    """
    if correlate is None:
        # Scale the default window to ~1/10 of the run, whatever the
        # workload's rate: the scenario span then covers several whole
        # windows (the stall scenarios' signature is a fully silent
        # window), the median baselines keep a healthy majority, and slow
        # workloads (triton at ~10 rps) still collect enough deltas per
        # window to clear the correlator's ``MIN_EVENTS``.
        nominal = scenario.nominal_duration_ns(spec)
        correlate = CorrelateConfig(window_ns=max(1, nominal // 10))
    spec = spec.replace(correlate=correlate)
    if scenario.needs_stream:
        # Size the ring so a paused consumer overflows it well inside one
        # correlation window (the window bus's own window close drains the
        # ring as a side effect, so drops must accrue faster than windows).
        per_window = spec.offered_rps * correlate.window_ns / SEC
        spec = spec.replace(
            monitor_mode="stream",
            stream_capacity=max(4, int(per_window / 4)),
        )
    faults, consumer = scenario.materialize(spec)
    result, fault_report = run_faulted_cell(spec, faults=faults, consumer=consumer)
    report = correlation_of(result)
    assert report is not None  # spec.correlate was set above
    return result, report, fault_report
