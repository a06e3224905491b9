"""The paper's contribution: in-kernel request-level observability.

Public API tour::

    config = CollectorConfig(mode="vm")
    monitor = RequestMetricsMonitor(kernel, tgid, spec, config=config).attach()
    ...run load...
    snap = monitor.snapshot(reset=True)
    snap.rps_obsv                # Eq. 1
    snap.send_delta_variance     # Eq. 2 (saturation signal)
    snap.poll_mean_duration_ns   # idleness / saturation slack signal

Windowed consumers subscribe to the monitor's one window clock,
``monitor.bus.subscribe(window_ns, callback)`` (:class:`WindowBus`).
Attach an :class:`ExportConfig` to the collector config to bolt on the
streaming Prometheus stage (:mod:`repro.export`).
"""

from .collectors import (
    DeltaCollector,
    DurationCollector,
    DurationStats,
    build_delta_program,
    build_duration_programs,
)
from .config import (
    COLLECTOR_MODES,
    CONTROL_POLICIES,
    CollectorConfig,
    ControlConfig,
    CorrelateConfig,
    ExportConfig,
    resolve_collector_config,
)
from .deltas import DeltaStats, deltas_of, variance_int
from .histograms import NBUCKETS, DeltaHistogram, bucket_index, bucket_upper_bound
from .governor import GovernorDecision, SlackDvfsGovernor
from .monitor import MetricsSnapshot, RequestMetricsMonitor, WindowBus
from .multiservice import (
    CombinedSnapshot,
    MultiServiceMonitor,
    ServiceSpec,
    TierReading,
)
from .pairing import PairingResult, RequestTimeline, reconstruct_timelines
from .regression import LinearFit, fit_linear, normalize, residual_summary
from .saturation import OnlineSaturationDetector, VarianceKneeDetector, detect_knee
from .slack import SlackEstimator, idleness_fraction, stabilization_point
from .streaming import RECORD_SIZE, StreamingDeltaCollector
from .windows import RECOMMENDED_WINDOW_EVENTS, chunk_by_count, window_estimates

__all__ = [
    "RequestMetricsMonitor",
    "MetricsSnapshot",
    "WindowBus",
    "CollectorConfig",
    "ControlConfig",
    "CorrelateConfig",
    "ExportConfig",
    "COLLECTOR_MODES",
    "CONTROL_POLICIES",
    "resolve_collector_config",
    "DeltaHistogram",
    "NBUCKETS",
    "bucket_index",
    "bucket_upper_bound",
    "MultiServiceMonitor",
    "ServiceSpec",
    "CombinedSnapshot",
    "TierReading",
    "DeltaCollector",
    "DurationCollector",
    "DurationStats",
    "DeltaStats",
    "deltas_of",
    "variance_int",
    "SlackDvfsGovernor",
    "GovernorDecision",
    "build_delta_program",
    "build_duration_programs",
    "LinearFit",
    "fit_linear",
    "normalize",
    "residual_summary",
    "VarianceKneeDetector",
    "OnlineSaturationDetector",
    "detect_knee",
    "SlackEstimator",
    "idleness_fraction",
    "stabilization_point",
    "StreamingDeltaCollector",
    "RECORD_SIZE",
    "PairingResult",
    "RequestTimeline",
    "reconstruct_timelines",
    "RECOMMENDED_WINDOW_EVENTS",
    "chunk_by_count",
    "window_estimates",
]
