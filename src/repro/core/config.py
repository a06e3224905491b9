"""The unified collector/consumer configuration contract.

PRs 2-5 accreted overlapping construction knobs across the collection
stack: ``DeltaCollector(cpus=..., vm_tier=...)``,
``StreamingDeltaCollector(per_cpu_capacity=...)``,
``RequestMetricsMonitor(mode=..., stream_capacity=...)``.
:class:`CollectorConfig` replaces that sprawl with one frozen value object
threaded uniformly through :class:`~repro.ebpf.bcc.BPF`, the collectors,
the monitor, and :class:`~repro.analysis.executor.ExperimentSpec` — so a
consumer stage like the Prometheus exporter (:mod:`repro.export`) is just
another field (``export``), not a special case.

The legacy keywords went through one release as deprecated aliases (with a
:class:`DeprecationWarning`) and are now gone from the constructor
signatures, so supplying one is Python's own unexpected-keyword
:class:`TypeError`.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, replace as _dc_replace
from typing import Mapping, Optional, Tuple, Union

from ..ebpf.compiled import VM_TIERS
from ..sim.timebase import MSEC

__all__ = [
    "COLLECTOR_MODES",
    "CONTROL_POLICIES",
    "CollectorConfig",
    "ControlConfig",
    "CorrelateConfig",
    "DEFAULT_CONTROL_WINDOW_NS",
    "DEFAULT_CORRELATE_WINDOW_NS",
    "DEFAULT_EXPORT_WINDOW_NS",
    "ExportConfig",
    "resolve_collector_config",
]

#: Collection strategies: in-kernel aggregation via the native twin or the
#: eBPF VM, or per-event perf streaming with userspace aggregation.
COLLECTOR_MODES = ("native", "vm", "stream")

#: Default export window / scrape interval (sim time).
DEFAULT_EXPORT_WINDOW_NS = 100 * MSEC

#: Default cross-layer correlation window (sim time).
DEFAULT_CORRELATE_WINDOW_NS = 50 * MSEC

#: Default closed-loop controller decision window (sim time).
DEFAULT_CONTROL_WINDOW_NS = 50 * MSEC

#: Closed-loop controller policies: off, socket-layer load shedding, or
#: worker-thread scaling.
CONTROL_POLICIES = ("none", "shed", "scale")

#: Prometheus metric-name / label-name grammar (the exporter validates its
#: namespace and static labels against these at construction time).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class ExportConfig:
    """Configuration of the streaming Prometheus export stage.

    Attaching this to a :class:`CollectorConfig` turns the export pipeline
    on: the monitor closes an observation window every ``window_ns`` of sim
    time, feeds it to a :class:`~repro.export.PrometheusExporter`, and
    renders a scrape — so the scrape interval *is* the window length, and
    the EXP-EXPORT benchmark's interval-vs-fidelity-vs-cost tradeoff is a
    single knob.  Frozen, hashable and JSON-serializable, so it can live
    inside an :class:`~repro.analysis.executor.ExperimentSpec` and
    participate in its cache key.
    """

    #: Export window length == scrape interval, in sim nanoseconds.
    window_ns: int = DEFAULT_EXPORT_WINDOW_NS
    #: Metric-name prefix (``<namespace>_deltas_total``, ...).
    namespace: str = "repro"
    #: Attach OpenMetrics exemplars carrying the last window's
    #: ``lost_records``-derived confidence to the delta counter/histogram.
    exemplars: bool = True
    #: Static labels stamped on every exported series, as (name, value)
    #: pairs (kept as a tuple so the config stays hashable).
    labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_ns", int(self.window_ns))
        if self.window_ns < 1:
            raise ValueError(f"window_ns must be >= 1, got {self.window_ns}")
        if not _METRIC_NAME_RE.match(self.namespace):
            raise ValueError(
                f"namespace {self.namespace!r} is not a valid Prometheus "
                "metric-name prefix"
            )
        labels = tuple((str(k), str(v)) for k, v in self.labels)
        for name, _value in labels:
            if not _LABEL_NAME_RE.match(name) or name.startswith("__"):
                raise ValueError(f"invalid Prometheus label name {name!r}")
        object.__setattr__(self, "labels", labels)

    def replace(self, **changes) -> "ExportConfig":
        """A copy of this config with the given fields changed."""
        return _dc_replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        payload = asdict(self)
        payload["labels"] = [list(pair) for pair in self.labels]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExportConfig":
        data = dict(payload)
        data["labels"] = tuple(tuple(pair) for pair in data.get("labels", ()))
        return cls(**data)


@dataclass(frozen=True)
class CorrelateConfig:
    """Configuration of the cross-layer blind-spot correlator.

    Attaching this to an :class:`~repro.analysis.executor.ExperimentSpec`
    makes the cell close a :class:`~repro.core.MetricsSnapshot` window
    every ``window_ns`` of sim time and log client-side request outcomes,
    so that after the run :mod:`repro.analysis.correlate` can join the two
    streams and classify each window into the discrepancy taxonomy.  The
    correlation itself is post-hoc — the only in-run cost is one simulated
    window event per ``window_ns`` plus an outcome-log append per request
    event, both outside the probe hot loop.

    Threshold fields are deliberately *relative* where the underlying
    signal is workload-dependent: pattern signals (dispersion knee, slack
    collapse) are judged against the run's own median window, which a
    time-bounded anomaly cannot shift.  Only the confidence floor is
    absolute — a clean collection path never drops records, at any load.

    Frozen, hashable and JSON-serializable, so it participates in the
    spec's cache key.
    """

    #: Correlation window length, in sim nanoseconds.
    window_ns: int = DEFAULT_CORRELATE_WINDOW_NS
    #: Kernel-side signal: a window whose combined (send+recv) collection
    #: confidence falls below this is drop-degraded.
    confidence_floor: float = 0.999
    #: Kernel-side signal: the variance knee.  A window knees when its
    #: send-delta dispersion (``cov2``) sits more than ``knee_multiplier``
    #: robust deviations (median absolute deviation, floored at 10% of the
    #: median) above the run's median window — self-calibrating to each
    #: run's own normal, so moses' chunky baseline and data-caching's tight
    #: one use the same threshold.
    knee_multiplier: float = 8.0
    #: Absolute dispersion floor the knee must also clear (guards against
    #: a near-zero median turning window noise into knees).
    cov2_floor: float = 1.0
    #: Kernel-side signal: mean poll duration below ``1/slack_ratio`` x
    #: the run's median window — the epoll-slack collapse.
    slack_ratio: float = 6.0
    #: Pattern signals need at least this many send deltas in the window
    #: (sparse windows are exactly the instability §IV-B warns about).
    min_events: int = 8
    #: App-side signal: a window with zero completions while at least this
    #: many requests are in flight counts as starvation.
    starve_inflight: int = 4
    #: App-side signal: a completion whose latency exceeds this multiple
    #: of the workload's QoS threshold marks the window as QoS-troubled.
    qos_multiplier: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_ns", int(self.window_ns))
        if self.window_ns < 1:
            raise ValueError(f"window_ns must be >= 1, got {self.window_ns}")
        if not 0.0 < self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in (0, 1]")
        if self.knee_multiplier <= 1.0:
            raise ValueError("knee_multiplier must be > 1")
        if self.cov2_floor < 0.0:
            raise ValueError("cov2_floor must be non-negative")
        if self.slack_ratio <= 1.0:
            raise ValueError("slack_ratio must be > 1")
        if self.min_events < 2:
            raise ValueError("min_events must be >= 2")
        if self.starve_inflight < 1:
            raise ValueError("starve_inflight must be >= 1")
        if self.qos_multiplier <= 0.0:
            raise ValueError("qos_multiplier must be positive")

    def replace(self, **changes) -> "CorrelateConfig":
        """A copy of this config with the given fields changed."""
        return _dc_replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CorrelateConfig":
        return cls(**dict(payload))


@dataclass(frozen=True)
class ControlConfig:
    """Configuration of the feedback-free closed-loop QoS controller.

    Attaching this to an :class:`~repro.analysis.executor.ExperimentSpec`
    (with ``policy != "none"``) puts a :class:`~repro.control.QoSController`
    in the cell: the monitor closes a window every ``window_ns`` of sim
    time and the controller reads *only* the windowed eBPF-derived signals
    (RPS_obsv, send-delta dispersion, epoll-poll slack, collection
    confidence) — never the application's or the client's view — and
    actuates below the application: socket-layer admission control
    (``"shed"``) or worker-thread scaling (``"scale"``).

    The first ``calibrate_windows`` eligible windows establish the run's
    own baseline (median + MAD, exactly the correlator's self-calibrating
    robust-z scheme); until then the controller never actuates.  A window
    is *troubled* when any kernel signal fires: confidence below
    ``confidence_floor``, dispersion more than ``knee_multiplier`` robust
    deviations above baseline (and above ``cov2_floor``), or mean poll
    duration collapsed below ``1/slack_ratio`` x baseline.  Hysteresis
    (``trigger_windows`` / ``clear_windows``) plus a ``cooldown_windows``
    refractory period between actuations keep the loop from flapping.

    Frozen, hashable and JSON-serializable; participates in the spec's
    cache key like :class:`CorrelateConfig`.
    """

    #: Actuation policy: ``"none"``, ``"shed"`` or ``"scale"``.
    policy: str = "none"
    #: Decision window length, in sim nanoseconds.
    window_ns: int = DEFAULT_CONTROL_WINDOW_NS
    #: Eligible windows used to establish the baseline before any
    #: actuation is allowed.
    calibrate_windows: int = 6
    #: Kernel signal: combined collection confidence below this.
    confidence_floor: float = 0.999
    #: Kernel signal: send-delta dispersion knee, in robust deviations
    #: above the calibration median (MAD floored at 10% of the median).
    knee_multiplier: float = 8.0
    #: Absolute dispersion floor the knee must also clear.
    cov2_floor: float = 1.0
    #: Kernel signal: mean poll duration below ``1/slack_ratio`` x the
    #: calibration baseline — the epoll-slack collapse.
    slack_ratio: float = 6.0
    #: Kernel signal: windowed RPS_obsv below ``1/rps_drop_ratio`` x the
    #: calibration baseline — the service went quiet while the window
    #: clock kept ticking (stall, crash, capacity loss).  Deliberately not
    #: gated on ``min_events``: silence *is* the signal.
    rps_drop_ratio: float = 2.0
    #: Pattern signals need at least this many send deltas in the window.
    min_events: int = 8
    #: Consecutive troubled windows before the controller engages.
    trigger_windows: int = 2
    #: Consecutive healthy windows before an engaged controller releases.
    clear_windows: int = 3
    #: Refractory windows after any engage/release before the next action.
    cooldown_windows: int = 2
    #: Fraction of inbound requests rejected while shedding is engaged
    #: (deterministic error-accumulator, no RNG).
    shed_fraction: float = 0.5
    #: Dead worker threads revived per ``"scale"`` engagement (0 = all).
    scale_step: int = 0
    #: Simulated size (bytes) of the rejection response message.
    reject_size: int = 32

    def __post_init__(self) -> None:
        if self.policy not in CONTROL_POLICIES:
            raise ValueError(
                f"policy must be one of {CONTROL_POLICIES}, got {self.policy!r}"
            )
        for name in ("window_ns", "calibrate_windows", "min_events",
                     "trigger_windows", "clear_windows", "cooldown_windows",
                     "scale_step", "reject_size"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.window_ns < 1:
            raise ValueError(f"window_ns must be >= 1, got {self.window_ns}")
        if self.calibrate_windows < 3:
            raise ValueError("calibrate_windows must be >= 3")
        if not 0.0 < self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in (0, 1]")
        if self.knee_multiplier <= 1.0:
            raise ValueError("knee_multiplier must be > 1")
        if self.cov2_floor < 0.0:
            raise ValueError("cov2_floor must be non-negative")
        if self.slack_ratio <= 1.0:
            raise ValueError("slack_ratio must be > 1")
        if self.rps_drop_ratio <= 1.0:
            raise ValueError("rps_drop_ratio must be > 1")
        if self.min_events < 2:
            raise ValueError("min_events must be >= 2")
        if self.trigger_windows < 1:
            raise ValueError("trigger_windows must be >= 1")
        if self.clear_windows < 1:
            raise ValueError("clear_windows must be >= 1")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        if self.scale_step < 0:
            raise ValueError("scale_step must be >= 0")
        if self.reject_size < 1:
            raise ValueError("reject_size must be >= 1")

    def replace(self, **changes) -> "ControlConfig":
        """A copy of this config with the given fields changed."""
        return _dc_replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ControlConfig":
        return cls(**dict(payload))


@dataclass(frozen=True)
class CollectorConfig:
    """Every knob that shapes how one process is observed, in one place.

    The same object configures the whole stack: the monitor picks its
    collector classes from ``mode``, the collectors shard state over
    ``cpus`` and pin their VM ``vm_tier``, the streaming collector sizes
    its perf rings from ``capacity``, :class:`~repro.ebpf.bcc.BPF` reads
    ``charge_cost``/``vm_tier`` defaults from it, and a non-``None``
    ``export`` bolts the Prometheus consumer stage on.  Collectors that
    have no use for a field simply ignore it (a duration collector has no
    per-CPU shards), which is what lets one config describe the full
    pipeline.
    """

    #: Collection strategy: ``"native"``, ``"vm"`` or ``"stream"``.
    mode: str = "native"
    #: eBPF VM tier (``None`` = the default, highest tier).
    vm_tier: Optional[str] = None
    #: Simulated CPUs the collection state / perf rings are sharded over.
    cpus: int = 1
    #: Per-CPU perf ring capacity, in records (stream mode).
    capacity: int = 65536
    #: Charge probe execution cost to the traced syscalls.
    charge_cost: bool = False
    #: Streaming Prometheus export stage (``None`` = off).
    export: Optional[ExportConfig] = field(default=None)

    def __post_init__(self) -> None:
        if self.mode not in COLLECTOR_MODES:
            raise ValueError(
                f"mode must be one of {COLLECTOR_MODES}, got {self.mode!r}"
            )
        if self.vm_tier is not None and self.vm_tier not in VM_TIERS:
            raise ValueError(
                f"vm_tier must be one of {VM_TIERS} (or None), got {self.vm_tier!r}"
            )
        if self.cpus < 1:
            raise ValueError(f"cpus must be >= 1, got {self.cpus}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if isinstance(self.export, Mapping):
            object.__setattr__(self, "export", ExportConfig.from_dict(self.export))

    def replace(self, **changes) -> "CollectorConfig":
        """A copy of this config with the given fields changed."""
        return _dc_replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "vm_tier": self.vm_tier,
            "cpus": self.cpus,
            "capacity": self.capacity,
            "charge_cost": self.charge_cost,
            "export": self.export.to_dict() if self.export else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CollectorConfig":
        data = dict(payload)
        export = data.get("export")
        if export is not None and not isinstance(export, ExportConfig):
            data["export"] = ExportConfig.from_dict(export)
        return cls(**data)


def resolve_collector_config(
    config: Union[None, str, CollectorConfig], where: str,
) -> CollectorConfig:
    """Resolve a constructor's ``config`` argument.

    ``config`` may be a :class:`CollectorConfig`, a bare mode string (the
    positional shorthand: ``DeltaCollector(kernel, tgid, nrs, "vm")``), or
    ``None`` for the defaults; anything else is a :class:`TypeError`
    naming ``where``.
    """
    if config is None:
        return CollectorConfig()
    if isinstance(config, str):
        return CollectorConfig(mode=config)
    if not isinstance(config, CollectorConfig):
        raise TypeError(
            f"{where}: config must be a CollectorConfig or a mode "
            f"string, got {type(config).__name__}"
        )
    return config
