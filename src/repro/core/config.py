"""The unified collector/consumer configuration contract.

:class:`CollectorConfig` is one frozen value object threaded uniformly
through :class:`~repro.ebpf.bcc.BPF`, the collectors, the monitor, and
:class:`~repro.analysis.executor.ExperimentSpec` — so a consumer stage
like the Prometheus exporter (:mod:`repro.export`) is just another field
(``export``), not a special case.  The collectors take no per-knob
keywords: supplying one is Python's own unexpected-keyword
:class:`TypeError`.

Every field here is one some experiment sets to more than one value.
Settings that every caller shares are module constants of the stage that
reads them (the correlator's and controller's thresholds, the exporter's
namespace), not fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace as _dc_replace
from typing import Mapping, Optional, Union

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
    "SLACK_RATIO",
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

#: Kernel signal: mean poll duration below ``1/SLACK_RATIO`` x the
#: baseline window — the epoll-slack collapse.  The correlator always
#: judges with it; the controller defaults to it (:class:`ControlConfig`).
SLACK_RATIO = 6.0

#: Closed-loop controller policies: socket-layer load shedding or
#: worker-thread scaling.  A cell without a controller has ``control=None``.
CONTROL_POLICIES = ("shed", "scale")


class _Config:
    """Copy and JSON round-trip shared by the frozen config types."""

    def replace(self, **changes):
        """A copy of this config with the given fields changed."""
        return _dc_replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping):
        return cls(**dict(payload))


def _check_window(config) -> None:
    object.__setattr__(config, "window_ns", int(config.window_ns))
    if config.window_ns < 1:
        raise ValueError(f"window_ns must be >= 1, got {config.window_ns}")


@dataclass(frozen=True)
class ExportConfig(_Config):
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

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True)
class CorrelateConfig(_Config):
    """Configuration of the cross-layer blind-spot correlator.

    Attaching this to an :class:`~repro.analysis.executor.ExperimentSpec`
    makes the cell close a :class:`~repro.core.MetricsSnapshot` window
    every ``window_ns`` of sim time and log client-side request outcomes,
    so that after the run :mod:`repro.analysis.correlate` can join the two
    streams and classify each window into the discrepancy taxonomy, with
    the thresholds that module defines.  The correlation itself is
    post-hoc — the only in-run cost is one simulated window event per
    ``window_ns`` plus an outcome-log append per request event, both
    outside the probe hot loop.

    Frozen, hashable and JSON-serializable, so it participates in the
    spec's cache key.
    """

    #: Correlation window length, in sim nanoseconds.
    window_ns: int = DEFAULT_CORRELATE_WINDOW_NS

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True)
class ControlConfig(_Config):
    """Configuration of the feedback-free closed-loop QoS controller.

    Attaching this to an :class:`~repro.analysis.executor.ExperimentSpec`
    puts a :class:`~repro.control.QoSController` in the cell: the monitor
    closes a window every ``window_ns`` of sim time and the controller
    reads *only* the windowed eBPF-derived signals (RPS_obsv, send-delta
    dispersion, epoll-poll slack, collection confidence) — never the
    application's or the client's view — and actuates below the
    application: socket-layer admission control (``"shed"``) or
    worker-thread scaling (``"scale"``).

    The controller judges windows with the correlator's thresholds and
    runs a fixed calibration and hysteresis schedule
    (:mod:`repro.control.controller`); the two ratios below are the
    signal settings the EXP-CTL scenarios tune per scenario.

    Frozen, hashable and JSON-serializable; participates in the spec's
    cache key like :class:`CorrelateConfig`.
    """

    #: Actuation policy: ``"shed"`` or ``"scale"``.
    policy: str
    #: Decision window length, in sim nanoseconds.
    window_ns: int = DEFAULT_CONTROL_WINDOW_NS
    #: Kernel signal: mean poll duration below ``1/slack_ratio`` x the
    #: calibration baseline — the epoll-slack collapse.
    slack_ratio: float = SLACK_RATIO
    #: Kernel signal: windowed RPS_obsv below ``1/rps_drop_ratio`` x the
    #: calibration baseline — the service went quiet while the window
    #: clock kept ticking (stall, crash, capacity loss).  Deliberately not
    #: gated on a minimum event count: silence *is* the signal.
    rps_drop_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.policy not in CONTROL_POLICIES:
            raise ValueError(
                f"policy must be one of {CONTROL_POLICIES}, got {self.policy!r}"
            )
        _check_window(self)
        if self.slack_ratio <= 1.0:
            raise ValueError("slack_ratio must be > 1")
        if self.rps_drop_ratio <= 1.0:
            raise ValueError("rps_drop_ratio must be > 1")


@dataclass(frozen=True)
class CollectorConfig(_Config):
    """Every knob that shapes how one process is observed, in one place.

    The same object configures the whole stack: the monitor picks its
    collector classes from ``mode``, the collectors pin their VM
    ``vm_tier``, the streaming collector sizes its perf ring from
    ``capacity``, :class:`~repro.ebpf.bcc.BPF` reads ``charge_cost``/
    ``vm_tier`` defaults from it, and a non-``None`` ``export`` bolts the
    Prometheus consumer stage on.  Collectors that have no use for a field
    simply ignore it (a duration collector has no perf ring), which is
    what lets one config describe the full pipeline.
    """

    #: Collection strategy: ``"native"``, ``"vm"`` or ``"stream"``.
    mode: str = "native"
    #: eBPF VM tier (``None`` = the default, highest tier).
    vm_tier: Optional[str] = None
    #: Perf ring capacity, in records (stream mode).
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
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if isinstance(self.export, Mapping):
            object.__setattr__(self, "export", ExportConfig.from_dict(self.export))


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
