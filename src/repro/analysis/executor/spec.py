"""The typed experiment specification and result containers.

An :class:`ExperimentSpec` is the canonical description of one
(workload, offered-RPS, netem, machine) cell: a frozen, hashable value
object that can be serialized (``to_dict``/``from_dict``), compared, and
content-addressed (``cache_key``).  Everything the cell's simulation
consumes is a field here, which is what makes parallel execution and
on-disk caching sound: a cell is a pure function of its spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace as _dc_replace
from typing import List, Mapping, Optional, Sequence, Union

from ...core.config import (
    COLLECTOR_MODES,
    CollectorConfig,
    ControlConfig,
    CorrelateConfig,
    ExportConfig,
)
from ...ebpf.compiled import VM_TIERS
from ...kernel.machine import AMD_EPYC_7302, MACHINES, InterferenceSpec, MachineSpec
from ...net.netem import NetemConfig
from ...sim.rng import SeedSequence
from ...workloads.registry import WorkloadDefinition, get_workload

__all__ = ["DEFAULT_SEED", "ExperimentSpec", "LevelResult", "SweepResult"]

#: Stable default seed so figures are reproducible run to run.
DEFAULT_SEED = 1317

#: Workload-sim tiers (see :mod:`repro.workloads.compiled`): ``"auto"``
#: follows the eBPF ``vm_tier`` (compiled probes -> compiled sim).
SIM_TIERS = ("auto", "reference", "compiled")


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this module (indirectly) while
    # it is still initializing, but ``__version__`` is bound before that.
    from ... import __version__

    return __version__


def _machine_from(value: Union[str, Mapping, MachineSpec]) -> MachineSpec:
    if isinstance(value, MachineSpec):
        return value
    if isinstance(value, str):
        try:
            return MACHINES[value]
        except KeyError:
            raise KeyError(
                f"unknown machine {value!r}; available: {sorted(MACHINES)}"
            ) from None
    payload = dict(value)
    interference = payload.pop("interference", None)
    if isinstance(interference, Mapping):
        interference = InterferenceSpec(**interference)
    if interference is not None:
        payload["interference"] = interference
    return MachineSpec(**payload)


def _netem_from(value: Union[None, Mapping, NetemConfig]) -> Optional[NetemConfig]:
    if value is None or isinstance(value, NetemConfig):
        return value
    return NetemConfig(**dict(value))


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, typed description of one experiment cell.

    Replaces ``run_level``'s keyword sprawl: every knob that shapes the
    cell's outcome is a named, validated field.  Instances are frozen and
    hashable, so they can key in-memory dictionaries directly, and
    :meth:`cache_key` gives a stable content hash for the on-disk result
    cache.
    """

    #: Workload registry key (e.g. ``"silo"``).
    workload: str
    #: Offered load in requests per second.
    offered_rps: float
    #: Open-loop request budget for the cell.
    requests: int = 3000
    #: Master seed; the cell derives its own child sequence from it.
    seed: int = DEFAULT_SEED
    #: Machine profile the kernel boots on (a name from ``MACHINES`` or a
    #: full :class:`MachineSpec`).
    machine: MachineSpec = AMD_EPYC_7302
    #: Impairment on the client -> server direction (``None`` = ideal).
    client_to_server: Optional[NetemConfig] = None
    #: Impairment on the server -> client direction (``None`` = ideal).
    server_to_client: Optional[NetemConfig] = None
    #: Monitor implementation: ``"native"`` twin, the eBPF ``"vm"``, or
    #: per-event perf ``"stream"`` (the only mode that can drop records).
    monitor_mode: str = "native"
    #: Perf ring capacity, in records, for ``monitor_mode="stream"``.
    stream_capacity: int = 65536
    #: eBPF VM tier for vm/stream monitor modes (``"reference"`` or
    #: ``"compiled"``).  Both tiers produce bit-for-bit identical
    #: metrics; the field is part of the cache key so cached results
    #: record which tier computed them.
    vm_tier: str = "compiled"
    #: Workload-sim tier: ``"reference"`` runs the generator service
    #: loops, ``"compiled"`` the trace-specialized flat loops (both
    #: bit-identical, see :mod:`repro.workloads.compiled`), ``"auto"``
    #: picks compiled exactly when ``vm_tier`` is compiled.  Part of the
    #: cache key so cached results record how they were simulated.
    sim_tier: str = "auto"
    #: Charge the probe's execution cost to the traced syscalls.
    charge_cost: bool = False
    #: The three windowed stages below share the monitor's one
    #: :class:`~repro.core.WindowBus`, so a cell may set any of them
    #: together.  Each is part of the cache key: a staged cell's results
    #: must never be served for a plain run (or vice versa).
    #:
    #: Streaming Prometheus export stage (``None`` = off), summarized in
    #: ``LevelResult.export``.
    export: Optional[ExportConfig] = None
    #: Cross-layer blind-spot correlation (``None`` = off): windows plus
    #: a client-side outcome log, joined post hoc into the
    #: :class:`~repro.analysis.correlate.CorrelationReport` at
    #: ``LevelResult.extra["correlation"]``.
    correlate: Optional[CorrelateConfig] = None
    #: Feedback-free closed-loop controller (``None`` = off): a
    #: :class:`~repro.control.QoSController` deciding every
    #: ``control.window_ns``, its action log and QoS accounting at
    #: ``LevelResult.extra["control"]``.
    control: Optional[ControlConfig] = None
    #: Optional multi-phase offered-load schedule: ``((rate_rps, count),
    #: ...)`` pairs driven in order by the client, overriding
    #: ``offered_rps``/``requests`` (surge/ramp experiments, EXP-CTL).
    #: ``offered_rps`` still names the cell (labels, seed derivation).
    phases: Optional[tuple] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", _machine_from(self.machine))
        object.__setattr__(self, "offered_rps", float(self.offered_rps))
        object.__setattr__(self, "requests", int(self.requests))
        object.__setattr__(self, "seed", int(self.seed))
        get_workload(self.workload)  # raises KeyError for unknown workloads
        if self.offered_rps <= 0:
            raise ValueError(f"offered_rps must be positive, got {self.offered_rps}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.monitor_mode not in COLLECTOR_MODES:
            raise ValueError(
                f"monitor_mode must be one of {COLLECTOR_MODES}, got {self.monitor_mode!r}"
            )
        if self.stream_capacity < 1:
            raise ValueError("stream_capacity must be >= 1")
        if self.vm_tier not in VM_TIERS:
            raise ValueError(
                f"vm_tier must be one of {VM_TIERS}, got {self.vm_tier!r}"
            )
        if self.sim_tier not in SIM_TIERS:
            raise ValueError(
                f"sim_tier must be one of {SIM_TIERS}, got {self.sim_tier!r}"
            )
        if isinstance(self.export, Mapping):
            object.__setattr__(self, "export", ExportConfig.from_dict(self.export))
        if isinstance(self.correlate, Mapping):
            object.__setattr__(
                self, "correlate", CorrelateConfig.from_dict(self.correlate)
            )
        if isinstance(self.control, Mapping):
            object.__setattr__(
                self, "control", ControlConfig.from_dict(self.control)
            )
        if self.phases is not None:
            phases = tuple(
                (float(rate), int(count)) for rate, count in self.phases
            )
            if not phases or any(r <= 0 or c < 1 for r, c in phases):
                raise ValueError(
                    "phases must be non-empty (rate>0, count>=1) pairs"
                )
            object.__setattr__(self, "phases", phases)

    # -- derived views ---------------------------------------------------
    @property
    def definition(self) -> WorkloadDefinition:
        """The workload definition this spec names."""
        return get_workload(self.workload)

    @property
    def resolved_sim_tier(self) -> str:
        """The workload-sim tier this spec actually requests of the app:
        ``"auto"`` resolves to compiled iff the eBPF tier is compiled."""
        if self.sim_tier == "auto":
            return "compiled" if self.vm_tier == "compiled" else "reference"
        return self.sim_tier

    def seed_sequence(self) -> SeedSequence:
        """The cell's own seed sequence.

        Derived per cell (seed x workload x offered RPS), so every cell's
        random streams are independent of execution order: parallel results
        are bit-identical to serial ones.  The derivation string matches the
        original serial runner's, keeping results comparable across versions.
        """
        return SeedSequence(self.seed).child(f"{self.workload}@{self.offered_rps:g}")

    def label(self) -> str:
        """Short human-readable cell label (progress lines, filenames)."""
        return f"{self.workload}@{self.offered_rps:g}"

    def collector_config(self) -> CollectorConfig:
        """The spec's collection knobs as one :class:`CollectorConfig`.

        This is the single seam between the experiment layer and the
        collection stack: ``execute_cell`` hands the result straight to
        :class:`~repro.core.RequestMetricsMonitor`.
        """
        return CollectorConfig(
            mode=self.monitor_mode,
            vm_tier=self.vm_tier,
            capacity=self.stream_capacity,
            charge_cost=self.charge_cost,
            export=self.export,
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return {
            "workload": self.workload,
            "offered_rps": self.offered_rps,
            "requests": self.requests,
            "seed": self.seed,
            "machine": asdict(self.machine),
            "client_to_server": (
                asdict(self.client_to_server) if self.client_to_server else None
            ),
            "server_to_client": (
                asdict(self.server_to_client) if self.server_to_client else None
            ),
            "monitor_mode": self.monitor_mode,
            "stream_capacity": self.stream_capacity,
            "vm_tier": self.vm_tier,
            "sim_tier": self.sim_tier,
            "charge_cost": self.charge_cost,
            "export": self.export.to_dict() if self.export else None,
            "correlate": self.correlate.to_dict() if self.correlate else None,
            "control": self.control.to_dict() if self.control else None,
            "phases": (
                [list(pair) for pair in self.phases] if self.phases else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(payload)
        data["machine"] = _machine_from(data.get("machine", AMD_EPYC_7302))
        data["client_to_server"] = _netem_from(data.get("client_to_server"))
        data["server_to_client"] = _netem_from(data.get("server_to_client"))
        export = data.get("export")
        if export is not None and not isinstance(export, ExportConfig):
            data["export"] = ExportConfig.from_dict(export)
        correlate = data.get("correlate")
        if correlate is not None and not isinstance(correlate, CorrelateConfig):
            data["correlate"] = CorrelateConfig.from_dict(correlate)
        control = data.get("control")
        if control is not None and not isinstance(control, ControlConfig):
            data["control"] = ControlConfig.from_dict(control)
        return cls(**data)

    def cache_key(self) -> str:
        """Stable content hash of the spec (plus the package version).

        Two specs share a key iff every field that can influence the cell's
        outcome is identical and the package version matches, so a cache
        entry can never be served for a semantically different cell.  The
        resolved workload's full configuration is hashed in too, so a
        recalibrated or custom-registered workload under the same key can
        never collide with stale entries.
        """
        definition = self.definition
        canonical = json.dumps(
            {
                "spec": self.to_dict(),
                "version": _package_version(),
                "workload_config": {
                    "app_class": definition.app_class.__name__,
                    "suite": definition.suite,
                    "config": asdict(definition.config),
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    # -- construction helpers --------------------------------------------
    def replace(self, **changes) -> "ExperimentSpec":
        """A copy of this spec with the given fields changed."""
        return _dc_replace(self, **changes)

    @staticmethod
    def grid(
        workloads: Sequence[Union[str, WorkloadDefinition]],
        levels: Sequence[float],
        **common,
    ) -> List["ExperimentSpec"]:
        """The cross product of workloads x offered-RPS levels.

        ``common`` keywords apply to every cell (seed, netem, ...).
        """
        keys = [w.key if isinstance(w, WorkloadDefinition) else w for w in workloads]
        return [
            ExperimentSpec(workload=key, offered_rps=rate, **common)
            for key in keys
            for rate in levels
        ]


@dataclass
class LevelResult:
    """Everything measured at one load level."""

    workload: str
    offered_rps: float
    # ground truth (client side)
    achieved_rps: float
    p99_ns: float
    p50_ns: float
    mean_latency_ns: float
    completed: int
    qos_violated: bool
    # eBPF-side observations
    rps_obsv: float
    rps_obsv_recv: float
    send_delta_variance: float
    send_delta_cov2: float
    recv_delta_variance: float
    poll_mean_duration_ns: float
    poll_count: int
    # per-window Eq.1 estimates (Fig. 2 green dots)
    window_rps: List[float] = field(default_factory=list)
    # request-outcome accounting beyond completions (fault / control runs;
    # all zero on clean uncontrolled cells).
    abandoned: int = 0
    rejected: int = 0
    #: Completions whose latency exceeded the workload's QoS threshold
    #: (the per-request QoS-violation count EXP-CTL scores against).
    late_completions: int = 0
    # degraded-collection accounting (stream mode; 0 / 1.0 otherwise).
    # ``confidence`` is the event-weighted combined (send+recv) fraction;
    # a recv-only outage degrades it too.
    lost_records: int = 0
    confidence: float = 1.0
    rps_obsv_corrected: float = 0.0
    recv_rate_corrected: float = 0.0
    # run metadata
    machine: str = ""
    netem_label: str = ""
    utilization: float = 0.0
    sim_duration_ns: int = 0
    #: Export-pipeline summary when the cell ran with ``spec.export`` set
    #: (window count, per-window rates/losses/confidence, scrape stats and
    #: the final rendered exposition text); ``None`` otherwise.
    export: Optional[dict] = None
    #: Per-cell analysis artifacts: ``"correlation"`` (``spec.correlate``
    #: set) and/or ``"control"`` (``spec.control`` active); ``None`` when
    #: neither stage ran.
    extra: Optional[dict] = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SweepResult:
    """A full load sweep for one workload.

    A sharded run (``sweep(..., shard="i/N")``) leaves ``None`` holes in
    ``levels`` at positions other shards own; the convenience accessors
    below skip the holes, so they describe whatever this invocation
    actually computed.
    """

    workload: str
    levels: List[Optional[LevelResult]]
    #: Executor telemetry for the run that produced this sweep (cells done,
    #: cache hits, wall-clock), when it came through the executor.
    telemetry: Optional[dict] = None

    @property
    def completed_levels(self) -> List[LevelResult]:
        """The levels this run actually produced (no shard/failure holes)."""
        return [l for l in self.levels if l is not None]

    @property
    def offered(self) -> List[float]:
        return [l.offered_rps for l in self.completed_levels]

    @property
    def achieved(self) -> List[float]:
        return [l.achieved_rps for l in self.completed_levels]

    @property
    def observed(self) -> List[float]:
        return [l.rps_obsv for l in self.completed_levels]

    @property
    def variances(self) -> List[float]:
        return [float(l.send_delta_variance) for l in self.completed_levels]

    @property
    def dispersion(self) -> List[float]:
        return [l.send_delta_cov2 for l in self.completed_levels]

    @property
    def poll_durations(self) -> List[float]:
        return [float(l.poll_mean_duration_ns) for l in self.completed_levels]

    def qos_failure_rps(self) -> Optional[float]:
        """First offered RPS whose p99 crossed the QoS threshold."""
        for level in self.completed_levels:
            if level.qos_violated:
                return level.offered_rps
        return None
