"""Multi-stage observability (§V-B).

"For multi-stage workloads, like microservices, we would require eBPF
observability of individual services in the microservice workload in order
to then combine the request-level observability metrics together."

:class:`MultiServiceMonitor` does exactly that: one
:class:`~repro.core.monitor.RequestMetricsMonitor` per service process,
plus the combination layer — per-tier idleness, per-tier saturation
dispersion, and bottleneck attribution (which tier is closest to
saturation right now).  The Web Search workload (front-end + index-search
processes) is the in-repo testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..kernel.kernel import Kernel
from ..kernel.syscalls import SyscallSpec
from .config import CollectorConfig, resolve_collector_config
from .monitor import MetricsSnapshot, RequestMetricsMonitor
from .slack import idleness_fraction

__all__ = ["ServiceSpec", "MultiServiceMonitor", "CombinedSnapshot", "TierReading"]


@dataclass(frozen=True)
class ServiceSpec:
    """One monitored service: process + its syscall profile + worker count."""

    name: str
    tgid: int
    workers: int
    syscalls: Optional[SyscallSpec] = None


@dataclass(frozen=True)
class TierReading:
    """Combined per-tier signals for one window."""

    name: str
    snapshot: MetricsSnapshot
    idleness: float
    dispersion: float

    @property
    def rps_obsv(self) -> float:
        return self.snapshot.rps_obsv


@dataclass(frozen=True)
class CombinedSnapshot:
    """All tiers for one window + derived attribution."""

    tiers: Tuple[TierReading, ...]

    def tier(self, name: str) -> TierReading:
        for reading in self.tiers:
            if reading.name == name:
                return reading
        raise KeyError(f"no tier named {name!r}")

    @property
    def bottleneck(self) -> TierReading:
        """The tier with the least idleness (closest to saturation)."""
        return min(self.tiers, key=lambda t: t.idleness)

    @property
    def entry_rps(self) -> float:
        """Observed request rate at the entry tier (end-to-end throughput
        proxy; the first tier fronts the clients)."""
        return self.tiers[0].rps_obsv

    def idleness_by_tier(self) -> Dict[str, float]:
        return {t.name: t.idleness for t in self.tiers}


class MultiServiceMonitor:
    """Per-service monitors + the combination layer.

    Services are given entry-tier first; the entry tier's send-family rate
    doubles as the end-to-end throughput proxy.
    """

    def __init__(self, kernel: Kernel, services: List[ServiceSpec],
                 config: "CollectorConfig | str | None" = None) -> None:
        config = resolve_collector_config(config, "MultiServiceMonitor")
        if not services:
            raise ValueError("need at least one service to monitor")
        names = [s.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service names in {names}")
        self.kernel = kernel
        self.services = list(services)
        self.config = config
        self._monitors: Dict[str, RequestMetricsMonitor] = {
            s.name: RequestMetricsMonitor(
                kernel, s.tgid, spec=s.syscalls, config=config)
            for s in services
        }
        self._attached = False

    def attach(self) -> "MultiServiceMonitor":
        for monitor in self._monitors.values():
            monitor.attach()
        self._attached = True
        return self

    def detach(self) -> None:
        for monitor in self._monitors.values():
            monitor.detach()
        self._attached = False

    def __enter__(self) -> "MultiServiceMonitor":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def snapshot(self, reset: bool = False) -> CombinedSnapshot:
        if not self._attached:
            raise RuntimeError("monitor is not attached")
        readings = []
        for service in self.services:
            snap = self._monitors[service.name].snapshot(reset=reset)
            idleness = idleness_fraction(
                snap.poll.sum, snap.duration_ns, workers=service.workers
            )
            readings.append(TierReading(
                name=service.name,
                snapshot=snap,
                idleness=idleness,
                dispersion=snap.send_delta_cov2,
            ))
        return CombinedSnapshot(tiers=tuple(readings))

    @classmethod
    def for_two_tier_app(cls, kernel: Kernel, app,
                         config: "CollectorConfig | str | None" = None,
                         ) -> "MultiServiceMonitor":
        """Convenience wiring for :class:`~repro.workloads.TwoTierApp`."""
        app_config = app.config
        return cls(kernel, [
            ServiceSpec(name="front-end", tgid=app.process.pid,
                        workers=app.worker_count, syscalls=app_config.syscalls),
            ServiceSpec(name="index-search", tgid=app.backend_process.pid,
                        workers=app_config.workers,
                        syscalls=app_config.syscalls),
        ], config)
