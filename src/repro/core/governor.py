"""A request-aware DVFS governor driven only by in-kernel observability.

This is the §VI payoff: prior art (Rubik, µDPM, DynSleep) assumes
request-level metrics are delivered to the power manager by the
application; here the governor closes the loop with the monitor's
syscall-derived signals instead:

* **idleness** (mean poll duration vs the window length per worker) says
  how much slack exists → lower frequency when idle;
* the **dispersion** saturation flag (Eq. 2's rate-independent form) and
  collapsed idleness say the service is straining → raise frequency.

The governor is deliberately simple (a step-wise hill climber with
hysteresis); the point is the feedback *source*, not the control law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..kernel.dvfs import DvfsDriver
from ..sim.timebase import MSEC
from .monitor import MetricsSnapshot, RequestMetricsMonitor
from .saturation import OnlineSaturationDetector
from .slack import idleness_fraction

__all__ = ["SlackDvfsGovernor", "GovernorDecision"]


@dataclass(frozen=True)
class GovernorDecision:
    """One control-window outcome (for audit/analysis)."""

    time_ns: int
    idleness: float
    dispersion: float
    saturated: bool
    pstate_index: int
    action: str  # "up" | "down" | "hold"


class SlackDvfsGovernor:
    """Periodic controller: monitor window → P-state step.

    Constructing one subscribes :meth:`control_step` to the monitor's
    window bus every ``window_ns``; the monitor must be attached.

    Policy:
    * saturation flagged → race to the max P-state (tail latency is already
      bleeding; gradual ramps just prolong the damage);
    * idleness below ``busy_threshold`` → step up;
    * idleness above ``idle_threshold`` (comfortable slack) → step down;
    * otherwise hold.
    """

    def __init__(
        self,
        monitor: RequestMetricsMonitor,
        driver: DvfsDriver,
        workers: int,
        window_ns: int = 100 * MSEC,
        idle_threshold: float = 0.75,
        busy_threshold: float = 0.45,
        detector: Optional[OnlineSaturationDetector] = None,
    ) -> None:
        if not 0.0 <= busy_threshold < idle_threshold <= 1.0:
            raise ValueError("need 0 <= busy_threshold < idle_threshold <= 1")
        self.monitor = monitor
        self.driver = driver
        self.workers = workers
        self.window_ns = window_ns
        self.idle_threshold = idle_threshold
        self.busy_threshold = busy_threshold
        self.detector = detector or OnlineSaturationDetector(
            threshold_factor=4.0, warmup_windows=2, hysteresis=2
        )
        self.decisions: List[GovernorDecision] = []
        monitor.bus.subscribe(window_ns, self.control_step)

    # -- one control step ----------------------------------------------------
    def control_step(self, snapshot: MetricsSnapshot) -> GovernorDecision:
        idleness = idleness_fraction(
            snapshot.poll.sum, snapshot.duration_ns, workers=self.workers
        )
        dispersion = snapshot.send_delta_cov2
        saturated = (
            self.detector.observe(dispersion) if snapshot.send.count >= 8
            else self.detector.saturated
        )

        if saturated:
            self.driver.set_index(len(self.driver.pstates) - 1)
            action = "max"
        elif idleness < self.busy_threshold:
            self.driver.step_up()
            action = "up"
        elif idleness > self.idle_threshold and not self.driver.at_min:
            self.driver.step_down()
            action = "down"
        else:
            action = "hold"

        decision = GovernorDecision(
            time_ns=self.monitor.kernel.env.now,
            idleness=idleness,
            dispersion=dispersion,
            saturated=saturated,
            pstate_index=self.driver.index,
            action=action,
        )
        self.decisions.append(decision)
        return decision
