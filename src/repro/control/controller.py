"""The in-sim feedback-free QoS controller and its two actuators.

Signal -> decision contract (DESIGN.md §12): the controller consumes one
:class:`~repro.core.MetricsSnapshot` per ``window_ns`` of sim time from the
monitor's :class:`~repro.core.WindowBus` and nothing else.  The first
:data:`CALIBRATE_WINDOWS` traffic-carrying windows establish the run's own
baseline (:func:`~repro.analysis.correlate.robust_baseline`, the
correlator's self-calibrating robust-z scheme); after that a window is
*troubled* when any kernel signal fires — the correlator's
:func:`~repro.analysis.correlate.kernel_signals` with its thresholds,
then ``rps-drop``:

- ``confidence``: combined collection confidence below the floor (records
  were dropped — the kernel's own view is degrading);
- ``dispersion-knee``: send-delta dispersion more than ``KNEE_MULTIPLIER``
  robust deviations above baseline (the paper's Fig. 3 saturation knee);
- ``slack-collapse``: mean poll duration below ``1/slack_ratio`` x
  baseline (the paper's Fig. 4 epoll-slack collapse — polls return
  immediately because work is always pending);
- ``rps-drop``: windowed RPS_obsv (the paper's Eq. 1 headline metric)
  below ``1/rps_drop_ratio`` x baseline — the observed service went
  quiet under sustained offered load (stall, crash, capacity loss).

Hysteresis turns windows into actions: :data:`TRIGGER_WINDOWS` consecutive
troubled windows engage the actuator, :data:`CLEAR_WINDOWS` consecutive
healthy windows release it, and :data:`COOLDOWN_WINDOWS` refractory
windows separate successive state changes so one noisy window can't flap
the loop.

Everything is deterministic: the shed fraction is enforced with an error
accumulator (no RNG), the scaler walks task lists in spawn order, and all
decisions derive from snapshot values the executor already reproduces
bit-identically across VM tiers, sim tiers and process pools.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.correlate import MIN_EVENTS, kernel_signals, median, robust_baseline
from ..net.packet import Message

__all__ = ["AdmissionGate", "QoSController", "WorkerScaler"]

#: Eligible windows that establish the baseline before any actuation.
CALIBRATE_WINDOWS = 8
#: Consecutive troubled windows before the controller engages.
TRIGGER_WINDOWS = 2
#: Consecutive healthy windows before an engaged controller releases.
CLEAR_WINDOWS = 4
#: Refractory windows after any engage/release before the next action.
COOLDOWN_WINDOWS = 2
#: Fraction of inbound requests the engaged gate sheds.
SHED_FRACTION = 0.5
#: Simulated size (bytes) of the rejection response message.
REJECT_SIZE = 32


class AdmissionGate:
    """Socket-layer load shedder: rejects a deterministic request fraction.

    Installed on an app's server-side sockets (``admission_points()``), the
    gate sees every inbound delivery *before* the receive queue.  While
    engaged it sheds :data:`SHED_FRACTION` of requests by answering them on
    the wire with a ``"rejected"`` message — the application never observes
    them, which is what zero-cooperation admission control means.  The
    fraction is enforced with an error accumulator rather than an RNG
    draw, so the reject pattern is a pure function of the delivery
    sequence.
    """

    def __init__(self) -> None:
        self.engaged = False
        self.admitted = 0
        self.rejected = 0
        self._acc = 0.0

    def install(self, sockets) -> "AdmissionGate":
        """Attach this gate to the given server-side sockets."""
        for sock in sockets:
            sock.admission = self
        return self

    def admit(self, sock, message: Message) -> bool:
        """Called by :meth:`SocketEndpoint.deliver`; False = shed."""
        if not self.engaged:
            return True
        self._acc += SHED_FRACTION
        if self._acc >= 1.0:
            self._acc -= 1.0
            self.rejected += 1
            sock.send(Message(payload="rejected", size=REJECT_SIZE, tag=message.tag))
            return False
        self.admitted += 1
        return True


class WorkerScaler:
    """Worker-thread scale-up: revives dead threads in the app's pools.

    Walks the ``(process, name_substring)`` pools from ``worker_pools()``
    in spawn order and respawns threads whose simulated process has died
    (the population a :class:`~repro.faults.WorkerCrash` kills).  A revived
    thread re-enters its original body; the process's file descriptors
    survived, so it inherits the already-accepted sockets — exactly the
    PR 3 crash-restart path, but driven by the controller instead of the
    fault schedule.
    """

    def __init__(self, app) -> None:
        self.pools = list(app.worker_pools())
        self.respawned = 0

    def dead_workers(self) -> List:
        """Matching tasks whose simulated process is not alive."""
        dead = []
        for process, needle in self.pools:
            for task in list(process.tasks):
                if needle not in task.name or task.body_fn is None:
                    continue
                proc = task.sim_process
                if proc is not None and proc.is_alive:
                    continue
                if getattr(task, "control_revived", False):
                    continue
                dead.append((process, task))
        return dead

    def scale_up(self) -> int:
        """Revive every dead worker; returns the count."""
        revived = 0
        for process, task in self.dead_workers():
            process.respawn_thread(task)
            # The corpse task object stays in the process's task list; mark
            # it so repeated engagements don't recount it (the replacement
            # is a fresh task and is itself revivable if killed again).
            task.control_revived = True
            revived += 1
        self.respawned += revived
        return revived


class QoSController:
    """Feedback-free closed loop: windowed eBPF signals in, actuation out.

    Wire-up (done by ``execute_cell`` when the spec carries a
    :class:`~repro.core.ControlConfig`)::

        controller = QoSController(app, monitor, config)  # subscribes
        report = env.run(until=client.done)
        extra = {"control": controller.summary(report, qos_latency_ns)}

    The controller's only input is the window stream; ``summary`` takes the
    client report purely for *post-hoc scoring* (QoS violations, goodput) —
    no decision ever read it.
    """

    def __init__(self, app, monitor, config) -> None:
        self.app = app
        self.monitor = monitor
        self.config = config
        self.env = monitor.kernel.env
        self.gate: Optional[AdmissionGate] = None
        self.scaler: Optional[WorkerScaler] = None
        if config.policy == "shed":
            self.gate = AdmissionGate().install(app.admission_points())
        elif config.policy == "scale":
            self.scaler = WorkerScaler(app)
        # Calibration state.
        self.calibrated = False
        self._cov2_pool: List[float] = []
        self._poll_pool: List[float] = []
        self.baseline_cov2: Optional[float] = None
        self.baseline_poll_ns: Optional[float] = None
        self.baseline_rps: Optional[float] = None
        self._rps_pool: List[float] = []
        self._cov2_scale: Optional[float] = None
        # Hysteresis state.
        self.engaged = False
        self.windows = 0
        self.engaged_windows = 0
        self._trouble_streak = 0
        self._healthy_streak = 0
        self._cooldown = 0
        #: Bit-reproducible action log: one entry per state change.
        self.actions: List[dict] = []
        # Full windows only: a partial tail window carries no decision.
        monitor.bus.subscribe(config.window_ns, self._on_window)

    # -- the decision loop -------------------------------------------------
    def _on_window(self, snapshot) -> None:
        self.windows += 1
        if not self.calibrated:
            self._calibrate(snapshot)
            return
        signals = self._signals(snapshot)
        if self._cooldown > 0:
            self._cooldown -= 1
        if signals:
            self._trouble_streak += 1
            self._healthy_streak = 0
        else:
            self._healthy_streak += 1
            self._trouble_streak = 0
        if (
            not self.engaged
            and self._cooldown == 0
            and self._trouble_streak >= TRIGGER_WINDOWS
        ):
            self._actuate("engage", signals)
        elif (
            self.engaged
            and self._cooldown == 0
            and self._healthy_streak >= CLEAR_WINDOWS
        ):
            self._actuate("release", signals)
        if self.engaged:
            self.engaged_windows += 1

    def _calibrate(self, snapshot) -> None:
        if snapshot.send.count >= MIN_EVENTS:
            self._cov2_pool.append(snapshot.send.cov2())
            self._rps_pool.append(float(snapshot.rps_obsv))
            if snapshot.poll.count > 0:
                self._poll_pool.append(float(snapshot.poll_mean_duration_ns))
        if len(self._cov2_pool) < CALIBRATE_WINDOWS:
            return
        self.baseline_cov2, self._cov2_scale = robust_baseline(self._cov2_pool)
        self.baseline_rps = median(self._rps_pool)
        if len(self._poll_pool) >= 3:
            self.baseline_poll_ns = median(self._poll_pool)
        self.calibrated = True
        self.actions.append(
            {
                "window": self.windows,
                "t_ns": self.env.now,
                "action": "calibrated",
                "baseline_cov2": self.baseline_cov2,
                "baseline_poll_ns": self.baseline_poll_ns,
                "baseline_rps": self.baseline_rps,
            }
        )

    def _signals(self, snapshot) -> List[str]:
        """The correlator's kernel-side signal set, evaluated causally,
        then ``rps-drop``."""
        fired = kernel_signals(
            snapshot,
            self.config.slack_ratio,
            self.baseline_cov2,
            self._cov2_scale,
            self.baseline_poll_ns,
        )
        if (
            self.baseline_rps is not None
            and self.baseline_rps > 0
            and snapshot.rps_obsv < self.baseline_rps / self.config.rps_drop_ratio
        ):
            fired.append("rps-drop")
        return fired

    def _actuate(self, action: str, signals: List[str]) -> None:
        entry = {
            "window": self.windows,
            "t_ns": self.env.now,
            "action": action,
            "signals": list(signals),
        }
        if action == "engage":
            self.engaged = True
            if self.gate is not None:
                self.gate.engaged = True
            if self.scaler is not None:
                entry["respawned"] = self.scaler.scale_up()
            self._trouble_streak = 0
        else:
            self.engaged = False
            if self.gate is not None:
                self.gate.engaged = False
            self._healthy_streak = 0
        self._cooldown = COOLDOWN_WINDOWS
        self.actions.append(entry)

    # -- post-hoc scoring --------------------------------------------------
    def summary(self, report, qos_latency_ns: int) -> dict:
        """Score the run: actions taken, QoS violations, goodput kept.

        A *QoS violation* is a completion later than the workload's QoS
        threshold or an abandoned request; *goodput* is completions within
        the threshold.  Rejected requests are neither — the client got a
        definitive cheap refusal instead of a broken promise.  The report
        is only read here, after the run; decisions never saw it.
        """
        late = sum(1 for s in report.latency.samples() if s > qos_latency_ns)
        goodput = report.completed - late
        return {
            "policy": self.config.policy,
            "window_ns": self.config.window_ns,
            "windows": self.windows,
            "calibrated": self.calibrated,
            "baseline_cov2": self.baseline_cov2,
            "baseline_poll_ns": self.baseline_poll_ns,
            "baseline_rps": self.baseline_rps,
            "engaged_windows": self.engaged_windows,
            "actions": list(self.actions),
            "engagements": sum(1 for a in self.actions if a["action"] == "engage"),
            "rejected": report.rejected,
            "respawned": self.scaler.respawned if self.scaler is not None else 0,
            "offered": report.offered,
            "completed": report.completed,
            "abandoned": report.abandoned,
            "late_completions": late,
            "qos_violations": late + report.abandoned,
            "goodput": goodput,
        }
