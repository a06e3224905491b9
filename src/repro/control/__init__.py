"""Feedback-free closed-loop QoS control (ROADMAP item 2, eBeeMetrics direction).

The paper characterizes which request-level QoS signals the kernel can see
without application cooperation; eBeeMetrics — the same authors' follow-on —
turns those signals into an actionable library.  This package builds that
consumer inside the simulation: :class:`QoSController` reads *only* the
windowed eBPF-derived metrics (RPS_obsv, send-delta dispersion, epoll-poll
slack, collection confidence) from the monitor's
:class:`~repro.core.WindowBus`, and actuates below the application —

- ``policy="shed"``: an :class:`AdmissionGate` on the server-side sockets
  rejects a deterministic fraction of inbound requests on the wire, and
- ``policy="scale"``: a :class:`WorkerScaler` revives dead simulated worker
  threads (the same population a :class:`~repro.faults.WorkerCrash` kills).

Neither actuator touches application code, and the controller never reads
the client's ground truth — the loop is closed purely through the kernel's
own observability, which is the point of the exercise.

Configuration is a frozen :class:`~repro.core.ControlConfig` attached to an
:class:`~repro.analysis.executor.ExperimentSpec`; results land in
``LevelResult.extra["control"]``.  EXP-CTL (``benchmarks/bench_closed_loop.py``)
holds the quality bounds; :mod:`repro.control.scenarios` defines the
evaluated scenario matrix.
"""

from .controller import AdmissionGate, QoSController, WorkerScaler
from .scenarios import (
    SCENARIO_KEYS,
    ControlScenario,
    build_scenario,
    run_scenario,
    scenario_of,
)

__all__ = [
    "AdmissionGate",
    "ControlScenario",
    "QoSController",
    "SCENARIO_KEYS",
    "WorkerScaler",
    "build_scenario",
    "run_scenario",
    "scenario_of",
]
