"""EXP-CTL: the evaluated closed-loop scenario matrix.

Three scenarios per workload, each run twice — uncontrolled baseline vs
controlled — from the *same* spec (same seed, same arrival stream, same
fault schedule), so the controller's contribution is the only difference:

- ``surge-shed`` (clean cell): a three-phase offered-load schedule —
  calibrate at 0.55x the paper's failure RPS, surge to 1.7x, return to
  0.55x.  The ``shed`` policy must catch the saturation signals
  (slack-collapse / dispersion-knee) and reject enough of the surge to
  keep admitted requests inside QoS.
- ``stall-shed`` (fault matrix): a mid-run stop-the-world
  :class:`~repro.faults.WorkerStall`.  RPS_obsv goes quiet during the
  stall (``rps-drop``); shedding during the stall and the drain converts
  would-be-late completions into cheap refusals and shortens the backlog.
- ``crash-scale`` (fault matrix): a permanent
  :class:`~repro.faults.WorkerCrash` of a large slice of the serving
  pool (half for partitioned pools, three quarters for shared dispatch
  queues).  The ``scale`` policy must notice the capacity loss from the
  windowed signals alone and revive the dead workers.

All knobs scale with the workload's calibrated failure RPS and the run
length, so one scenario definition spans data-caching's 100 ms runs and
triton's 100 s runs.  ``benchmarks/bench_closed_loop.py`` asserts the
documented per-scenario bounds over these records and
``python -m repro control`` runs a single (workload, scenario) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.executor.pool import execute_cell
from ..analysis.executor.spec import DEFAULT_SEED, ExperimentSpec, LevelResult
from ..core.config import ControlConfig
from ..sim.timebase import SEC
from ..workloads.base import DispatchPoolApp, TwoTierApp
from ..workloads.registry import WorkloadDefinition, get_workload

__all__ = [
    "SCENARIO_KEYS",
    "ControlScenario",
    "build_scenario",
    "qos_accounting",
    "run_scenario",
    "scenario_of",
]


@dataclass(frozen=True)
class ControlScenario:
    """One evaluated scenario: its policy and shape."""

    key: str
    policy: str
    description: str


SCENARIOS = {
    "surge-shed": ControlScenario(
        key="surge-shed",
        policy="shed",
        description=(
            "clean cell, offered load surges to 1.7x the failure RPS; "
            "admission control sheds the surge"
        ),
    ),
    "stall-shed": ControlScenario(
        key="stall-shed",
        policy="shed",
        description=(
            "stop-the-world worker stall mid-run; shedding bounds the "
            "backlog during the stall and its drain"
        ),
    ),
    "crash-scale": ControlScenario(
        key="crash-scale",
        policy="scale",
        description=(
            "a large slice of the serving pool crashes permanently; the "
            "scale policy revives the dead workers"
        ),
    ),
}

SCENARIO_KEYS: Tuple[str, ...] = tuple(SCENARIOS)


def scenario_of(key: str) -> ControlScenario:
    try:
        return SCENARIOS[key]
    except KeyError:
        raise KeyError(f"unknown control scenario {key!r}; available: {sorted(SCENARIOS)}") from None


def _crash_target(definition: WorkloadDefinition) -> Tuple[str, int]:
    """Task-name needle + victim count for the crash-scale scenario."""
    config = definition.config
    app_class = definition.app_class
    if issubclass(app_class, TwoTierApp):
        frontends = min(config.frontend_threads, config.connections)
        return f"{config.name}/fe", max(1, frontends // 2)
    if issubclass(app_class, DispatchPoolApp):
        # A shared dispatch queue degrades gracefully: half the executors
        # still clear 0.7x the failure RPS.  Kill three quarters so the
        # capacity loss is actually QoS-visible.
        return f"{config.name}/exec", max(1, config.workers * 3 // 4)
    suffix = "/io" if config.io_uring else "/w"
    return f"{config.name}{suffix}", max(1, config.workers // 2)


def build_scenario(
    workload: str,
    scenario_key: str,
    requests: int,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Construct one scenario instance for ``workload``.

    Returns ``{"spec", "control", "faults", "retry_timeout_ns"}`` — the
    uncontrolled baseline spec, the :class:`~repro.core.ControlConfig` the
    controlled arm adds (via ``spec.replace(control=...)``), the fault
    schedule, and the client watchdog setting both arms share.
    """
    definition = get_workload(workload)
    scenario = scenario_of(scenario_key)
    fail = definition.paper_fail_rps
    if fail <= 0:
        raise ValueError(f"workload {workload} has no calibrated failure RPS")
    n = int(requests)
    if n < 40:
        raise ValueError(f"need at least 40 requests per scenario run, got {n}")

    if scenario_key == "surge-shed":
        base, surge = 0.55 * fail, 1.7 * fail
        n1 = max(1, int(n * 0.3))
        n2 = max(1, int(n * 0.5))
        n3 = max(1, n - n1 - n2)
        run_ns = int((n1 / base + n2 / surge + n3 / base) * SEC)
        spec = ExperimentSpec(
            workload=definition.key,
            offered_rps=base,
            requests=n,
            seed=seed,
            phases=((base, n1), (surge, n2), (base, n3)),
        )
        control = ControlConfig(
            policy="shed",
            window_ns=max(1, run_ns // 40),
            # Dispatch-pool net threads poll at the arrival cadence, so a
            # 1.7x/0.55x surge only compresses their slack ~3x; the default
            # 6x ratio would miss it while 2.5x still clears healthy noise.
            slack_ratio=2.5,
        )
        faults: tuple = ()
        retry_timeout_ns: Optional[int] = None
    elif scenario_key == "stall-shed":
        from ..faults import WorkerStall

        rate = 0.6 * fail
        run_ns = int(n / rate * SEC)
        spec = ExperimentSpec(
            workload=definition.key,
            offered_rps=rate,
            requests=n,
            seed=seed,
        )
        control = ControlConfig(policy="shed", window_ns=max(1, run_ns // 40))
        faults = (
            WorkerStall(at_ns=int(run_ns * 0.45), duration_ns=max(1, int(run_ns * 0.25))),
        )
        retry_timeout_ns = None
    elif scenario_key == "crash-scale":
        from ..faults import WorkerCrash

        rate = 0.7 * fail
        run_ns = int(n / rate * SEC)
        needle, count = _crash_target(definition)
        spec = ExperimentSpec(
            workload=definition.key,
            offered_rps=rate,
            requests=n,
            seed=seed,
        )
        control = ControlConfig(
            policy="scale",
            window_ns=max(1, run_ns // 40),
            rps_drop_ratio=1.3,
        )
        faults = (
            WorkerCrash(
                at_ns=int(run_ns * 0.3),
                restart_after_ns=0,
                count=count,
                match=needle,
            ),
        )
        retry_timeout_ns = max(int(definition.config.qos_latency_ns), run_ns // 12, 1)
    else:  # pragma: no cover - scenario_of already validated
        raise KeyError(scenario_key)
    return {
        "scenario": scenario,
        "spec": spec,
        "control": control,
        "faults": faults,
        "retry_timeout_ns": retry_timeout_ns,
    }


def qos_accounting(level: LevelResult) -> dict:
    """EXP-CTL's per-arm score: violations, goodput, refusals.

    A *QoS violation* is a completion later than the workload's QoS
    threshold or an abandoned request; *goodput* is completions within the
    threshold.  Rejected requests are neither: the client got a definitive
    cheap refusal instead of a broken promise.
    """
    return {
        "completed": level.completed,
        "abandoned": level.abandoned,
        "rejected": level.rejected,
        "late_completions": level.late_completions,
        "qos_violations": level.late_completions + level.abandoned,
        "goodput": level.completed - level.late_completions,
        "p99_ms": level.p99_ns / 1e6,
    }


def run_scenario(
    workload: str,
    scenario_key: str,
    requests: int = 1800,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Run one (workload, scenario) pair: uncontrolled arm, controlled arm.

    Both arms share every input except ``spec.control``; faulted arms run
    through :func:`repro.faults.run_faulted_cell` (uncached), clean arms
    through ``execute_cell`` directly.
    """
    built = build_scenario(workload, scenario_key, requests, seed=seed)
    base_spec: ExperimentSpec = built["spec"]
    ctl_spec = base_spec.replace(control=built["control"])
    if built["faults"]:
        from ..faults import run_faulted_cell

        base_level, _ = run_faulted_cell(
            base_spec,
            faults=built["faults"],
            retry_timeout_ns=built["retry_timeout_ns"],
        )
        ctl_level, _ = run_faulted_cell(
            ctl_spec,
            faults=built["faults"],
            retry_timeout_ns=built["retry_timeout_ns"],
        )
    else:
        base_level = execute_cell(base_spec)
        ctl_level = execute_cell(ctl_spec)
    uncontrolled = qos_accounting(base_level)
    controlled = qos_accounting(ctl_level)
    control_summary = (ctl_level.extra or {}).get("control")
    record = {
        "workload": workload,
        "scenario": scenario_key,
        "policy": built["scenario"].policy,
        "requests": int(requests),
        "uncontrolled": uncontrolled,
        "controlled": controlled,
        "control": control_summary,
    }
    u = uncontrolled["qos_violations"]
    c = controlled["qos_violations"]
    record["violation_ratio"] = (c / u) if u else None
    gu = uncontrolled["goodput"]
    record["goodput_ratio"] = (controlled["goodput"] / gu) if gu else None
    return record
