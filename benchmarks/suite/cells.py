"""The benchmark's four workloads: which cells each one runs, per seed.

A workload is a fixed, ordered list of :class:`ExperimentSpec` cells
derived from ``--seed`` alone.  A timed run walks the list from the
start (wrapping round if the time budget outlasts it), so every run of a
seed executes the same prefix of the same cells.

Why each workload is here (see README.md for the metric predictions):

* ``dc-vm`` -- data-caching far below its 62k RPS knee, vm monitor: ~14
  traced syscalls per request fire compiled probes that aggregate into
  in-kernel maps, so eBPF plus the tracepoint path dominate.
* ``dc-stream-export`` -- same app and rates, stream monitor with a
  100 ms export window: probes write perf records, userspace drains them
  and the monitor closes export windows.
* ``triton-overload`` -- triton-grpc at 1.0-1.35x its knee: few syscalls
  per request and long simulated compute, so the workload model and the
  engine dominate and eBPF changes should not show.
* ``small-sweep`` -- 60-request cells over five apps (all three app
  archetypes), at 0.3-0.86x each app's knee, through
  ``run_cells(jobs=2)``: setup-bound, the workload where per-cell fixed
  cost and the executor show.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from repro.analysis.executor import ExperimentSpec, LevelResult
from repro.workloads import get_workload

DEFAULT_SEED = 1317

WORKLOADS = ("dc-vm", "dc-stream-export", "triton-overload", "small-sweep")

#: Apps of the small sweep, round-robin: three ThreadedPollApps, the
#: TwoTierApp (web-search) and a DispatchPoolApp (triton-grpc).
SMALL_APPS = ("data-caching", "silo", "xapian", "web-search", "triton-grpc")

_EXPORT = {"window_ns": 100_000_000}

#: Length of each workload's cell list.
CELL_COUNTS = {"dc-vm": 80, "dc-stream-export": 100, "triton-overload": 150, "small-sweep": 700}


def cell(workload: str, seed: int, index: int) -> ExperimentSpec:
    """Cell ``index`` of ``workload``; ``index = -1`` is the warm-up cell,
    a spec outside the measured list (for small-sweep, ``-1 - k`` warms
    app ``k``)."""
    if workload == "dc-vm":
        rate = 4000 + 50 * index
        return ExperimentSpec("data-caching", rate, requests=1500, seed=seed, monitor_mode="vm")
    if workload == "dc-stream-export":
        rate = 4000 + 50 * index
        return ExperimentSpec(
            "data-caching", rate, requests=1500, seed=seed, monitor_mode="stream", export=_EXPORT
        )
    if workload == "triton-overload":
        rate = 21 + 0.05 * index
        return ExperimentSpec("triton-grpc", rate, requests=300, seed=seed, monitor_mode="vm")
    if workload == "small-sweep":
        if index < 0:
            app, round_ = SMALL_APPS[-1 - index], -1
        else:
            app, round_ = SMALL_APPS[index % len(SMALL_APPS)], index // len(SMALL_APPS)
        rate = get_workload(app).paper_fail_rps * (0.3 + 0.004 * round_)
        return ExperimentSpec(app, rate, requests=60, seed=seed, monitor_mode="vm")
    raise KeyError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def cells(workload: str, seed: int) -> List[ExperimentSpec]:
    return [cell(workload, seed, i) for i in range(CELL_COUNTS[workload])]


def warmup_cells(workload: str, seed: int) -> List[ExperimentSpec]:
    """Cells run before timing, so first-use costs (lazy imports, the
    first attach of each app's probes) fall outside it."""
    apps = len(SMALL_APPS) if workload == "small-sweep" else 1
    return [cell(workload, seed, -1 - k) for k in range(apps)]


def digest(result: LevelResult) -> str:
    """16-hex sha256 prefix of the result's canonical JSON."""
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
