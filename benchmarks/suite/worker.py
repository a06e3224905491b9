"""One benchmark phase in a fresh interpreter; ``run.py`` launches it.

    python worker.py boot    --workload W --seed N
    python worker.py timed   --workload W --seed N --seconds S [--smoke]
    python worker.py trace   --workload W --seed N [--smoke]
    python worker.py digests --workload W --seed N

Each mode prints one JSON object as its last stdout line.

* ``boot`` prints the monotonic clock at the first cell's ``setup`` hook
  and exits there: the launcher's clock read before the launch, subtracted
  from it, is import plus boot (``setup_s``).
* ``timed`` warms up, then times whole ``execute_cell`` calls (or, for
  small-sweep, ``run_cells(jobs=2)`` batches) for ``--seconds``, with
  the nine ``boot`` launches of ``setup_s`` spread over that time.  No
  profiler and no allocation tracer run here.
* ``trace`` runs a fixed number of cells twice each, plain and under
  cProfile, and reports layer fractions and exact counts.
* ``digests`` prints every cell's result digest (the committed
  ``digests.json`` is these lists at the default seed).

Every mode checks what it ran: the app's sim tier is ``compiled``, every
request completed, digests match ``digests.json`` when the seed is the
committed one, and the first cell rerun on the reference eBPF and sim
tiers gives an identical result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import cells
from repro.analysis.executor import execute_cell, run_cells

SUITE = Path(__file__).resolve().parent

#: Cells per small-sweep ``run_cells`` batch, and its worker count.
SWEEP_BATCH = 50
SWEEP_JOBS = 2
#: Rounds of the five small-sweep apps run in-process, spread over the
#: timed phase, to time their setup and check their tiers (``run_cells``
#: workers are out of the hook's reach).
SWEEP_SETUP_ROUNDS = 10
#: Fresh interpreters booted per timed run for ``setup_s`` (``--smoke``: 3).
BOOT_LAUNCHES = 9
#: Peak RSS is read after this many timed cells (small-sweep: batches),
#: not at the end: the process grows with every cell it runs, and a
#: time-limited run's cell count follows the host's speed.
RSS_STEPS = 20
#: Cells the traced run profiles.
TRACED_CELLS = 20
#: ``--smoke`` runs this many cells (and batch members) everywhere.
SMOKE_CELLS = 3


class Checker:
    """Counts attempted cells and records every failed check."""

    def __init__(self, workload: str, seed: int) -> None:
        committed = json.loads((SUITE / "digests.json").read_text())
        self.expected: Optional[List[str]] = (
            committed["workloads"][workload] if seed == committed["seed"] else None
        )
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[int, str] = {}

    def check(self, index: int, spec, result, sim_tier: Optional[str] = None) -> None:
        self.attempted += 1
        problem = None
        if result is None:
            problem = "no result"
        elif sim_tier is not None and sim_tier != "compiled":
            problem = f"ran sim tier {sim_tier!r}, labelled compiled"
        elif result.completed != spec.requests:
            problem = f"completed {result.completed} of {spec.requests} requests"
        else:
            found = cells.digest(result)
            self.digests[index] = found
            if self.expected is not None and found != self.expected[index]:
                problem = f"digest {found} != committed {self.expected[index]}"
        if problem is not None:
            self.failures.append(f"cell {index} {spec.label()}: {problem}")

    def run(self, index: int, spec):
        """Run one cell in-process, timed; returns (result, wall_s, setup_s)."""
        mark = {}

        def hook(handles) -> None:
            mark["t"] = time.perf_counter()
            mark["tier"] = handles.app.sim_tier

        start = time.perf_counter()
        try:
            result = execute_cell(spec, setup=hook)
        except Exception as error:  # noqa: BLE001 - counted as a failed cell
            self.attempted += 1
            self.failures.append(f"cell {index} {spec.label()}: raised {error!r}")
            return None, None, None
        end = time.perf_counter()
        self.check(index, spec, result, mark["tier"])
        return result, end - start, mark["t"] - start

    def oracle(self, workload: str, seed: int, first) -> None:
        """Cell 0 on the reference eBPF and sim tiers must equal ``first``."""
        self.attempted += 1
        spec = cells.cell(workload, seed, 0)
        reference = execute_cell(spec.replace(vm_tier="reference", sim_tier="reference"))
        if first is None or reference.to_dict() != first.to_dict():
            self.failures.append(f"cell 0 {spec.label()}: differs from the reference tiers")

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "digests": {str(k): v for k, v in sorted(self.digests.items())},
        }


def _steps(seconds: float, count: Optional[int]) -> Iterator[int]:
    """0, 1, 2, ...: ``count`` steps, or (``count=None``) steps until
    ``seconds`` have passed, at least one."""
    if count is not None:
        yield from range(count)
        return
    deadline = time.perf_counter() + seconds
    step = 0
    while step == 0 or time.perf_counter() < deadline:
        yield step
        step += 1


def _peak_rss_mb(with_children: bool) -> float:
    """This process's peak RSS, or with ``with_children`` the larger of it
    and its largest waited-for child's (in practice a ``run_cells`` pool
    worker)."""
    import resource

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


class Spread:
    """Runs ``action`` ``times`` times, spread evenly over the timed phase.

    On a shared 2-vCPU VM, host slowdowns came in bursts of 10-20 s that
    slowed everything 1.5-1.7x.  Samples taken back to back fall into one
    burst together; spread over the phase, only a few do.  The timed loop
    calls :meth:`tick` between its own samples, so the two never overlap.
    """

    def __init__(self, action: Callable[[], None], times: int, seconds: float) -> None:
        self.action = action
        self.times = times
        self.interval = seconds / times
        self.start = time.perf_counter()
        self.done = 0

    def tick(self) -> None:
        """Run the action if its next turn is due."""
        if self.done < self.times and time.perf_counter() >= self.start + self.done * self.interval:
            self.finish(1)

    def finish(self, turns: Optional[int] = None) -> None:
        """Run ``turns`` more actions, by default all that are left."""
        for _ in range(min(turns or self.times, self.times - self.done)):
            self.action()
            self.done += 1


def _boot(check: Checker, command: List[str], times: List[float]) -> None:
    """One ``setup_s`` launch: a fresh interpreter with an empty code cache."""
    env = dict(os.environ, REPRO_CODE_CACHE=tempfile.mkdtemp(prefix="codecache-"))
    start = time.monotonic()
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60, check=True)
    booted = json.loads(proc.stdout.strip().splitlines()[-1])
    times.append(booted["t"] - start)
    check.attempted += 1
    if booted["sim_tier"] != "compiled":
        check.failures.append(f"boot launch ran sim tier {booted['sim_tier']!r}")


def _percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (inclusive method; the value itself when alone)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _warm_up(workload: str, seed: int) -> None:
    for spec in cells.warmup_cells(workload, seed):
        execute_cell(spec)


def _time_cells(check: Checker, specs, seconds: float, count: Optional[int], boots) -> dict:
    """Time one ``execute_cell`` call per sample."""
    samples = {"cell_ms": [], "cell_setup_ms": [], "req_per_s": []}
    first = peak_rss_mb = None
    for step in _steps(seconds, count):
        boots.tick()
        index = step % len(specs)
        result, wall, setup = check.run(index, specs[index])
        if step == 0:
            first = result
        if result is not None:
            samples["cell_ms"].append(wall * 1e3)
            samples["cell_setup_ms"].append(setup * 1e3)
            samples["req_per_s"].append(result.completed / wall)
        if len(samples["cell_ms"]) == RSS_STEPS:
            peak_rss_mb = _peak_rss_mb(with_children=False)
    return {"samples": samples, "first": first, "peak_rss_mb": peak_rss_mb}


def _time_sweep(check: Checker, specs, seconds: float, count: Optional[int], boots) -> dict:
    """Time one ``run_cells(jobs=2)`` batch per sample, and setup on
    in-process rounds of the five apps spread over the same phase."""
    samples = {"cell_ms": [], "cell_setup_ms": [], "req_per_s": []}
    first = peak_rss_mb = None
    apps = len(cells.SMALL_APPS)

    def setup_round() -> None:
        # Setup cost differs several-fold between the five apps, so one
        # sample is the mean over a round of all five: a quantile over
        # single cells would jump between the apps' clusters.
        begin = rounds.done * apps
        round_ms = []
        for index in range(begin, begin + (count or apps)):
            result, _wall, setup = check.run(index, specs[index])
            if result is not None:
                round_ms.append(setup * 1e3)
        if round_ms:
            samples["cell_setup_ms"].append(statistics.fmean(round_ms))

    rounds = Spread(setup_round, 1 if count else SWEEP_SETUP_ROUNDS, seconds)
    batch = count or SWEEP_BATCH
    for step in _steps(seconds, 1 if count else None):
        boots.tick()
        rounds.tick()
        positions = [(step * batch + k) % len(specs) for k in range(batch)]
        start = time.perf_counter()
        results, _stats = run_cells([specs[p] for p in positions], jobs=SWEEP_JOBS)
        wall = time.perf_counter() - start
        for position, result in zip(positions, results):
            check.check(position, specs[position], result)
        if step == 0:
            first = results[0]
        samples["cell_ms"].append(wall * 1e3 / batch)
        samples["req_per_s"].append(sum(r.completed for r in results if r is not None) / wall)
        if len(samples["cell_ms"]) == RSS_STEPS:
            peak_rss_mb = _peak_rss_mb(with_children=True)
    rounds.finish()
    return {"samples": samples, "first": first, "peak_rss_mb": peak_rss_mb}


def timed(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    check = Checker(workload, seed)
    specs = cells.cells(workload, seed)
    _warm_up(workload, seed)
    sweep = workload == "small-sweep"
    command = [sys.executable, __file__, "boot", "--workload", workload, "--seed", str(seed)]
    boot_times: List[float] = []
    boots = Spread(
        lambda: _boot(check, command, boot_times), 3 if smoke else BOOT_LAUNCHES, seconds
    )
    measure = _time_sweep if sweep else _time_cells
    run = measure(check, specs, seconds, SMOKE_CELLS if smoke else None, boots)
    boots.finish()
    samples = run["samples"]
    samples["setup_s"] = boot_times
    peak_rss_mb = run["peak_rss_mb"] or _peak_rss_mb(with_children=sweep)
    check.oracle(workload, seed, run["first"])
    cell_ms = samples["cell_ms"]
    return {
        **check.report(),
        "metrics": {
            "cell_ms_p25": _percentile(cell_ms, 25),
            "cell_setup_ms_p25": _percentile(samples["cell_setup_ms"], 25),
            "req_per_s_p75": _percentile(samples["req_per_s"], 75),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
        },
        "diagnostics": {
            "cell_ms_n": len(cell_ms),
            "cell_ms_p50": statistics.median(cell_ms),
            "cell_ms_p90": _percentile(cell_ms, 90),
            "cell_setup_ms_n": len(samples["cell_setup_ms"]),
        },
        "samples": samples,
    }


def trace(workload: str, seed: int, smoke: bool) -> dict:
    import cProfile

    import layers
    from repro.ebpf import BPF, translation_cache_stats

    check = Checker(workload, seed)
    specs = cells.cells(workload, seed)[: SMOKE_CELLS if smoke else TRACED_CELLS]
    instances: list = []
    original_init = BPF.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instances.append(self)

    _warm_up(workload, seed)
    setup_profile, steady_profile = cProfile.Profile(), cProfile.Profile()
    plain_ms: List[float] = []
    traced_ms: List[float] = []
    plain_wall = plain_cpu = 0.0
    first = None
    totals: Counter = Counter()
    confidence_min = 1.0

    BPF.__init__ = recording_init
    try:
        for index, spec in enumerate(specs):
            cpu = time.process_time()
            result, wall, _setup = check.run(index, spec)
            plain_cpu += time.process_time() - cpu
            if result is None:
                continue
            if index == 0:
                first = result
            plain_ms.append(wall * 1e3)
            plain_wall += wall

            live = {}

            def switch(handles) -> None:
                setup_profile.disable()
                live["handles"] = handles
                live["tier"] = handles.app.sim_tier
                steady_profile.enable()

            seen = len(instances)
            translations = translation_cache_stats()["translations"]
            start = time.perf_counter()
            setup_profile.enable()
            try:
                result = execute_cell(spec, setup=switch)
            finally:
                setup_profile.disable()
                steady_profile.disable()
            traced_ms.append((time.perf_counter() - start) * 1e3)
            totals["translations"] += translation_cache_stats()["translations"] - translations
            check.check(index, spec, result, live["tier"])
            handles = live["handles"]
            totals["syscalls"] += handles.kernel.tracepoints.sys_enter.fired
            # Environment._eid is the engine's private event sequence
            # number: one per event scheduled, the only exact event count
            # the engine keeps.
            totals["events"] += handles.env._eid
            for bpf in instances[seen:]:
                totals["probe_runs"] += sum(bpf.invocations.values())
                totals["insns"] += sum(bpf.insns_executed.values())
            totals["completed"] += result.completed
            totals["windows"] += result.export["windows"] if result.export else 0
            confidence_min = min(confidence_min, result.confidence)
    finally:
        BPF.__init__ = original_init

    if workload == "small-sweep":
        batch = SMOKE_CELLS if smoke else SWEEP_BATCH
        executor = _measure_executor(check, workload, seed, batch)
    else:
        executor = {
            "retried": 0,
            "failed": 0,
            "parent_cpu_s": plain_cpu,
            "worker_cpu_s": 0.0,
            "parallel_eff": plain_cpu / plain_wall,
        }
    check.oracle(workload, seed, first)

    setup_stats = layers.profile_stats(setup_profile)
    steady_stats = layers.profile_stats(steady_profile)
    setup_s = layers.self_time_by_layer(setup_stats)
    steady_s = layers.self_time_by_layer(steady_stats)

    def calls(path_suffix: str, name: str) -> int:
        return sum(layers.call_count(s, path_suffix, name) for s in (setup_stats, steady_stats))

    completed = totals["completed"]
    traced = len(traced_ms)
    connections = calls("repro/kernel/sockets.py", "connect_pair")
    setup_share = sum(setup_s.values()) / (sum(setup_s.values()) + sum(steady_s.values()))
    metrics = {f"{layer}.self_frac": f for layer, f in layers.fractions(steady_s).items()}
    metrics.update({f"{layer}.setup_frac": f for layer, f in layers.fractions(setup_s).items()})
    metrics.update(
        {
            "kernel.syscalls_per_req": totals["syscalls"] / completed,
            "ebpf.probe_runs_per_req": totals["probe_runs"] / completed,
            "ebpf.insns_per_req": totals["insns"] / completed,
            "sim.events_per_req": totals["events"] / completed,
            "net.sends_per_req": calls("repro/net/channel.py", "send") / completed,
            "kernel.connections_per_cell": connections / traced,
            "sim.rng_streams_per_cell": calls("repro/sim/rng.py", "stream") / traced,
            "ebpf.translations_per_cell": totals["translations"] / traced,
            "export.windows_per_cell": totals["windows"] / traced,
            "core.confidence_min": confidence_min,
            **{f"executor.{key}": value for key, value in executor.items()},
            "trace.overhead": statistics.median(traced_ms) / statistics.median(plain_ms),
            "trace.setup_share": setup_share,
        }
    )
    diagnostics = {"traced_cells": traced, "completed": completed}
    return {**check.report(), "metrics": metrics, "diagnostics": diagnostics}


def _measure_executor(check: Checker, workload: str, seed: int, batch: int) -> dict:
    """Plain ``run_cells(jobs=2)`` batches measured from outside: the
    median-wall one of three, after an unmeasured batch of the warm-up
    cells has filled the disk code cache the pool workers share.  (Single
    batches were seen at half the usual parallel efficiency with unchanged
    CPU time.)"""
    import resource

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    run_cells(cells.warmup_cells(workload, seed), jobs=SWEEP_JOBS)
    specs = cells.cells(workload, seed)[:batch]
    runs = []
    for _ in range(3):
        worker_cpu = children_cpu()
        parent_cpu = time.process_time()
        start = time.perf_counter()
        results, stats = run_cells(specs, jobs=SWEEP_JOBS)
        wall = time.perf_counter() - start
        parent_cpu = time.process_time() - parent_cpu
        worker_cpu = children_cpu() - worker_cpu
        for index, result in enumerate(results):
            check.check(index, specs[index], result)
        measured = {
            "retried": stats.retried,
            "failed": stats.failed,
            "parent_cpu_s": parent_cpu,
            "worker_cpu_s": worker_cpu,
            "parallel_eff": worker_cpu / (SWEEP_JOBS * wall),
        }
        runs.append((wall, measured))
    return sorted(runs, key=lambda run: run[0])[1][1]


def boot(workload: str, seed: int) -> None:
    def at_setup(handles) -> None:
        at_hook = {"t": time.monotonic(), "sim_tier": handles.app.sim_tier}
        print(json.dumps(at_hook), flush=True)
        os._exit(0)

    execute_cell(cells.cell(workload, seed, 0), setup=at_setup)
    raise SystemExit("the setup hook never ran")


def digests(workload: str, seed: int) -> dict:
    return {"digests": [cells.digest(execute_cell(spec)) for spec in cells.cells(workload, seed)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("boot", "timed", "trace", "digests"))
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "boot":
        boot(args.workload, args.seed)
    if args.mode == "timed":
        out = timed(args.workload, args.seed, args.seconds, args.smoke)
    elif args.mode == "trace":
        out = trace(args.workload, args.seed, args.smoke)
    else:
        out = digests(args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
