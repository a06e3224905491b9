"""Consolidated CI smoke harness: every smoke step, one driver.

CI used to carry each smoke invocation as its own inline workflow step;
this driver owns the ordered step registry instead, so ``ci.yml`` shrinks
to lint / tests / ``run_ci_smoke.py`` / regression gate / artifact upload
and adding a smoke step is a code change reviewed next to the benchmark
it exercises.

Guarantees the driver adds over the old inline steps:

* **per-step cache isolation** — any result caches live in per-step
  temp directories, so no step can be served by another step's — or a
  previous CI run's — on-disk state;
* **per-step timing** — the summary table shows where the CI minutes go;
* **keep-going by default** — a failing step does not mask later
  failures; ``--fail-fast`` restores the old stop-at-first behavior.

Usage::

    python benchmarks/run_ci_smoke.py             # run every step
    python benchmarks/run_ci_smoke.py --list      # show the registry
    python benchmarks/run_ci_smoke.py --only sweep-scale --only closed-loop

Exit codes: 0 all selected steps passed, 1 any step failed, 2 usage
errors (unknown ``--only`` name).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


class StepFailure(Exception):
    """A smoke step's own assertion failed (vs a child exit code)."""


@dataclass
class StepContext:
    """Per-step execution environment: isolated caches, temp space."""

    tmpdir: Path

    def env(self) -> dict:
        env = os.environ.copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + existing if existing else "")
        return env

    def python(
        self,
        *argv: str,
        stdin_data: Optional[str] = None,
        capture: bool = False,
    ) -> Optional[str]:
        """Run ``python <argv...>`` from the repo root; raise on failure."""
        command = [sys.executable, *argv]
        result = subprocess.run(
            command,
            cwd=REPO_ROOT,
            env=self.env(),
            input=stdin_data,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
        if result.returncode != 0:
            raise StepFailure(f"{' '.join(argv)} exited {result.returncode}")
        return result.stdout if capture else None


@dataclass
class Step:
    name: str
    description: str
    run: Callable[[StepContext], None]


def step_vm_dispatch(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_vm_dispatch.py", "--smoke")


#: Child script for the overhead-identity step: EXP-OVH at its default
#: scale, whatever the caller's environment says, printed as JSON.
_OVERHEAD_ROWS = (
    "import json, os, sys\n"
    "os.environ.pop('REPRO_FAST', None)\n"
    "os.environ.pop('REPRO_BENCH_SCALE', None)\n"
    "sys.path.insert(0, 'benchmarks')\n"
    "from bench_overhead import run_overhead\n"
    "print(json.dumps(run_overhead()))\n"
)


def step_overhead_identity(ctx: StepContext) -> None:
    """EXP-OVH at default scale must reproduce the committed
    ``results/overhead.json`` rows exactly.  Every workload runs the vm
    collectors with ``charge_cost=True``, so each probe's steps and cost
    feed simulated time: any drift in a translation moves a p99.  The
    committed file is compared against, never rewritten."""
    rows = json.loads(ctx.python("-c", _OVERHEAD_ROWS, capture=True).splitlines()[-1])
    committed = json.loads((REPO_ROOT / "results" / "overhead.json").read_text())["rows"]
    if len(rows) != len(committed):
        raise StepFailure(f"{len(rows)} overhead rows, committed {len(committed)}")
    for row, expected in zip(rows, committed):
        if row != expected:
            raise StepFailure(f"overhead row differs: {row} != committed {expected}")


def step_e2e_cell(ctx: StepContext) -> None:
    # The full request count (one rep) keeps the per-cell tier ratios at
    # the same scale as the committed baseline so the regression gate
    # compares like with like.  --profile dumps the headline cell's
    # compiled tier for the artifact upload.
    ctx.python(
        "benchmarks/bench_e2e_cell.py",
        "--smoke",
        "--requests",
        "1200",
        "--profile",
        "results/bench_e2e_profile.pstats",
    )


def step_export_overhead(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_export_overhead.py", "--smoke")


def step_exporter_roundtrip(ctx: StepContext) -> None:
    """One scrape over real HTTP, then oneshot expositions through the
    bundled strict parser (both dialects), then export and correlation
    sharing one cell's window bus."""
    serve = (
        "-m",
        "repro",
        "serve",
        "silo",
        "--requests",
        "300",
        "--rps",
        "500",
        "--window-ms",
        "20",
    )
    ctx.python(*serve, "--scrape-once")
    text = ctx.python(*serve, "--oneshot", capture=True)
    ctx.python("-m", "repro.export.parser", stdin_data=text, capture=True)
    openmetrics = ctx.python(*serve, "--oneshot", "--openmetrics", capture=True)
    ctx.python("-m", "repro.export.parser", stdin_data=openmetrics, capture=True)
    run = ("-m", "repro", "run", "silo", "--requests", "300", "--rps", "500", "--json")
    stages = ("--export-window-ms", "20", "--correlate-window-ms", "10")
    combined = json.loads(ctx.python(*run, *stages, capture=True))
    ctx.python("-m", "repro.export.parser", stdin_data=combined["export"]["text"], capture=True)
    if "correlation" not in (combined["extra"] or {}):
        raise StepFailure("export + correlate cell carries no extra.correlation")


def step_sweep_scale(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_sweep_scale.py", "--smoke")


def step_benchmark_suite(ctx: StepContext) -> None:
    """The layered benchmark's own correctness checks (committed result
    digests, tier labels, reference-tier oracle) at smoke size.  The
    tier-1 ``testpaths`` do not collect this file."""
    ctx.python("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/suite/test_suite.py")


def step_exact_counts(ctx: StepContext) -> None:
    """The layered benchmark's traced smoke at its default seed, written
    for the regression gate, which compares its exact per-request and
    per-cell counts with the committed ``BENCH_counts.json``."""
    ctx.python(
        "benchmarks/suite/run.py",
        "--trace",
        "1",
        "--smoke",
        "--out",
        "results/bench_counts_smoke.json",
    )


def step_robustness_faults(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_robustness_faults.py", "--smoke")


def step_blind_spots(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_blind_spots.py", "--smoke")
    # The CLI pack run doubles as the JSON round-trip check.
    out = ctx.python("-m", "repro", "correlate", "data-caching", "--json", capture=True)
    rows = json.loads(out)
    missed = [row["scenario"] for row in rows if not row["detected"]]
    if missed:
        raise StepFailure(f"correlate CLI missed scenarios: {missed}")


def step_closed_loop(ctx: StepContext) -> None:
    ctx.python("benchmarks/bench_closed_loop.py", "--smoke")


def step_executor_cache(ctx: StepContext) -> None:
    """Parallel executor smoke sweep: warm re-run fully cache-served."""
    cache_dir = ctx.tmpdir / "repro-cache"
    sweep = (
        "-m",
        "repro",
        "sweep",
        "silo",
        "--levels",
        "4",
        "--requests",
        "300",
        "--jobs",
        "2",
        "--cache-dir",
        str(cache_dir),
        "--json",
    )
    ctx.python(*sweep, capture=True)
    warm = json.loads(ctx.python(*sweep, capture=True))
    telemetry = warm["telemetry"]
    if telemetry["computed"] != 0 or telemetry["cache_hits"] != 4:
        raise StepFailure(f"warm sweep not fully cache-served: {telemetry}")


def step_sharded_sweep(ctx: StepContext) -> None:
    """Shard determinism at the CLI layer: --shard 1/2 union 2/2 must
    reproduce the unsharded payload bit-for-bit, each shard owning its
    positions and leaving the others as null holes."""
    cache_dir = ctx.tmpdir / "repro-cache"
    base = [
        "-m",
        "repro",
        "sweep",
        "xapian",
        "--levels",
        "4",
        "--requests",
        "300",
        "--jobs",
        "2",
        "--cache-dir",
        str(cache_dir),
        "--json",
    ]
    full = json.loads(ctx.python(*base, capture=True))["levels"]
    shard1 = json.loads(ctx.python(*base, "--shard", "1/2", capture=True))["levels"]
    shard2 = json.loads(ctx.python(*base, "--shard", "2/2", capture=True))["levels"]
    if not (len(full) == len(shard1) == len(shard2) == 4):
        raise StepFailure(f"level counts diverged: {len(full)}/{len(shard1)}/{len(shard2)}")
    for pos, (a, b) in enumerate(zip(shard1, shard2)):
        owner = a if pos % 2 == 0 else b
        other = b if pos % 2 == 0 else a
        if other is not None:
            raise StepFailure(f"position {pos} computed by both shards")
        if owner != full[pos]:
            raise StepFailure(f"position {pos} diverged from the unsharded sweep")


#: The ordered registry: same coverage as the old inline ci.yml steps,
#: plus the closed-loop controller smoke.  The perf-regression gate is
#: *not* a step here — it stays its own workflow step so a red gate is
#: distinguishable from a red smoke at a glance.
STEPS = (
    Step("vm-dispatch", "VM dispatch tiers bit-identical", step_vm_dispatch),
    Step(
        "overhead-identity",
        "EXP-OVH rows identical to results/overhead.json",
        step_overhead_identity,
    ),
    Step("e2e-cell", "end-to-end cells across VM tiers (+ profile)", step_e2e_cell),
    Step("export-overhead", "export pipeline identity", step_export_overhead),
    Step(
        "exporter-roundtrip",
        "serve + scrape + strict parser round-trip, export+correlate cell",
        step_exporter_roundtrip,
    ),
    Step(
        "sweep-scale",
        "fleet-scale sweep (fleet translations, shards, RSS)",
        step_sweep_scale,
    ),
    Step(
        "benchmark-suite",
        "layered benchmark digests + tier checks (smoke)",
        step_benchmark_suite,
    ),
    Step(
        "exact-counts",
        "layered benchmark's exact counts (traced smoke)",
        step_exact_counts,
    ),
    Step(
        "robustness-faults",
        "EXP-RF robustness bounds under faults",
        step_robustness_faults,
    ),
    Step(
        "blind-spots",
        "EXP-CORR blind-spot labels + correlate CLI",
        step_blind_spots,
    ),
    Step(
        "closed-loop",
        "EXP-CTL feedback-free controller bounds",
        step_closed_loop,
    ),
    Step(
        "executor-cache",
        "parallel executor warm-cache identity",
        step_executor_cache,
    ),
    Step("sharded-sweep", "CLI shard union bit-identity", step_sharded_sweep),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="STEP",
        help="run only this step (repeatable, keeps registry order)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first failing step (default: keep going)",
    )
    parser.add_argument("--list", action="store_true", help="list the registered steps and exit")
    args = parser.parse_args(argv)

    if args.list:
        for step in STEPS:
            print(f"{step.name:<20} {step.description}")
        return 0

    names = {step.name for step in STEPS}
    if args.only:
        unknown = [name for name in args.only if name not in names]
        if unknown:
            print(
                f"error: unknown step(s) {unknown}; "
                f"available: {[s.name for s in STEPS]}",
                file=sys.stderr,
            )
            return 2
        selected = [step for step in STEPS if step.name in set(args.only)]
    else:
        selected = list(STEPS)

    results: List[tuple] = []
    failures = 0
    for step in selected:
        print(f"=== {step.name}: {step.description}", flush=True)
        started = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"repro-ci-{step.name}-") as tmp:
            ctx = StepContext(tmpdir=Path(tmp))
            try:
                step.run(ctx)
            except StepFailure as exc:
                elapsed = time.monotonic() - started
                results.append((step.name, "FAIL", elapsed, str(exc)))
                failures += 1
                print(f"=== {step.name} FAILED: {exc}", file=sys.stderr, flush=True)
                if args.fail_fast:
                    break
                continue
        elapsed = time.monotonic() - started
        results.append((step.name, "ok", elapsed, ""))
        print(f"=== {step.name} ok ({elapsed:.1f}s)", flush=True)

    print()
    print(f"{'step':<20} {'verdict':<8} seconds")
    for name, verdict, elapsed, detail in results:
        suffix = f"  {detail}" if detail else ""
        print(f"{name:<20} {verdict:<8} {elapsed:7.1f}{suffix}")
    ran = len(results)
    print(f"{ran} step(s) ran, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
