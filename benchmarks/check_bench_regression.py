"""CI perf-regression gate over the e2e cell benchmark.

Compares a fresh ``bench_e2e_cell`` run (typically the ``--smoke`` output
in ``results/bench_e2e_smoke.json``) against the committed full-size
baseline ``BENCH_e2e.json`` and fails when any cell's higher-tier cost
regressed by more than the threshold.

Absolute CPU seconds are not comparable between a smoke run and the
full baseline (different request counts, different machines), so the
gate compares **normalized** per-cell costs: each tier's ``cpu_s``
divided by the same run's reference-tier ``cpu_s``.  That ratio is the
quantity the optimisation work actually moves — how much cheaper the
compiled tier is than the interpreter on the same cells — and it
is scale- and machine-invariant to first order.  A fresh ratio more
than ``threshold`` times the baseline ratio on any (cell, tier) fails
the gate.

Cells whose reference cost is below ``--min-cpu-s`` in either run are
skipped: at sub-50ms totals the ratio is dominated by fixed per-cell
setup, not the probe hot loop, and would flap.

The committed full-size baseline is additionally held to absolute
per-cell compiled-tier speedup floors (``SPEEDUP_FLOORS``): every cell
of the matrix must keep the compiled probe + workload-sim tiers at
least 3x cheaper than the reference interpreter.  The drift check above
cannot catch a slow erosion that refreshes the baseline each time; the
floors can.

The gate also judges the export pipeline when a fresh
``bench_export_overhead`` smoke record is present (absent records are
reported and skipped, so the gate works on branches that never ran the
export smoke).  The fresh smoke run is judged on *identity* only —
export on/off must not change what was measured; smoke cells are too
small to time the overhead meaningfully.  The overhead ceiling at the
default scrape interval is judged against the committed full-size
baseline ``BENCH_export.json``, which CI refreshes on full runs.

The fleet-scale sweep gate works the same way: when a fresh
``bench_sweep_scale`` smoke record is present it is judged on the
executor's deterministic counters — each fleet, forked from a cold
parent, translates at least once and at most ``jobs x distinct`` times
(``distinct``: one cell per workload's translations), shard union
identity, and the parent-RSS ceiling — and the committed full-size
baseline ``BENCH_sweep.json`` must hold the same gates at 1000-cell
scale.  Absent fresh records are reported and skipped.

The exact-count gate judges the layered benchmark's traced smoke run
(``benchmarks/suite/run.py --trace 1 --smoke``, at its default seed, in
``results/bench_counts_smoke.json``) against ``BENCH_counts.json``.  Per
workload, that file holds every ``BENCHMARK.json`` per-layer metric whose
unit is a count, except the executor's: syscalls, probe runs,
instructions, engine events and sends per request, and connections, RNG
streams, translations and export windows per cell.  They are
deterministic, so any inequality fails, and so does a workload or metric
the fresh run lacks.  The rule: a change meant to do less work per
request updates ``BENCH_counts.json`` in the same change (``--write-counts``
rewrites it from the fresh record) and says so in CHANGES.md; any other
change leaves every count as it is.  An absent fresh record is reported
and skipped.

Exit codes: 0 pass, 1 regression (or identity failure in the fresh
run), 2 usage errors (missing/corrupt input files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tiers judged against the reference interpreter.
JUDGED_TIERS = ("compiled",)

DEFAULT_THRESHOLD = 1.25
DEFAULT_MIN_CPU_S = 0.05

#: Absolute compiled-tier speedup floor (reference cpu_s / compiled cpu_s)
#: each cell of the committed full-size baseline must hold.  Unlike the
#: fresh-vs-baseline drift check above, this gates the baseline itself:
#: a refresh that lands with a cell below its floor means the compiled
#: sim/probe tiers stopped covering that cell's hot path.  Smoke runs are
#: never judged here — their ratios are setup-dominated.
SPEEDUP_FLOORS = {
    "data-caching/vm/clean": 3.0,
    "data-caching/stream/clean": 3.0,
    "data-caching/vm/faulted": 3.0,
    "triton-grpc/vm/clean": 3.0,
    "triton-grpc/stream/clean": 3.0,
    "triton-grpc/vm/faulted": 3.0,
}


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise _usage_error(f"{path}: no such file (run the benchmark first)")
    except json.JSONDecodeError as exc:
        raise _usage_error(f"{path}: not valid JSON ({exc})")


def load_run(path: Path) -> dict:
    data = _read_json(path)
    if "cells" not in data:
        raise _usage_error(f"{path}: not a bench_e2e_cell record (no 'cells')")
    return data


def _load_benchmark(path: Path, benchmark: str) -> dict:
    data = _read_json(path)
    if data.get("benchmark") != benchmark:
        raise _usage_error(f"{path}: not a {benchmark} record")
    return data


def load_export_run(path: Path) -> dict:
    return _load_benchmark(path, "bench_export_overhead")


def load_sweep_run(path: Path) -> dict:
    return _load_benchmark(path, "bench_sweep_scale")


def load_ctl_run(path: Path) -> dict:
    return _load_benchmark(path, "bench_closed_loop")


def load_suite_trace(path: Path) -> dict:
    data = _read_json(path)
    if not data.get("trace") or "workloads" not in data:
        raise _usage_error(f"{path}: not a traced benchmarks/suite record")
    return data


def normalized_ratios(cell: dict) -> dict:
    """Per-tier cpu_s normalized by the run's own reference tier."""
    cpu = cell["cpu_s"]
    reference = cpu["reference"]
    if not reference:
        return {}
    return {tier: cpu[tier] / reference for tier in JUDGED_TIERS if tier in cpu}


def check(fresh: dict, baseline: dict, threshold: float, min_cpu_s: float, println=print) -> int:
    """Compare runs; returns the number of failures (0 = gate passes)."""
    failures = 0
    if not fresh.get("all_identical", False):
        println("FAIL identity: fresh run has cross-tier divergence")
        failures += 1

    shared = [name for name in baseline["cells"] if name in fresh["cells"]]
    if not shared:
        println("FAIL coverage: no cells shared between fresh run and baseline")
        return failures + 1

    for name in shared:
        fresh_cell = fresh["cells"][name]
        base_cell = baseline["cells"][name]
        fresh_ref = fresh_cell["cpu_s"]["reference"]
        base_ref = base_cell["cpu_s"]["reference"]
        if fresh_ref < min_cpu_s or base_ref < min_cpu_s:
            println(f"skip {name}: reference cpu_s below {min_cpu_s}s (setup-dominated)")
            continue
        fresh_ratios = normalized_ratios(fresh_cell)
        base_ratios = normalized_ratios(base_cell)
        for tier in JUDGED_TIERS:
            if tier not in fresh_ratios or not base_ratios.get(tier):
                continue
            rel = fresh_ratios[tier] / base_ratios[tier]
            verdict = "FAIL" if rel > threshold else "ok"
            ratio = f"ratio {fresh_ratios[tier]:.3f} vs baseline {base_ratios[tier]:.3f}"
            detail = f"{ratio} ({rel:.2f}x, limit {threshold}x)"
            println(f"{verdict:>4} {name:<28} {tier:<9} {detail}")
            if rel > threshold:
                failures += 1
    return failures


def check_baseline_floors(baseline: dict, println=print) -> int:
    """Gate the committed baseline's absolute compiled-tier speedups.

    Returns the number of cells below their floor.  Cells missing from
    the baseline are failures too — dropping a floored cell from the
    matrix must be an explicit decision here, not a silent skip.
    """
    failures = 0
    if baseline.get("smoke"):
        println("skip speedup floors: baseline is a smoke record")
        return 0
    for name, floor in sorted(SPEEDUP_FLOORS.items()):
        cell = baseline["cells"].get(name)
        if cell is None:
            println(f"FAIL {name:<28} missing from the committed baseline")
            failures += 1
            continue
        speedup = cell["speedup_vs_reference"].get("compiled")
        if speedup is None:
            println(f"FAIL {name:<28} no compiled-tier timing in baseline")
            failures += 1
            continue
        verdict = "FAIL" if speedup < floor else "ok"
        println(
            f"{verdict:>4} {name:<28} compiled  "
            f"{speedup:.2f}x vs reference (floor {floor}x, committed baseline)"
        )
        if speedup < floor:
            failures += 1
    return failures


def check_export(fresh: dict, baseline: dict, println=print) -> int:
    """Gate the export pipeline; returns the number of failures.

    Fresh (smoke) runs prove identity; the committed full-size baseline
    proves the overhead ceiling at the default scrape interval held when
    it was generated at gate-able scale.
    """
    failures = 0
    if not fresh.get("all_identical", False):
        println("FAIL export identity: export-enabled runs diverged from base")
        failures += 1
    else:
        settings = len(fresh.get("points", {}))
        println(f"  ok export identity: {settings} window settings measurement-identical")

    limit = baseline.get("overhead_limit", 0.10)
    headline = baseline.get("headline", {})
    overhead = headline.get("overhead_frac")
    if overhead is None:
        println("FAIL export baseline: no headline overhead recorded")
        return failures + 1
    verdict = "FAIL" if overhead > limit else "  ok"
    window = headline.get("window_ms")
    detail = f"{overhead:+.1%} at {window}ms (limit {limit:.0%}, committed full-size baseline)"
    println(f"{verdict} export overhead: {detail}")
    if overhead > limit:
        failures += 1
    return failures


def _judge_sweep_record(record: dict, origin: str, println=print) -> int:
    """Apply the sweep-scale gates to one record (fresh or baseline).

    The gated quantities are deterministic executor counters, so the
    same gates hold for a smoke grid and the full-size baseline — only
    the scale differs.
    """
    failures = 0
    rss_ceiling = record.get("limits", {}).get("rss_ceiling", 1.3)

    # Each worker translates each distinct program once at most; the
    # lower bound proves the workers' counters reach the parent.
    fleets = record.get("fleets")
    distinct = record.get("distinct")
    if not fleets or distinct is None:
        println(f"FAIL sweep {origin}: no fleet translation counts recorded")
        return failures + 1
    ceiling = record["jobs"] * distinct
    for run, fleet in enumerate(fleets, 1):
        translations = fleet.get("translation", {}).get("translations", -1)
        bad = not 1 <= translations <= ceiling
        verdict = "FAIL" if bad else "  ok"
        println(
            f"{verdict} sweep {origin}: fleet {run} translations {translations} over "
            f"{record['cells']} cells (must be 1..{ceiling} = jobs x {distinct} distinct)"
        )
        failures += bad

    ratio = record.get("rss", {}).get("ratio")
    if ratio is None:
        println(f"FAIL sweep {origin}: no RSS ratio recorded")
        failures += 1
    else:
        verdict = "FAIL" if ratio > rss_ceiling else "  ok"
        println(
            f"{verdict} sweep {origin}: peak RSS {ratio:.3f}x the "
            f"{record['base_cells']}-cell watermark (ceiling {rss_ceiling}x)"
        )
        failures += ratio > rss_ceiling

    shard = record.get("shard", {})
    verdict = "  ok" if shard.get("identical", False) else "FAIL"
    println(f"{verdict} sweep {origin}: shard union bit-identical ({shard.get('cells', 0)} cells)")
    failures += not shard.get("identical", False)
    return failures


def check_sweep(fresh: dict, baseline: dict, println=print) -> int:
    """Gate the fleet-scale sweep records; returns the failure count.

    The fresh (smoke) record proves the executor still amortizes and
    streams on this branch; the committed baseline proves it held at
    1000-cell scale when it was generated.
    """
    failures = _judge_sweep_record(fresh, "fresh", println)
    if baseline.get("smoke"):
        println(
            "FAIL sweep baseline: committed BENCH_sweep.json is a smoke "
            "record (regenerate with a full run)"
        )
        return failures + 1
    failures += _judge_sweep_record(baseline, "baseline", println)
    return failures


def _judge_ctl_record(record: dict, origin: str, println=print) -> int:
    """Apply the EXP-CTL documented bounds to one closed-loop record.

    The bounds live in ``bench_closed_loop.check_bounds`` — the same
    per-scenario violation-ratio ceilings and goodput floors hold for a
    smoke record (one workload per architecture) and the committed
    full-matrix baseline; only the cell count differs.
    """
    from bench_closed_loop import check_bounds

    problems = check_bounds(record)
    cells = len(record.get("cells", {}))
    if problems:
        for problem in problems:
            println(f"FAIL ctl {origin}: {problem}")
        return len(problems)
    println(f"  ok ctl {origin}: {cells} closed-loop cells inside the documented bounds")
    return 0


def check_ctl(fresh: dict, baseline: dict, println=print) -> int:
    """Gate the closed-loop controller records; returns the failure count.

    The fresh (smoke) record proves the controller still detects and
    sheds/re-scales on this branch; the committed baseline proves the
    bounds held across the full workload matrix when it was generated.
    """
    failures = _judge_ctl_record(fresh, "fresh", println)
    if baseline.get("smoke"):
        println(
            "FAIL ctl baseline: committed BENCH_ctl.json is a smoke "
            "record (regenerate with a full run)"
        )
        return failures + 1
    failures += _judge_ctl_record(baseline, "baseline", println)
    return failures


def count_metrics(declared: dict) -> list:
    """Names of the suite's exact counts in a ``BENCHMARK.json``: every
    per-layer metric counted in events, except the executor's."""
    return [
        metric["name"]
        for metric in declared["per_layer"]
        if metric["unit"].startswith("count") and not metric["name"].startswith("executor.")
    ]


def counts_record(trace: dict, names: list) -> dict:
    """The ``BENCH_counts.json`` payload of a traced suite record."""
    return {
        "benchmark": "suite_counts",
        "command": "python benchmarks/suite/run.py --trace 1 --smoke",
        "seed": trace["seed"],
        "workloads": {
            workload: {name: run["metrics"][name]["value"] for name in names}
            for workload, run in trace["workloads"].items()
        },
    }


def check_counts(trace: dict, committed: dict, names: list, println=print) -> int:
    """Gate a traced suite record's exact counts; returns the failure
    count.  Every committed workload and every count must be present in
    the fresh record and equal the committed value."""
    failures = 0
    if trace["seed"] != committed["seed"]:
        println(f"FAIL counts: fresh seed {trace['seed']}, committed {committed['seed']}")
        return 1
    for workload, expected in committed["workloads"].items():
        run = trace["workloads"].get(workload)
        if run is None:
            println(f"FAIL counts {workload}: missing from the fresh record")
            failures += 1
            continue
        for name in names:
            want = expected.get(name)
            got = run["metrics"].get(name, {}).get("value")
            if want is None or got is None or got != want:
                println(f"FAIL counts {workload} {name}: committed {want}, fresh {got}")
                failures += 1
    if not failures:
        workloads = len(committed["workloads"])
        println(f"  ok counts: {len(names)} exact counts equal on {workloads} workloads")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        default=str(REPO_ROOT / "results" / "bench_e2e_smoke.json"),
        help="fresh benchmark record (default: the smoke output)",
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_e2e.json"),
        help="committed baseline record",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"max allowed fresh/baseline normalized-cost ratio (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--min-cpu-s",
        type=float,
        default=DEFAULT_MIN_CPU_S,
        help=f"skip cells whose reference cpu_s is below this (default {DEFAULT_MIN_CPU_S})",
    )
    parser.add_argument(
        "--export-fresh",
        default=str(REPO_ROOT / "results" / "bench_export_smoke.json"),
        help="fresh export benchmark record (skipped with a note if absent)",
    )
    parser.add_argument(
        "--export-baseline",
        default=str(REPO_ROOT / "BENCH_export.json"),
        help="committed full-size export baseline",
    )
    parser.add_argument(
        "--sweep-fresh",
        default=str(REPO_ROOT / "results" / "bench_sweep_smoke.json"),
        help="fresh sweep-scale benchmark record (skipped with a note if absent)",
    )
    parser.add_argument(
        "--sweep-baseline",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="committed full-size sweep-scale baseline",
    )
    parser.add_argument(
        "--ctl-fresh",
        default=str(REPO_ROOT / "results" / "bench_ctl_smoke.json"),
        help="fresh closed-loop benchmark record (skipped with a note if absent)",
    )
    parser.add_argument(
        "--ctl-baseline",
        default=str(REPO_ROOT / "BENCH_ctl.json"),
        help="committed full-matrix closed-loop baseline",
    )
    parser.add_argument(
        "--counts-fresh",
        default=str(REPO_ROOT / "results" / "bench_counts_smoke.json"),
        help="fresh traced suite smoke record (skipped with a note if absent)",
    )
    parser.add_argument(
        "--counts-baseline",
        default=str(REPO_ROOT / "BENCH_counts.json"),
        help="committed exact per-workload counts of the suite",
    )
    parser.add_argument(
        "--write-counts",
        action="store_true",
        help="rewrite --counts-baseline from --counts-fresh and exit",
    )
    args = parser.parse_args(argv)

    names = count_metrics(_read_json(REPO_ROOT / "BENCHMARK.json"))
    counts_fresh_path = Path(args.counts_fresh)
    if args.write_counts:
        record = counts_record(load_suite_trace(counts_fresh_path), names)
        Path(args.counts_baseline).write_text(json.dumps(record, indent=1) + "\n")
        return 0

    fresh = load_run(Path(args.fresh))
    baseline = load_run(Path(args.baseline))
    failures = check(fresh, baseline, args.threshold, args.min_cpu_s)
    failures += check_baseline_floors(baseline)

    export_fresh_path = Path(args.export_fresh)
    if export_fresh_path.exists():
        failures += check_export(
            load_export_run(export_fresh_path),
            load_export_run(Path(args.export_baseline)),
        )
    else:
        print(f"skip export gate: {export_fresh_path} absent (run the export smoke first)")

    sweep_fresh_path = Path(args.sweep_fresh)
    if sweep_fresh_path.exists():
        failures += check_sweep(
            load_sweep_run(sweep_fresh_path),
            load_sweep_run(Path(args.sweep_baseline)),
        )
    else:
        print(f"skip sweep gate: {sweep_fresh_path} absent (run the sweep smoke first)")

    ctl_fresh_path = Path(args.ctl_fresh)
    if ctl_fresh_path.exists():
        failures += check_ctl(
            load_ctl_run(ctl_fresh_path),
            load_ctl_run(Path(args.ctl_baseline)),
        )
    else:
        print(f"skip ctl gate: {ctl_fresh_path} absent (run the closed-loop smoke first)")

    if counts_fresh_path.exists():
        failures += check_counts(
            load_suite_trace(counts_fresh_path),
            _read_json(Path(args.counts_baseline)),
            names,
        )
    else:
        print(f"skip counts gate: {counts_fresh_path} absent (run the exact-counts smoke first)")

    if failures:
        print(f"{failures} perf-regression check(s) failed", file=sys.stderr)
        return 1
    print("perf-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
