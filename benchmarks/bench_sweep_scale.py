"""Fleet-scale sweep benchmark: the streaming sharded executor.

Measures the two resources the fleet-scale executor work targets and
asserts both stayed won:

* **Translation amortization** — a 1000-cell sweep runs twice, each
  fleet in fresh worker processes forked from a parent that has run no
  cell, so every worker starts with an empty translation cache.  Each
  fleet must translate at least once (its workers' counters reach the
  parent) and at most ``jobs x distinct`` times, where ``distinct`` is
  the translation count of one cell per workload run in-process on a
  cleared cache after the fleets: every worker translates each program
  once and serves every later attach from memory.  Wall-clock for both
  runs is recorded; the gated quantity is the translation counters,
  which are deterministic where wall time on a loaded CI box is not.

* **Parent-memory flatness** — results stream to a JSONL spill instead
  of accumulating in the parent.  The benchmark runs a 50-cell batch
  first, snapshots the parent's ``ru_maxrss`` watermark, then runs the
  1000-cell fleet twice; the final watermark must stay within 1.3x of
  the 50-cell watermark.  (``ru_maxrss`` is monotone, so ordering the
  small batch first is what makes the ratio meaningful.)  Parent heap
  peaks via ``tracemalloc`` are recorded alongside for diagnosis.

A shard identity check rides along: ``--shard 1/2`` union ``--shard
2/2`` of the base grid must be bit-identical to the unsharded run.

``--smoke`` shrinks the grid for CI and writes
``results/bench_sweep_smoke.json``; the full run writes the committed
baseline ``BENCH_sweep.json`` at the repo root.  Exit code is non-zero
when any gate fails, so CI can run this directly.
"""

import argparse
import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

from repro import __version__
from repro.analysis import ExperimentSpec, run_cells
from repro.ebpf import clear_translation_cache

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cheap workloads so the benchmark times the executor, not the apps.
WORKLOADS = ("silo", "xapian")

RSS_CEILING = 1.3


def _grid(cells: int, requests: int):
    """``cells`` distinct specs: WORKLOADS x distinct offered-RPS levels.

    ``monitor_mode="vm"`` so every cell actually loads, translates, and
    runs eBPF programs — the native monitor would never touch the
    translation path this benchmark exists to measure.
    """
    levels = [600.0 + 4.0 * i for i in range(cells // len(WORKLOADS))]
    return ExperimentSpec.grid(WORKLOADS, levels, requests=requests,
                               monitor_mode="vm")


def _dicts(results):
    return [r.to_dict() if r is not None else None for r in results]


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(specs, *, jobs, work_dir, tag):
    t0 = time.perf_counter()
    sink, stats = run_cells(specs, jobs=jobs,
                            spill=work_dir / f"spill-{tag}.jsonl")
    wall = time.perf_counter() - t0
    return sink, stats, wall


def _distinct_translations(requests: int) -> int:
    """Translations of one cell per workload, run in-process on a cleared
    cache: the programs a worker forked from a cold parent translates."""
    clear_translation_cache()
    _, stats = run_cells(_grid(len(WORKLOADS), requests), jobs=1)
    return stats.translation["translations"]


def _shard_identity(specs, baseline, *, jobs, work_dir) -> dict:
    union = [None] * len(specs)
    for i in (1, 2):
        sink, _, _ = _run(specs, jobs=jobs, work_dir=work_dir,
                          tag=f"shard{i}")
        for pos, result in sink.iter_results():
            union[pos] = result
    return {"cells": len(specs), "identical": _dicts(union) == baseline}


def run_benchmark(cells: int, base_cells: int, requests: int, jobs: int,
                  smoke: bool) -> dict:
    work_dir = REPO_ROOT / "results" / ".bench-sweep"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    try:
        tracemalloc.start()

        # Phase 1 — the small batch, FIRST (ru_maxrss is monotone).
        print(f"base:  {base_cells} cells x {requests} requests "
              f"(jobs={jobs}, spill on)")
        base_specs = _grid(base_cells, requests)
        base_sink, base_stats, base_wall = _run(
            base_specs, jobs=jobs, work_dir=work_dir, tag="base")
        base_rss_kb = _rss_kb()
        base_heap_kb = tracemalloc.get_traced_memory()[1] // 1024
        tracemalloc.reset_peak()
        baseline = _dicts(base_sink.materialize())

        # Phase 2 — the fleet grid twice.  The parent has run no cell
        # (every cell so far ran in a worker), so each fleet's workers
        # fork with an empty translation cache.
        specs = _grid(cells, requests)
        fleets = []
        for run in (1, 2):
            print(f"fleet {run}: {len(specs)} cells, workers forked from "
                  "a cold parent")
            _, stats, wall = _run(specs, jobs=jobs, work_dir=work_dir,
                                  tag=f"fleet{run}")
            fleets.append({"wall_s": round(wall, 3),
                           "spilled": stats.spilled,
                           "translation": stats.translation})
        full_rss_kb = _rss_kb()
        full_heap_kb = tracemalloc.get_traced_memory()[1] // 1024
        tracemalloc.stop()

        # Phase 3 — shard identity on the base grid.
        print("shard: 1/2 union 2/2 vs the unsharded base run")
        shard = _shard_identity(base_specs, baseline, jobs=jobs,
                                work_dir=work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Phase 4 — last, because it warms the parent's translation cache.
    distinct = _distinct_translations(requests)
    print(f"distinct: one cell per workload translates {distinct} programs")

    return {
        "benchmark": "bench_sweep_scale",
        "version": __version__,
        "smoke": smoke,
        "cells": cells,
        "base_cells": base_cells,
        "requests": requests,
        "jobs": jobs,
        "base": {"wall_s": round(base_wall, 3),
                 "spilled": base_stats.spilled},
        "fleets": fleets,
        "distinct": distinct,
        "shard": shard,
        "rss": {"base_kb": base_rss_kb, "full_kb": full_rss_kb,
                "ratio": round(full_rss_kb / base_rss_kb, 4)},
        "heap": {"base_peak_kb": base_heap_kb, "full_peak_kb": full_heap_kb},
        "limits": {"rss_ceiling": RSS_CEILING},
    }


def gate(record: dict, println=print) -> int:
    """Judge the record against its gates; returns the failure count."""
    failures = 0
    ceiling = record["jobs"] * record["distinct"]
    for run, fleet in enumerate(record["fleets"], 1):
        translations = fleet["translation"]["translations"]
        bad = not 1 <= translations <= ceiling
        verdict = "FAIL" if bad else "ok"
        println(f"{verdict:>4} fleet {run} translations: {translations} "
                f"(must be 1..{ceiling} = jobs x {record['distinct']} "
                "distinct)")
        failures += bad

    ratio = record["rss"]["ratio"]
    verdict = "FAIL" if ratio > RSS_CEILING else "ok"
    println(f"{verdict:>4} peak RSS {record['rss']['full_kb']}KB after "
            f"{record['cells']}-cell fleet = {ratio:.3f}x the "
            f"{record['base_cells']}-cell watermark "
            f"(ceiling {RSS_CEILING}x)")
    failures += ratio > RSS_CEILING

    identical = record["shard"]["identical"]
    verdict = "ok" if identical else "FAIL"
    println(f"{verdict:>4} shard 1/2 union 2/2 bit-identical to unsharded "
            f"({record['shard']['cells']} cells)")
    failures += not identical

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grid for CI; writes results/bench_sweep_smoke.json")
    parser.add_argument("--cells", type=int, default=None,
                        help="fleet size (default 1000, smoke 120)")
    parser.add_argument("--base-cells", type=int, default=None,
                        help="RSS-watermark batch size (default 50, smoke 20)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per cell (default 60, smoke 30)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    args = parser.parse_args(argv)

    cells = args.cells or (120 if args.smoke else 1000)
    base_cells = args.base_cells or (20 if args.smoke else 50)
    requests = args.requests or (30 if args.smoke else 60)

    record = run_benchmark(cells, base_cells, requests, args.jobs, args.smoke)

    if args.smoke:
        out = REPO_ROOT / "results" / "bench_sweep_smoke.json"
        out.parent.mkdir(exist_ok=True)
    else:
        out = REPO_ROOT / "BENCH_sweep.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    failures = gate(record)
    if failures:
        print(f"{failures} sweep-scale gate(s) failed", file=sys.stderr)
        return 1
    print("sweep-scale gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
