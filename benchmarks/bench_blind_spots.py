"""EXP-CORR — blind-spot detection and false-positive rates per scenario.

The cross-layer correlator (:mod:`repro.analysis.correlate`) joins the
windowed eBPF-side snapshots with the client's ground-truth outcome log
and labels each window AGREE_HEALTHY / AGREE_DEGRADED / KERNEL_SILENT /
APP_SILENT.  This benchmark runs the full adversarial scenario pack
(:data:`repro.faults.SCENARIOS`) against all nine workloads and measures,
per scenario:

* **detection rate** — the fraction of workloads on which the scenario
  produced its annotated taxonomy label (the ``clean`` control counts as
  detected only when *every* window is AGREE_HEALTHY);
* **false-positive rate** — over the ``clean`` control cells, the
  fraction of windows labelled discrepant (KERNEL_SILENT or APP_SILENT).
  A correlator that cries wolf on healthy runs is worthless, so the
  documented bound is exactly zero.

Documented bounds asserted here:

* every scenario's detection rate is 1.0 across the workload grid;
* the clean false-positive rate is 0.0 — no healthy window is ever
  labelled discrepant, on any workload;
* the app-invisible scenarios (``fragmented-writes``, ``slow-drain``)
  never violate client QoS — the pathology really is invisible to the
  app layer, so only the kernel side could have reported it.

Runs two ways:

* under pytest-benchmark with the rest of the suite
  (``pytest benchmarks/bench_blind_spots.py --benchmark-only``);
* standalone for CI smoke (``python benchmarks/bench_blind_spots.py
  --smoke``), one representative workload per threading architecture
  with the same qualitative assertions, saved to
  ``results/blind_spots_smoke.json`` so the committed full-scale
  ``results/blind_spots.json`` stays untouched.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from repro.analysis import ExperimentSpec, save_record
from repro.analysis.correlate import AGREE_HEALTHY
from repro.faults import SCENARIOS, run_blind_spot_cell
from repro.workloads import get_workload, workload_keys

#: One representative per threading architecture (§IV-A): epoll
#: poll-loop, select poll-loop, dispatch pool, two-tier.  The smoke mode
#: covers these; the full bench covers all nine workloads.
ARCHETYPES = ("data-caching", "xapian", "triton-grpc", "web-search")

#: Scenarios whose pathology must stay invisible to the app layer.
APP_INVISIBLE = ("fragmented-writes", "slow-drain")


def _spec(key: str, requests: int) -> ExperimentSpec:
    definition = get_workload(key)
    rate = 0.5 * definition.paper_fail_rps
    return ExperimentSpec(
        workload=key,
        offered_rps=rate,
        requests=min(requests, max(240, int(rate * 0.3))),
    )


def run_blind_spots(workloads: Sequence[str], requests: int) -> dict:
    record = {"bench": "blind_spots", "scenarios": {}}
    for entry in SCENARIOS:
        cells = {}
        for key in workloads:
            result, report, fault_report = run_blind_spot_cell(
                _spec(key, requests), entry)
            if entry.expected_label == AGREE_HEALTHY:
                detected = report.clean
            else:
                detected = entry.expected_label in report.labels
            cells[key] = {
                "detected": detected,
                "counts": report.counts,
                "windows": len(report.windows),
                "discrepant_windows": len(report.discrepancies),
                "faults_applied": len(fault_report.applied),
                "qos_violated": result.qos_violated,
                "lost_records": result.lost_records,
                "completed": result.completed,
            }
            print(f"  {entry.key:<18} {key:<14} "
                  f"{'ok  ' if detected else 'MISS'} "
                  f"{ {k: v for k, v in report.counts.items() if v} }",
                  file=sys.stderr)
        detected_count = sum(1 for c in cells.values() if c["detected"])
        record["scenarios"][entry.key] = {
            "expected_label": entry.expected_label,
            "kind": entry.kind,
            "detection_rate": detected_count / len(cells),
            "cells": cells,
        }
    clean = record["scenarios"]["clean"]["cells"]
    total = sum(c["windows"] for c in clean.values())
    flagged = sum(c["discrepant_windows"] for c in clean.values())
    record["false_positive_rate"] = flagged / total if total else 0.0
    record["clean_windows"] = total
    return record


def check_bounds(record: dict) -> List[str]:
    """The documented EXP-CORR bounds; returns human-readable violations."""
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    for key, data in record["scenarios"].items():
        expect(data["detection_rate"] == 1.0,
               f"{key}: detection rate {data['detection_rate']:.2f} < 1.0 "
               f"(missed: {[w for w, c in data['cells'].items() if not c['detected']]})")
        for workload, cell in data["cells"].items():
            expect(cell["completed"] > 0, f"{key}/{workload}: no completions")
            if key in APP_INVISIBLE:
                expect(not cell["qos_violated"],
                       f"{key}/{workload}: QoS violated — the pathology "
                       "leaked into the app layer")
            if key == "slow-drain":
                expect(cell["lost_records"] > 0,
                       f"slow-drain/{workload}: no records dropped "
                       "(fault not exercised)")
    expect(record["false_positive_rate"] == 0.0,
           f"clean false-positive rate {record['false_positive_rate']:.4f} "
           f"> 0 over {record['clean_windows']} windows")
    return problems


def _summarize(record: dict, emit) -> None:
    emit(f"{'scenario':<18} {'expected':<14} {'kind':<12} detection")
    for key, data in record["scenarios"].items():
        emit(f"{key:<18} {data['expected_label']:<14} {data['kind']:<12} "
             f"{data['detection_rate']:.0%} of {len(data['cells'])} workloads")
    emit(f"clean false-positive rate: {record['false_positive_rate']:.4f} "
         f"over {record['clean_windows']} windows")


def test_blind_spots(benchmark):
    from conftest import emit, scaled

    record = benchmark.pedantic(
        lambda: run_blind_spots(workload_keys(),
                                requests=scaled(600, minimum=240)),
        rounds=1, iterations=1)
    save_record(record, "blind_spots")

    emit("EXP-CORR — blind-spot detection / false-positive rates")
    _summarize(record, emit)

    problems = check_bounds(record)
    assert not problems, "\n".join(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one workload per threading architecture")
    parser.add_argument("--requests", type=int, default=600)
    args = parser.parse_args(argv)
    workloads = ARCHETYPES if args.smoke else workload_keys()

    record = run_blind_spots(workloads, requests=args.requests)
    # Smoke records never overwrite the committed full-scale record.
    save_record(record, "blind_spots_smoke" if args.smoke else "blind_spots")
    _summarize(record, print)

    problems = check_bounds(record)
    for problem in problems:
        print(f"BOUND VIOLATED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
