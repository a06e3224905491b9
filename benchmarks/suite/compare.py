"""Compare benchmark records against the bounds in BENCHMARK.json.

    python benchmarks/suite/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

``A`` is the parent (baseline) side, ``B`` the change.  Each file is a
record written by ``run.py --out``.  For every (workload, end-to-end
metric) pair, one row:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- A's own spread (interquartile range over median) is
  wider than the bound, unless every B run beats every A run;
* ``gain`` -- pairs mode only (as many A files as B files, at least two,
  paired by position): B wins at least 9 of 10 pairs, ties counting for
  neither, and the medians differ by more than A's interquartile range;
* ``ok`` -- otherwise.

Exit status 1 if any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
USAGE = "usage: compare.py A.json [A2.json ...] -- B.json [B2.json ...]"


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(records: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric]["value"]
        for r in records
        if workload in r["workloads"] and metric in r["workloads"][workload]["metrics"]
    ]


def verdict(a: List[float], b: List[float], bound: float, lower_better: bool) -> str:
    def better(x: float, y: float) -> bool:
        return x < y if lower_better else x > y

    a_q1, a_med, a_q3 = _quartiles(a)
    b_med = statistics.median(b)
    worse_by = (b_med - a_med) / a_med if lower_better else (a_med - b_med) / a_med
    if (a_q3 - a_q1) / a_med > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if len(a) == len(b) >= 2:
        wins = sum(better(y, x) for x, y in zip(a, b))
        if wins >= 0.9 * len(a) and better(b_med, a_med) and abs(b_med - a_med) > a_q3 - a_q1:
            return "gain"
    return "ok"


def compare(a_records: List[dict], b_records: List[dict], bench: dict) -> List[Dict]:
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            a = _values(a_records, workload, metric["name"])
            b = _values(b_records, workload, metric["name"])
            if not a or not b:
                continue
            row = {
                "workload": workload,
                "metric": metric["name"],
                "bound": metric["bound"],
                "a": _quartiles(a),
                "b": _quartiles(b),
                "change": (statistics.median(b) - statistics.median(a)) / statistics.median(a),
                "verdict": verdict(a, b, metric["bound"], metric["better"] == "lower"),
            }
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print(USAGE, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_records = [json.loads(Path(p).read_text()) for p in argv[:split]]
    b_records = [json.loads(Path(p).read_text()) for p in argv[split + 1 :]]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_records, b_records, bench)
    print(
        f"{'workload':17s} {'metric':18s} {'A q1/median/q3':>30s} "
        f"{'B q1/median/q3':>30s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        print(
            f"{row['workload']:17s} {row['metric']:18s} {a:>30s} {b:>30s} "
            f"{row['change']:+8.2%} {row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
