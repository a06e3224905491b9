"""Tests of the benchmark itself, on ``--smoke`` runs (3 cells per workload).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import compare  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _launch(root: Path, out: Path, *args: str) -> subprocess.Popen:
    run = root / "benchmarks" / "suite" / "run.py"
    command = [sys.executable, str(run), "--smoke", "--out", str(out), *args]
    return subprocess.Popen(
        command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _finish(proc: subprocess.Popen) -> tuple:
    stdout, stderr = proc.communicate(timeout=170)
    return proc.returncode, stdout, stderr


def _copy_tree(dest: Path, with_src: bool) -> Path:
    """A checkout holding BENCHMARK.json, the benchmark and optionally src/."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(SUITE, dest / "benchmarks" / "suite", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two timed and two traced smoke invocations, two at a time."""
    tmp = tmp_path_factory.mktemp("smoke")
    records = {}
    for mode, args in (("timed", ()), ("trace", ("--trace",))):
        procs = [_launch(ROOT, tmp / f"{mode}{k}.json", *args) for k in range(2)]
        for k, proc in enumerate(procs):
            code, stdout, stderr = _finish(proc)
            assert code == 0, stderr + stdout
            last = json.loads(stdout.strip().splitlines()[-1])
            assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
            records[mode, k] = json.loads((tmp / f"{mode}{k}.json").read_text())
    return records


def test_every_metric_present_with_unit(smoke_runs):
    for mode, declared in (("timed", BENCH["end_to_end"]), ("trace", BENCH["per_layer"])):
        record = smoke_runs[mode, 0]
        assert sorted(record["workloads"]) == sorted(WORKLOADS)
        for workload, out in record["workloads"].items():
            got = out["metrics"]
            assert [m["name"] for m in declared] == list(got), (mode, workload)
            for metric in declared:
                value = got[metric["name"]]
                assert value["unit"] == metric["unit"]
                assert isinstance(value["value"], (int, float))
    for workload, out in smoke_runs["timed", 0]["workloads"].items():
        assert all(m["value"] > 0 for m in out["metrics"].values()), workload


def test_layer_fractions_sum_to_one_per_phase(smoke_runs):
    for workload, out in smoke_runs["trace", 0]["workloads"].items():
        for suffix in (".self_frac", ".setup_frac"):
            metrics = out["metrics"].items()
            total = sum(m["value"] for name, m in metrics if name.endswith(suffix))
            assert total == pytest.approx(1.0, abs=0.01), (workload, suffix)


def test_counts_and_digests_repeat_exactly(smoke_runs):
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    exact = [
        name
        for name, unit in units.items()
        if unit.startswith("count") and not name.startswith("executor.")
    ]
    assert "kernel.syscalls_per_req" in exact and "ebpf.translations_per_cell" in exact
    for workload in WORKLOADS:
        first, second = (smoke_runs["trace", k]["workloads"][workload] for k in range(2))
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        assert first["digests"] == second["digests"] != {}
        timed = [smoke_runs["timed", k]["workloads"][workload]["digests"] for k in range(2)]
        assert timed[0] == timed[1] != {}


def test_tampered_digest_fails_the_run(tmp_path):
    root = _copy_tree(tmp_path, with_src=True)
    digests_path = root / "benchmarks" / "suite" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["workloads"]["triton-overload"][1] = "0" * 16
    digests_path.write_text(json.dumps(digests))
    proc = _launch(root, tmp_path / "record.json", "--workload", "triton-overload")
    code, stdout, _stderr = _finish(proc)
    assert code != 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    record = json.loads((tmp_path / "record.json").read_text())
    out = record["workloads"]["triton-overload"]
    assert out["failed"] / out["attempted"] > 0
    assert "digest" in out["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_tree(tmp_path, with_src=False)
    code, stdout, _stderr = _finish(_launch(root, tmp_path / "record.json"))
    assert code != 0 and stdout.strip() == ""


def test_compare_verdicts():
    lower = True
    assert compare.verdict([100.0], [105.0], 0.1, lower) == "ok"
    assert compare.verdict([100.0], [111.0], 0.1, lower) == "regressed"
    assert compare.verdict([100.0], [89.0], 0.1, not lower) == "regressed"
    noisy = [70.0, 80.0, 100.0, 120.0, 130.0]
    assert compare.verdict(noisy, [100.0] * 5, 0.1, lower) == "unresolved"
    assert compare.verdict(noisy, [40.0] * 5, 0.1, lower) == "gain"
    parent = [100.0 + k / 10 for k in range(10)]
    assert compare.verdict(parent, [p - 5 for p in parent], 0.1, lower) == "gain"
    assert compare.verdict(parent, [p - 0.05 for p in parent], 0.1, lower) == "ok"
