"""The repository's benchmark: four workloads, end to end and layer by layer.

Usage, from the repository root::

    python benchmarks/suite/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--smoke] [--out PATH]
    python benchmarks/suite/run.py --write-digests

Without ``--workload`` every workload runs in turn.  Each phase of each
workload runs in a fresh interpreter (``worker.py``) with a private,
initially empty compiled-program cache, and never a result cache:

* ``--trace 0`` (default): one timed process gives ``cell_ms_p25``,
  ``cell_setup_ms_p25``, ``req_per_s_p75`` and ``peak_rss_mb``, and
  ``setup_s`` from nine fresh interpreters it boots, spread over its
  timed phase;
* ``--trace 1``: one process runs a fixed set of cells plain and under
  cProfile and gives the per-layer fractions and counts.

Every metric is printed with its unit, the run is written to ``--out``
(default ``benchmarks/suite/out/record.json``), and the last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Any failed check -- a cell that raised, ran the wrong tier, lost
requests, mismatched its committed digest or its reference-tier rerun --
makes the exit status 1.  ``--write-digests`` recomputes
``digests.json`` at the default seed; only a change that alters
simulated results on purpose needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _child_env(scratch: Path, name: str) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CODE_CACHE"] = str(scratch / name / "codecache")
    env["TMPDIR"] = str(scratch / name)
    (scratch / name).mkdir(parents=True)
    return env


def _worker(scratch: Path, name: str, args: list, timeout: float) -> dict:
    command = [sys.executable, str(SUITE / "worker.py"), *args]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
    # A session of its own, so that the pool workers and boot launches the
    # worker starts are stopped with it when this run is cut short.
    with subprocess.Popen(
        command, env=_child_env(scratch, name), cwd=ROOT, start_new_session=True, **pipes
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException as error:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"worker {' '.join(args)} took over {timeout:.0f}s") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def run_workload(
    scratch: Path, workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    mode = "trace" if trace else "timed"
    args = [mode, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--smoke"] if smoke else []
    return _worker(scratch, f"{mode}-{workload}", args, seconds + 150)


def _with_units(workload: str, values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _print_report(workload: str, out: dict) -> None:
    diagnostics = out.get("diagnostics", {})
    p50, p90 = diagnostics.get("cell_ms_p50", 0), diagnostics.get("cell_ms_p90", 0)
    notes = {
        "cell_ms_p25": f"n={diagnostics.get('cell_ms_n')}; ungated p50 {p50:.3f}, p90 {p90:.3f}",
        "cell_setup_ms_p25": f"n={diagnostics.get('cell_setup_ms_n')}",
    }
    for name, metric in out["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:17s} {name:30s} {metric['value']:14.6g} {metric['unit']}{note}")
    frac = out["failed"] / out["attempted"]
    print(
        f"{workload:17s} {'cell_fail_frac':30s} {frac:14.6g}"
        f"  ({out['failed']} of {out['attempted']} checked cells)"
    )
    for failure in out["failures"]:
        print(f"{workload:17s} FAILED {failure}")


def write_digests(scratch: Path, cells) -> None:
    payload = {"seed": cells.DEFAULT_SEED, "workloads": {}}
    for workload in cells.WORKLOADS:
        args = ["digests", "--workload", workload, "--seed", str(cells.DEFAULT_SEED)]
        out = _worker(scratch, f"digests-{workload}", args, 600)
        payload["workloads"][workload] = out["digests"]
    (SUITE / "digests.json").write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, help="workload seed (default: 1317)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="timed phase length per workload (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced per-layer run instead of the timed run",
    )
    parser.add_argument("--smoke", action="store_true", help="3 cells per workload, for tests")
    parser.add_argument("--out", type=Path, default=SUITE / "out" / "record.json")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the running worker's session is
    # killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, _stop)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cells

    if args.workload is not None and args.workload not in cells.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cells.WORKLOADS)}")
    seed = args.seed if args.seed is not None else cells.DEFAULT_SEED
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    workloads = [args.workload] if args.workload else list(cells.WORKLOADS)

    scratch = SUITE / "out" / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.write_digests:
            write_digests(scratch, cells)
            return 0
        record = {
            "seed": seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "trace": bool(args.trace),
            "workloads": {},
        }
        for workload in workloads:
            out = run_workload(scratch, workload, seed, seconds, bool(args.trace), args.smoke)
            out["metrics"] = _with_units(workload, out["metrics"], declared)
            record["workloads"][workload] = out
            _print_report(workload, out)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    runs = record["workloads"].values()
    failed = sum(out["failed"] for out in runs)
    if len(workloads) == 1:
        metrics = record["workloads"][workloads[0]]["metrics"]
    else:
        metrics = {w: out["metrics"] for w, out in record["workloads"].items()}
    summary = {
        "correct": failed == 0,
        "attempted": sum(out["attempted"] for out in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
