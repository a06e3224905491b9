"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the workload registry with calibration targets;
* ``run`` — one load level of one workload; prints ground truth vs the
  eBPF-side observations;
* ``sweep`` — a full load sweep with sparkline summaries of the three
  signals (Figs. 2-4 in miniature); ``--jobs N`` fans the levels out
  across a process pool, and the on-disk result cache (disable with
  ``--no-cache``) makes re-runs compute only missing cells;
* ``serve`` — run one cell with the Prometheus export pipeline on and
  serve the rendered exposition at ``/metrics`` (``--oneshot`` prints it
  instead; ``--scrape-once`` self-scrapes over HTTP and exits — the CI
  smoke mode);
* ``correlate`` — run the blind-spot scenario pack (or one scenario with
  ``--scenario``) against a workload with the cross-layer correlator on
  and report whether each scenario produced its annotated taxonomy
  label; exits non-zero on a miss, so it doubles as the CI smoke;
* ``control`` — run the closed-loop control scenarios (surge-shed,
  stall-shed, crash-scale) against a workload: an uncontrolled arm vs a
  controlled arm driven only by windowed eBPF-side signals; exits
  non-zero when the controller never engaged;
* ``report`` — render ``results/*.json`` into markdown
  (same as ``python -m repro.analysis.report``).

``run`` and ``sweep`` accept ``--json`` for a machine-readable
``LevelResult`` dump, including the degraded-collection accounting
(``lost_records``, ``confidence``) and — when export is on — the
per-window rates/losses/confidence under ``export``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import (
    CellProgress,
    ExperimentSpec,
    ResultCache,
    default_levels,
    run_cells,
    save_sweep,
    sweep,
)
from .analysis.correlate import AGREE_HEALTHY, correlation_of
from .analysis.figures import series_table, sparkline
from .analysis.report import load_results, render_report
from .analysis.results import results_dir
from .core.config import COLLECTOR_MODES, CorrelateConfig, ExportConfig
from .ebpf.compiled import VM_TIERS
from .sim.timebase import MSEC
from .workloads import get_workload, workload_keys, WORKLOADS

__all__ = ["main"]


def _cache_from(args) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)  # None -> default results/.cache


def _print_progress(event: CellProgress) -> None:
    """One stderr line per finished cell so long sweeps are observable."""
    print(
        f"[{event.done}/{event.total}] {event.spec.label()} {event.source} "
        f"({event.cache_hits} cached, {event.elapsed_s:.1f}s)",
        file=sys.stderr,
    )


def _cmd_list(_args) -> int:
    rows = [WORKLOADS[key] for key in workload_keys()]
    print(series_table({
        "workload": [d.key for d in rows],
        "suite": [d.suite for d in rows],
        "arch": [d.app_class.__name__ for d in rows],
        "workers": [d.config.workers for d in rows],
        "cores": [d.config.cores for d in rows],
        "fail RPS": [d.paper_fail_rps for d in rows],
        "QoS ms": [d.config.qos_latency_ns / 1e6 for d in rows],
    }))
    return 0


def _spec_from_run_args(args, definition, rate) -> ExperimentSpec:
    export = None
    if getattr(args, "export_window_ms", None) is not None:
        export = ExportConfig(window_ns=int(args.export_window_ms * MSEC))
    correlate = None
    if getattr(args, "correlate_window_ms", None) is not None:
        correlate = CorrelateConfig(
            window_ns=int(args.correlate_window_ms * MSEC))
    elif getattr(args, "correlate", False):
        correlate = CorrelateConfig()
    return ExperimentSpec(
        workload=definition.key,
        offered_rps=rate,
        requests=args.requests,
        seed=args.seed,
        monitor_mode=args.monitor,
        stream_capacity=args.stream_capacity,
        vm_tier=args.vm_tier,
        export=export,
        correlate=correlate,
    )


def _cmd_run(args) -> int:
    definition = get_workload(args.workload)
    rate = args.rps if args.rps else definition.paper_fail_rps * args.load
    spec = _spec_from_run_args(args, definition, rate)
    levels, stats = run_cells([spec], jobs=args.jobs, cache=_cache_from(args))
    level = levels[0]
    if level is None:
        for error in stats.errors:
            print(f"cell failed: {error['label']}: {error['error']}",
                  file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(level.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"workload {definition.label!r} at {rate:g} offered rps "
          f"({args.requests} requests, seed {args.seed})\n")
    print(f"  achieved RPS       : {level.achieved_rps:12.1f}   (ground truth)")
    print(f"  RPS_obsv (Eq. 1)   : {level.rps_obsv:12.1f}   "
          f"({100 * abs(level.rps_obsv - level.achieved_rps) / max(level.achieved_rps, 1e-9):.2f}% off)")
    print(f"  p50 / p99 latency  : {level.p50_ns / 1e6:9.2f} / {level.p99_ns / 1e6:.2f} ms"
          f"   QoS {'VIOLATED' if level.qos_violated else 'ok'}")
    print(f"  var(dt_send) Eq. 2 : {level.send_delta_variance:12.3g} ns^2 "
          f"(dispersion {level.send_delta_cov2:.3f})")
    print(f"  poll duration      : {level.poll_mean_duration_ns / 1e6:12.3f} ms "
          f"({level.poll_count} polls)")
    print(f"  cpu utilization    : {level.utilization:12.2f}")
    if args.monitor == "stream" or level.lost_records:
        print(f"  lost records       : {level.lost_records:12d}   "
              f"(confidence {level.confidence:.4f}, corrected RPS "
              f"{level.rps_obsv_corrected:.1f})")
    if level.export is not None:
        print(f"  export             : {level.export['windows']:6d} windows, "
              f"{level.export['scrapes']} scrapes, "
              f"{level.export['bytes_rendered']} bytes rendered")
    correlation = correlation_of(level)
    if correlation is not None:
        discrepant = len(correlation.discrepancies)
        counts = ", ".join(f"{label}={count}"
                           for label, count in correlation.counts.items()
                           if count)
        print(f"  correlation        : {len(correlation.windows):6d} windows, "
              f"{discrepant} discrepant ({counts})")
    print(f"  executor           : {stats.summary()}")
    return 0


def _cmd_sweep(args) -> int:
    definition = get_workload(args.workload)
    levels = default_levels(definition, count=args.levels, high_frac=args.high)
    progress = None if args.json else _print_progress
    result = sweep(
        definition,
        levels=levels,
        requests=args.requests,
        seed=args.seed,
        jobs=args.jobs,
        cache=_cache_from(args),
        progress=progress,
        shard=args.shard,
    )
    if args.save:
        save_sweep(result, args.save)
    telemetry = result.telemetry or {}
    failed = int(telemetry.get("failed", 0))
    errors = telemetry.get("errors", [])
    if args.json:
        # Sharded runs keep positional null holes so that N shard outputs
        # union into the unsharded payload by position.  Failed cells are
        # *also* null holes, so the error list is surfaced top-level and
        # the exit code goes non-zero — a consumer must never mistake a
        # crashed cell for a not-my-shard hole.
        print(json.dumps(
            {
                "workload": result.workload,
                "levels": [
                    level.to_dict() if level is not None else None
                    for level in result.levels
                ],
                "telemetry": result.telemetry,
                "failed": failed,
                "errors": errors,
            },
            indent=2, sort_keys=True,
        ))
        if failed:
            print(f"{failed} cell(s) failed; see the 'errors' field",
                  file=sys.stderr)
            return 1
        return 0
    print(f"sweep of {definition.label!r} "
          f"(paper failure at {definition.paper_fail_rps:g} rps)\n")
    print(series_table(
        {
            "offered": result.offered,
            "achieved": result.achieved,
            "RPS_obsv": result.observed,
            "dispersion": result.dispersion,
            "poll ms": [d / 1e6 for d in result.poll_durations],
            "p99 ms": [l.p99_ns / 1e6 for l in result.completed_levels],
        },
        qos_marker=[l.qos_violated for l in result.completed_levels],
    ))
    print(f"\n  RPS_obsv    {sparkline(result.observed)}")
    print(f"  dispersion  {sparkline(result.dispersion)}")
    print(f"  poll dur.   {sparkline(result.poll_durations)}")
    fail = result.qos_failure_rps()
    print(f"\nQoS failure at offered ~{fail:g} rps" if fail
          else "\nQoS never violated in this sweep")
    if result.telemetry:
        t = result.telemetry
        print(f"executor: {t['total']} cells: {t['cache_hits']} cached, "
              f"{t['computed']} computed in {t['wall_s']:.2f}s")
    if failed:
        for error in errors:
            print(f"cell failed: {error['label']}: {error['error']}",
                  file=sys.stderr)
        print(f"{failed} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .export.parser import parse_text
    from .export.server import MetricsServer

    definition = get_workload(args.workload)
    rate = args.rps if args.rps else definition.paper_fail_rps * args.load
    args.export_window_ms = args.window_ms
    spec = _spec_from_run_args(args, definition, rate)
    levels, _stats = run_cells([spec], jobs=1, cache=None)
    export = levels[0].export
    parse_text(export["text"])
    parse_text(export["openmetrics"])

    if args.oneshot:
        print(export["openmetrics" if args.openmetrics else "text"], end="")
        return 0

    server = MetricsServer(
        lambda openmetrics: export["openmetrics" if openmetrics else "text"],
        port=args.port,
    ).start()
    try:
        if args.scrape_once:
            import urllib.request

            request = urllib.request.Request(
                server.url,
                headers={"Accept": "application/openmetrics-text"}
                if args.openmetrics else {},
            )
            with urllib.request.urlopen(request) as response:
                body = response.read().decode("utf-8")
            families = parse_text(body)
            samples = sum(len(f.samples) for f in families.values())
            print(f"scraped {len(body)} bytes from {server.url}: "
                  f"{len(families)} families, {samples} samples, "
                  f"{export['windows']} windows exported")
            return 0
        print(f"serving {export['windows']} exported windows at {server.url} "
              "(ctrl-C to stop)", file=sys.stderr)
        try:
            import time

            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            return 0
    finally:
        server.stop()


def _cmd_correlate(args) -> int:
    from .faults import SCENARIOS, run_blind_spot_cell
    from .faults import scenario as lookup_scenario

    definition = get_workload(args.workload)
    rate = args.rps if args.rps else definition.paper_fail_rps * args.load
    spec = ExperimentSpec(workload=definition.key, offered_rps=rate,
                          requests=args.requests, seed=args.seed)
    correlate = None
    if args.window_ms is not None:
        correlate = CorrelateConfig(window_ns=int(args.window_ms * MSEC))
    try:
        entries = ([lookup_scenario(args.scenario)] if args.scenario
                   else list(SCENARIOS))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    rows = []
    for entry in entries:
        _result, report, fault_report = run_blind_spot_cell(
            spec, entry, correlate=correlate)
        if entry.expected_label == AGREE_HEALTHY:
            detected = report.clean  # the control must be *only* healthy
        else:
            detected = entry.expected_label in report.labels
        rows.append((entry, report, fault_report, detected))

    if args.json:
        print(json.dumps(
            [
                {
                    "scenario": entry.key,
                    "expected_label": entry.expected_label,
                    "detected": detected,
                    "faults_applied": len(fault_report.applied),
                    "report": report.to_dict(),
                }
                for entry, report, fault_report, detected in rows
            ],
            indent=2, sort_keys=True,
        ))
        return 0 if all(detected for *_rest, detected in rows) else 1

    print(f"blind-spot scenarios on {definition.label!r} at {rate:g} "
          f"offered rps ({spec.requests} requests, seed {spec.seed})\n")
    for entry, report, _fault_report, detected in rows:
        verdict = "ok  " if detected else "MISS"
        counts = ", ".join(f"{label}={count}"
                           for label, count in report.counts.items() if count)
        print(f"  [{verdict}] {entry.key:<18} expected "
              f"{entry.expected_label:<14} got {counts}")
    if args.verbose:
        for _entry, report, _fault_report, _detected in rows:
            print()
            print(report.summary())
    missed = [entry.key for entry, *_rest, detected in rows if not detected]
    if missed:
        print(f"\n{len(missed)} scenario(s) missed their expected label: "
              f"{', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_control(args) -> int:
    from .control import SCENARIO_KEYS, run_scenario, scenario_of

    try:
        keys = ([scenario_of(args.scenario).key] if args.scenario
                else list(SCENARIO_KEYS))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    records = [
        run_scenario(args.workload, key, requests=args.requests,
                     seed=args.seed)
        for key in keys
    ]

    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0 if all((r["control"] or {}).get("engagements", 0)
                        for r in records) else 1

    definition = get_workload(args.workload)
    print(f"closed-loop control scenarios on {definition.label!r} "
          f"({args.requests} requests per arm, seed {args.seed})\n")
    for record in records:
        control = record["control"] or {}
        vr = record["violation_ratio"]
        gr = record["goodput_ratio"]
        print(f"  {record['scenario']:<12} policy={record['policy']:<6} "
              f"violations {record['uncontrolled']['qos_violations']:>4d} -> "
              f"{record['controlled']['qos_violations']:<4d} "
              f"(ratio {'n/a' if vr is None else format(vr, '.3f')})  "
              f"goodput ratio {'n/a' if gr is None else format(gr, '.3f')}  "
              f"engagements={control.get('engagements', 0)} "
              f"rejected={control.get('rejected', 0)} "
              f"respawned={control.get('respawned', 0)}")
        if args.verbose:
            for action in control.get("actions", []):
                detail = ", ".join(
                    f"{key}={value}" for key, value in sorted(action.items())
                    if key not in ("action", "window", "t_ns"))
                print(f"      window {action['window']:>3d} "
                      f"t={action['t_ns'] / 1e6:10.2f}ms "
                      f"{action['action']:<10} {detail}")
    missed = [r["scenario"] for r in records
              if not (r["control"] or {}).get("engagements", 0)]
    if missed:
        print(f"\ncontroller never engaged on: {', '.join(missed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    directory = results_dir() if args.results is None else args.results
    print(render_report(load_results(directory)))
    return 0


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return jobs


def _add_monitor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--monitor", choices=COLLECTOR_MODES,
                        default="native",
                        help="collection strategy (default native)")
    parser.add_argument("--vm-tier", choices=VM_TIERS,
                        default="compiled",
                        help="eBPF VM tier for vm/stream monitors")
    parser.add_argument("--stream-capacity", type=_positive_int, default=65536,
                        help="perf ring capacity for --monitor stream")


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent cells (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default results/.cache)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable LevelResult JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ebpf-observer: in-kernel request-level observability "
                    "(ISPASS 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the workload registry")

    run_parser = sub.add_parser("run", help="run one load level")
    run_parser.add_argument("workload", choices=workload_keys())
    run_parser.add_argument("--rps", type=float, default=None,
                            help="offered RPS (overrides --load)")
    run_parser.add_argument("--load", type=float, default=0.6,
                            help="fraction of the paper failure RPS (default 0.6)")
    run_parser.add_argument("--requests", type=int, default=3000)
    run_parser.add_argument("--seed", type=int, default=1317)
    _add_monitor_flags(run_parser)
    run_parser.add_argument("--export-window-ms", type=float, default=None,
                            metavar="MS",
                            help="enable the Prometheus export pipeline with "
                                 "this window/scrape interval (sim time)")
    run_parser.add_argument("--correlate", action="store_true",
                            help="enable the cross-layer correlator with the "
                                 "default window")
    run_parser.add_argument("--correlate-window-ms", type=float, default=None,
                            metavar="MS",
                            help="enable the correlator with this window "
                                 "(sim time; implies --correlate)")
    _add_executor_flags(run_parser)

    sweep_parser = sub.add_parser("sweep", help="run a full load sweep")
    sweep_parser.add_argument("workload", choices=workload_keys())
    sweep_parser.add_argument("--levels", type=int, default=10)
    sweep_parser.add_argument("--high", type=float, default=1.1,
                              help="top level as a fraction of failure RPS")
    sweep_parser.add_argument("--requests", type=int, default=2000)
    sweep_parser.add_argument("--seed", type=int, default=1317)
    sweep_parser.add_argument("--save", default=None, metavar="NAME",
                              help="persist the sweep as results/NAME.json")
    sweep_parser.add_argument("--shard", default=None, metavar="i/N",
                              help="compute only shard i of N (1-based); the N "
                                   "shard outputs union bit-identically into "
                                   "the unsharded sweep")
    _add_executor_flags(sweep_parser)

    serve_parser = sub.add_parser(
        "serve", help="run one cell with export on and serve /metrics")
    serve_parser.add_argument("workload", choices=workload_keys())
    serve_parser.add_argument("--rps", type=float, default=None,
                              help="offered RPS (overrides --load)")
    serve_parser.add_argument("--load", type=float, default=0.6,
                              help="fraction of the paper failure RPS")
    serve_parser.add_argument("--requests", type=int, default=3000)
    serve_parser.add_argument("--seed", type=int, default=1317)
    _add_monitor_flags(serve_parser)
    serve_parser.add_argument("--window-ms", type=float, default=100.0,
                              help="export window / scrape interval in sim "
                                   "milliseconds (default 100)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="listen port (default: ephemeral)")
    serve_parser.add_argument("--openmetrics", action="store_true",
                              help="emit the OpenMetrics dialect (exemplars)")
    serve_parser.add_argument("--oneshot", action="store_true",
                              help="print the exposition text and exit")
    serve_parser.add_argument("--scrape-once", action="store_true",
                              help="serve, self-scrape over HTTP, validate, "
                                   "exit (CI smoke mode)")

    correlate_parser = sub.add_parser(
        "correlate",
        help="run blind-spot scenarios with the cross-layer correlator")
    correlate_parser.add_argument("workload", choices=workload_keys())
    correlate_parser.add_argument("--scenario", default=None,
                                  help="run only this scenario "
                                       "(default: the whole pack)")
    correlate_parser.add_argument("--rps", type=float, default=None,
                                  help="offered RPS (overrides --load)")
    correlate_parser.add_argument("--load", type=float, default=0.5,
                                  help="fraction of the paper failure RPS "
                                       "(default 0.5)")
    correlate_parser.add_argument("--requests", type=int, default=600)
    correlate_parser.add_argument("--seed", type=int, default=1317)
    correlate_parser.add_argument("--window-ms", type=float, default=None,
                                  metavar="MS",
                                  help="correlation window in sim ms "
                                       "(default: a tenth of the run)")
    correlate_parser.add_argument("--json", action="store_true",
                                  help="emit per-scenario reports as JSON")
    correlate_parser.add_argument("--verbose", action="store_true",
                                  help="print each scenario's full window "
                                       "summary")

    control_parser = sub.add_parser(
        "control",
        help="run the closed-loop control scenarios (shed / scale)")
    control_parser.add_argument("workload", choices=workload_keys())
    control_parser.add_argument("--scenario", default=None,
                                help="run only this scenario "
                                     "(default: all three)")
    control_parser.add_argument("--requests", type=int, default=900,
                                help="requests per arm (default 900)")
    control_parser.add_argument("--seed", type=int, default=1317)
    control_parser.add_argument("--json", action="store_true",
                                help="emit per-scenario records as JSON")
    control_parser.add_argument("--verbose", action="store_true",
                                help="print the controller's action log")

    report_parser = sub.add_parser("report", help="render results/ to markdown")
    report_parser.add_argument("--results", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "correlate": _cmd_correlate,
        "control": _cmd_control,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
