"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "data-caching" in out
    assert "triton-grpc" in out
    assert "62000" in out


def test_run(capsys):
    assert main(["run", "silo", "--load", "0.5", "--requests", "300",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "RPS_obsv" in out
    assert "QoS ok" in out


def test_run_explicit_rps(capsys):
    assert main(["run", "silo", "--rps", "700", "--requests", "200",
                 "--no-cache"]) == 0
    assert "700" in capsys.readouterr().out


def test_run_vm_monitor(capsys):
    assert main(["run", "silo", "--load", "0.4", "--requests", "150",
                 "--monitor", "vm", "--no-cache"]) == 0
    assert "var(dt_send)" in capsys.readouterr().out


def test_run_json(capsys):
    assert main(["run", "silo", "--rps", "600", "--requests", "150",
                 "--no-cache", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "silo"
    assert payload["offered_rps"] == 600.0
    assert payload["completed"] == 150


def test_run_cache_round_trip(tmp_path, capsys):
    args = ["run", "silo", "--rps", "600", "--requests", "150",
            "--cache-dir", str(tmp_path), "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert list(tmp_path.glob("*.json"))  # entry actually written


def test_run_stream_json_reports_degraded_accounting(capsys):
    """CLI JSON, LevelResult and the exporter must agree on lost-record
    accounting: the stream-mode dump carries the same fields the exporter
    renders."""
    assert main(["run", "silo", "--rps", "600", "--requests", "150",
                 "--monitor", "stream", "--stream-capacity", "4",
                 "--no-cache", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lost_records"] > 0
    assert 0.0 < payload["confidence"] < 1.0
    assert payload["rps_obsv_corrected"] >= payload["rps_obsv"]


def test_run_stream_text_prints_lost_records(capsys):
    assert main(["run", "silo", "--rps", "600", "--requests", "150",
                 "--monitor", "stream", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "lost records" in out
    assert "confidence" in out


def test_run_export_window_emits_payload(capsys):
    assert main(["run", "silo", "--rps", "600", "--requests", "200",
                 "--export-window-ms", "20", "--monitor", "vm",
                 "--no-cache", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    export = payload["export"]
    assert export["windows"] >= 2
    assert export["window_ns"] == 20_000_000
    assert len(export["window_rps"]) == export["windows"]
    assert len(export["window_lost"]) == export["windows"]
    assert len(export["window_confidence"]) == export["windows"]
    assert export["text"].startswith("# HELP")
    assert export["openmetrics"].rstrip("\n").endswith("# EOF")
    # Exporter and LevelResult agree on the degraded accounting.
    assert sum(export["window_lost"]) == payload["lost_records"]


def test_run_export_and_correlate_share_one_cell(capsys):
    assert main(["run", "silo", "--rps", "600", "--requests", "200",
                 "--export-window-ms", "20", "--correlate-window-ms", "10",
                 "--monitor", "vm", "--no-cache", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    export = payload["export"]
    assert export["windows"] >= 2
    assert export["text"].startswith("# HELP")
    windows = payload["extra"]["correlation"]["windows"]
    assert windows[0]["window_start_ns"] == 0
    assert windows[-1]["window_end_ns"] == payload["sim_duration_ns"]
    for left, right in zip(windows, windows[1:]):
        assert left["window_end_ns"] == right["window_start_ns"]


def test_run_export_cache_round_trip(tmp_path, capsys):
    args = ["run", "silo", "--rps", "600", "--requests", "150",
            "--export-window-ms", "25", "--cache-dir", str(tmp_path),
            "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["export"]["windows"] >= 2


def test_serve_oneshot_prints_parseable_exposition(capsys):
    from repro.export.parser import parse_text

    assert main(["serve", "silo", "--rps", "600", "--requests", "150",
                 "--window-ms", "20", "--oneshot"]) == 0
    families = parse_text(capsys.readouterr().out)
    assert "repro_deltas" in families
    assert "repro_delta_ns" in families


def test_serve_oneshot_openmetrics(capsys):
    assert main(["serve", "silo", "--rps", "600", "--requests", "150",
                 "--window-ms", "20", "--oneshot", "--openmetrics"]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith("# EOF")


def test_serve_scrape_once_round_trips_over_http(capsys):
    assert main(["serve", "silo", "--rps", "600", "--requests", "150",
                 "--window-ms", "20", "--scrape-once"]) == 0
    out = capsys.readouterr().out
    assert "scraped" in out
    assert "families" in out
    assert "windows exported" in out


def test_sweep(capsys):
    assert main(["sweep", "silo", "--levels", "4", "--requests", "200",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "dispersion" in out
    assert "QoS failure at offered" in out or "never violated" in out
    assert "executor:" in out  # telemetry summary line


def test_sweep_jobs_matches_serial(tmp_path, capsys):
    base = ["sweep", "silo", "--levels", "3", "--requests", "150", "--json"]
    assert main(base + ["--no-cache"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(base + ["--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial["levels"] == parallel["levels"]
    assert parallel["telemetry"]["computed"] == 3
    # warm re-run: every cell served from cache
    assert main(base + ["--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["levels"] == serial["levels"]
    assert warm["telemetry"]["cache_hits"] == 3
    assert warm["telemetry"]["computed"] == 0


def test_jobs_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "silo", "--jobs", "0"])
    assert "must be >= 1" in capsys.readouterr().err


def test_sweep_save_then_report(tmp_path, capsys, monkeypatch):
    import repro.analysis.results as results_module

    monkeypatch.setattr(
        results_module, "results_dir", lambda base=None: tmp_path
    )
    assert main(["sweep", "silo", "--levels", "3", "--requests", "150",
                 "--no-cache", "--save", "smoke_sweep"]) == 0
    capsys.readouterr()
    assert (tmp_path / "smoke_sweep.json").exists()
    assert main(["report", "--results", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Sweep `smoke_sweep` — silo" in out
    assert "computed in" in out  # telemetry rendered


def test_report_empty(tmp_path, capsys):
    directory = tmp_path / "results"
    directory.mkdir()
    assert main(["report", "--results", str(directory)]) == 0
    assert "No renderable results" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nginx"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
