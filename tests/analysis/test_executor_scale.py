"""Tests for the fleet-scale executor path: sharding, result spill,
bounded-inflight submission, worker-crash recovery, and telemetry.

The invariant under test everywhere: every fleet-scale knob is purely an
execution-strategy choice — ``jobs=N``, ``shard="i/N"`` and ``spill=...``
all produce :class:`LevelResult`\\ s bit-identical to the serial
in-memory path.
"""

import json
import multiprocessing

import pytest

from repro.analysis import ExperimentSpec, run_cells
from repro.analysis.executor import ResultCache, ResultSpill, parse_shard
from repro.analysis.executor import pool as pool_mod
from repro.ebpf import clear_translation_cache
from repro.ebpf import translation as translation_mod

#: Worker monkeypatching and inherited translations need forked workers.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs the fork start method",
)


def _grid(cells=6, requests=120):
    rates = [800.0 + 400.0 * i for i in range(cells // 2)]
    return ExperimentSpec.grid(["silo", "xapian"], rates, requests=requests,
                               monitor_mode="vm")


def _dicts(results):
    return [r.to_dict() if r is not None else None for r in results]


def _one_cell_per_workload(specs):
    return list({spec.workload: spec for spec in specs}.values())


def _distinct_translations(specs):
    """Translations of one cell per workload, run in-process on a
    cleared cache: the programs one worker translates from cold."""
    clear_translation_cache()
    _, stats = run_cells(_one_cell_per_workload(specs), jobs=1)
    return stats.translation["translations"]


@pytest.fixture(scope="module")
def serial_baseline():
    specs = _grid()
    results, stats = run_cells(specs, jobs=1)
    assert stats.failed == 0
    return specs, _dicts(results)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard(None) is None
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("3/8") == (3, 8)
        assert parse_shard((2, 4)) == (2, 4)
        for bad in ("0/4", "5/4", "x/4", "3", "4/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shard_union_is_bit_identical(self, serial_baseline):
        specs, baseline = serial_baseline
        union = [None] * len(specs)
        for i in (1, 2, 3):
            results, stats = run_cells(specs, jobs=1, shard=f"{i}/3")
            assert stats.shard == f"{i}/3"
            for pos, result in enumerate(results):
                owned = pos % 3 == i - 1
                assert (result is not None) == owned
                if owned:
                    assert union[pos] is None  # shards never overlap
                    union[pos] = result
        assert _dicts(union) == baseline

    def test_shard_totals_partition_the_batch(self, serial_baseline):
        specs, _ = serial_baseline
        totals = []
        for i in (1, 2):
            _, stats = run_cells(specs, jobs=1, shard=f"{i}/2")
            totals.append(stats.total)
        assert sum(totals) == len(specs)

    def test_sharded_cache_interoperates(self, tmp_path, serial_baseline):
        """Shard runs fill the result cache; the unsharded rerun is pure
        cache hits and still bit-identical."""
        specs, baseline = serial_baseline
        cache = ResultCache(tmp_path)
        for i in (1, 2):
            run_cells(specs, jobs=1, shard=f"{i}/2", cache=cache)
        results, stats = run_cells(specs, jobs=1, cache=cache)
        assert stats.computed == 0
        assert stats.cache_hits == len(specs)
        assert _dicts(results) == baseline


class TestSpill:
    def test_spill_materializes_bit_identical(self, tmp_path, serial_baseline):
        specs, baseline = serial_baseline
        spill, stats = run_cells(specs, jobs=1,
                                 spill=tmp_path / "batch.jsonl")
        assert isinstance(spill, ResultSpill)
        assert stats.spilled == len(specs)
        assert len(spill.summaries) == len(specs)
        assert _dicts(spill.materialize()) == baseline

    def test_spill_file_is_line_oriented_json(self, tmp_path, serial_baseline):
        specs, _ = serial_baseline
        spill, _ = run_cells(specs[:3], jobs=1,
                             spill=tmp_path / "batch.jsonl")
        lines = spill.path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"index", "result"}

    def test_spill_random_access_and_iteration(self, tmp_path, serial_baseline):
        specs, baseline = serial_baseline
        spill, _ = run_cells(specs, jobs=1, spill=tmp_path / "b.jsonl")
        assert spill.get(2).to_dict() == baseline[2]
        assert spill.get(len(specs) + 5) is None
        streamed = dict(spill.iter_results())
        assert _dicts([streamed[i] for i in range(len(specs))]) == baseline

    def test_sharded_spills_union(self, tmp_path, serial_baseline):
        specs, baseline = serial_baseline
        merged = [None] * len(specs)
        for i in (1, 2):
            spill, _ = run_cells(specs, jobs=1, shard=f"{i}/2",
                                 spill=tmp_path / f"shard{i}.jsonl")
            for pos, result in spill.iter_results():
                merged[pos] = result
        assert _dicts(merged) == baseline


class TestBoundedInflight:
    def test_max_inflight_bounds_outstanding_futures(self, serial_baseline,
                                                     monkeypatch):
        specs, baseline = serial_baseline
        observed = []
        real_submit = pool_mod.ProcessPoolExecutor.submit

        def counting_submit(self, fn, *args, **kwargs):
            future = real_submit(self, fn, *args, **kwargs)
            pending = sum(1 for item in getattr(self, "_pending_work_items",
                                                {}).values() if item)
            observed.append(pending)
            return future

        monkeypatch.setattr(pool_mod.ProcessPoolExecutor, "submit",
                            counting_submit)
        results, _ = run_cells(specs, jobs=2)
        assert _dicts(results) == baseline
        # Never more than 2 x jobs of the 6 cells queued at once: pickling
        # the whole batch up front would queue all 6.
        assert observed and max(observed) <= 4


class TestCrashRecovery:
    @fork_only
    def test_worker_crash_is_retried_in_process(self, serial_baseline,
                                                monkeypatch):
        specs, baseline = serial_baseline
        real_worker = pool_mod._cell_worker

        def flaky_worker(payload):
            if payload["offered_rps"] == specs[1].offered_rps and \
                    payload["workload"] == specs[1].workload:
                raise RuntimeError("simulated worker death")
            return real_worker(payload)

        monkeypatch.setattr(pool_mod, "_cell_worker", flaky_worker)
        results, stats = run_cells(specs, jobs=2)
        assert stats.failed == 0
        assert stats.retried >= 1
        assert stats.computed == len(specs)
        assert _dicts(results) == baseline  # retry is bit-identical

    def test_unrecoverable_cell_reported_not_fatal(self, serial_baseline,
                                                   monkeypatch):
        """A cell that fails even on the in-process retry is recorded in
        the stats with its position left ``None`` — the rest of the batch
        survives (serial path: one attempt, same reporting)."""
        specs, baseline = serial_baseline
        real_execute = pool_mod.execute_cell

        def deterministic_bug(spec, **kwargs):
            if spec.offered_rps == specs[2].offered_rps and \
                    spec.workload == specs[2].workload:
                raise ValueError("cell bug")
            return real_execute(spec, **kwargs)

        monkeypatch.setattr(pool_mod, "execute_cell", deterministic_bug)
        results, stats = run_cells(specs, jobs=1)
        assert stats.failed == 1
        assert stats.computed == len(specs) - 1
        assert results[2] is None
        assert [r for i, r in enumerate(_dicts(results)) if i != 2] == \
               [b for i, b in enumerate(baseline) if i != 2]
        (error,) = stats.errors
        assert error["index"] == 2
        assert "ValueError" in error["error"]
        assert error["label"] == specs[2].label()


class TestTelemetry:
    def test_translation_counters_aggregate_across_workers(self,
                                                           serial_baseline):
        """A fleet started from a cold parent translates each program at
        most once per worker, and the counters its workers report reach
        the parent."""
        specs, baseline = serial_baseline
        distinct = _distinct_translations(specs)
        assert distinct >= 1
        clear_translation_cache()

        results, stats = run_cells(specs, jobs=2)
        assert _dicts(results) == baseline
        assert 1 <= stats.translation["translations"] <= 2 * distinct

    @fork_only
    def test_forked_fleet_inherits_parent_translations(self, serial_baseline):
        specs, baseline = serial_baseline
        run_cells(_one_cell_per_workload(specs), jobs=1)

        results, stats = run_cells(specs, jobs=2)
        assert _dicts(results) == baseline
        assert stats.translation["translations"] == 0
        assert stats.translation["misses"] == 0

    @fork_only
    def test_forked_fleet_inherits_parent_verdicts(self, serial_baseline):
        """Workers forked after warm in-process cells walk the verifier
        over nothing; forked from a cleared cache, each worker walks each
        distinct program at most once."""
        specs, baseline = serial_baseline
        clear_translation_cache()
        _, warm = run_cells(_one_cell_per_workload(specs), jobs=1)
        distinct = warm.translation["verified"]
        assert distinct >= 1

        results, stats = run_cells(specs, jobs=2)
        assert _dicts(results) == baseline
        assert stats.translation["verified"] == 0

        clear_translation_cache()
        results, stats = run_cells(specs, jobs=2)
        assert _dicts(results) == baseline
        assert 1 <= stats.translation["verified"] <= 2 * distinct

    @fork_only
    def test_fleet_reports_declined_programs(self, serial_baseline,
                                             monkeypatch):
        """Programs a fleet hands to the reference VM show up in the
        batch telemetry, and the results do not change."""
        specs, baseline = serial_baseline
        monkeypatch.setattr(translation_mod, "translate",
                            lambda insns, ctx_size: None)
        clear_translation_cache()
        try:
            results, stats = run_cells(specs, jobs=2)
        finally:
            clear_translation_cache()
        assert _dicts(results) == baseline
        counters = stats.translation
        assert counters["declined"] >= 1
        assert counters["declined"] == counters["hits"] + counters["misses"]

    def test_result_cache_counters_in_stats(self, tmp_path, serial_baseline):
        specs, _ = serial_baseline
        cache = ResultCache(tmp_path / "rc")
        _, cold = run_cells(specs, jobs=1, cache=cache)
        assert cold.result_cache == {
            "hits": 0, "misses": len(specs), "puts": len(specs),
        }
        _, warm = run_cells(specs, jobs=1, cache=cache)
        assert warm.result_cache == {
            "hits": len(specs), "misses": 0, "puts": 0,
        }

    def test_stats_to_dict_is_json_serializable(self, serial_baseline):
        specs, _ = serial_baseline
        _, stats = run_cells(specs[:2], jobs=1)
        payload = json.loads(json.dumps(stats.to_dict()))
        for key in ("total", "cache_hits", "computed", "wall_s", "failed",
                    "retried", "errors", "shard", "spilled", "translation",
                    "result_cache"):
            assert key in payload
