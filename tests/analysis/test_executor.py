"""Tests for the parallel experiment executor and its typed spec API."""

import json

import pytest

from repro.analysis import (
    CellProgress,
    ExperimentSpec,
    ResultCache,
    execute_cell,
    run_cells,
    sweep,
)
from repro.kernel import AMD_EPYC_7302, INTEL_XEON_E5_2620
from repro.net import NetemConfig
from repro.workloads import get_workload


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec(workload="silo", offered_rps=500)
        assert spec.requests == 3000
        assert spec.seed == 1317
        assert spec.machine is AMD_EPYC_7302
        assert spec.monitor_mode == "native"
        assert spec.definition is get_workload("silo")
        assert spec.label() == "silo@500"

    def test_frozen_and_hashable(self):
        spec = ExperimentSpec(workload="silo", offered_rps=500)
        with pytest.raises(AttributeError):
            spec.offered_rps = 600
        assert spec == ExperimentSpec(workload="silo", offered_rps=500.0)
        assert len({spec, ExperimentSpec(workload="silo", offered_rps=500)}) == 1

    def test_machine_accepts_name(self):
        spec = ExperimentSpec(workload="silo", offered_rps=500,
                              machine="intel-xeon-e5-2620")
        assert spec.machine is INTEL_XEON_E5_2620

    def test_validation(self):
        with pytest.raises(KeyError):
            ExperimentSpec(workload="nginx", offered_rps=500)
        with pytest.raises(ValueError):
            ExperimentSpec(workload="silo", offered_rps=0)
        with pytest.raises(ValueError):
            ExperimentSpec(workload="silo", offered_rps=500, requests=0)
        with pytest.raises(ValueError):
            ExperimentSpec(workload="silo", offered_rps=500, monitor_mode="jit")
        with pytest.raises(KeyError):
            ExperimentSpec(workload="silo", offered_rps=500, machine="cray-1")

    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            workload="silo",
            offered_rps=700,
            requests=250,
            seed=7,
            machine=INTEL_XEON_E5_2620,
            client_to_server=NetemConfig.paper_impaired(),
            monitor_mode="vm",
            charge_cost=True,
        )
        payload = json.loads(json.dumps(spec.to_dict()))  # via real JSON
        rebuilt = ExperimentSpec.from_dict(payload)
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_cache_key_stability_and_sensitivity(self):
        spec = ExperimentSpec(workload="silo", offered_rps=500, seed=7)
        assert spec.cache_key() == ExperimentSpec(
            workload="silo", offered_rps=500.0, seed=7
        ).cache_key()
        changed = [
            spec.replace(seed=8),
            spec.replace(offered_rps=501),
            spec.replace(requests=2999),
            spec.replace(client_to_server=NetemConfig.paper_impaired()),
            spec.replace(monitor_mode="vm"),
            spec.replace(machine=INTEL_XEON_E5_2620),
        ]
        keys = {spec.cache_key()} | {c.cache_key() for c in changed}
        assert len(keys) == len(changed) + 1  # all distinct

    def test_grid(self):
        specs = ExperimentSpec.grid(["silo", "xapian"], [400, 800], seed=3)
        assert len(specs) == 4
        assert {s.workload for s in specs} == {"silo", "xapian"}
        assert all(s.seed == 3 for s in specs)

    def test_seed_sequence_matches_legacy_derivation(self):
        from repro.sim import SeedSequence

        spec = ExperimentSpec(workload="silo", offered_rps=500, seed=9)
        expected = SeedSequence(9).child("silo@500")
        assert spec.seed_sequence().seed == expected.seed


class TestParallelDeterminism:
    def test_parallel_equals_serial_on_grid(self):
        """2-workload x 3-level grid: jobs=4 is bit-identical to jobs=1."""
        specs = ExperimentSpec.grid(
            ["silo", "xapian"], [300, 600, 900], requests=120, seed=11
        )
        serial, serial_stats = run_cells(specs, jobs=1)
        parallel, parallel_stats = run_cells(specs, jobs=4)
        assert serial_stats.computed == parallel_stats.computed == 6
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_execute_cell_matches_run_cells(self):
        spec = ExperimentSpec(workload="silo", offered_rps=500, requests=120)
        alone = execute_cell(spec)
        batched, _ = run_cells([spec, spec.replace(seed=2)], jobs=1)
        assert batched[0].to_dict() == alone.to_dict()


class TestResultCache:
    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(workload="silo", offered_rps=500, requests=120)
        fresh = execute_cell(spec)
        cache.put(spec, fresh)
        assert cache.get(spec).to_dict() == fresh.to_dict()

    def test_miss_compute_then_warm_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = ExperimentSpec.grid(["silo"], [400, 800], requests=100)
        cold, cold_stats = run_cells(specs, cache=cache)
        assert (cold_stats.computed, cold_stats.cache_hits) == (2, 0)
        warm, warm_stats = run_cells(specs, cache=cache)
        assert (warm_stats.computed, warm_stats.cache_hits) == (0, 2)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_warm_sixteen_cell_sweep_recomputes_nothing(self, tmp_path):
        """Acceptance: a warm-cache re-run of a 16-cell sweep computes zero
        cells, verified via the telemetry callback's cache-hit counter."""
        cache = ResultCache(tmp_path)
        levels = [200 + 100 * i for i in range(8)]
        specs = ExperimentSpec.grid(["silo", "xapian"], levels, requests=80)
        assert len(specs) == 16
        _, cold_stats = run_cells(specs, cache=cache)
        assert cold_stats.computed == 16
        events = []
        warm, warm_stats = run_cells(specs, jobs=4, cache=cache,
                                     progress=events.append)
        assert warm_stats.computed == 0
        assert warm_stats.cache_hits == 16
        assert events[-1].cache_hits == 16
        assert all(e.source == "cache" for e in events)
        assert all(r is not None for r in warm)

    def test_changed_fields_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(workload="silo", offered_rps=500, requests=100)
        run_cells([spec], cache=cache)
        for changed in (
            spec.replace(seed=spec.seed + 1),
            spec.replace(offered_rps=spec.offered_rps + 50),
            spec.replace(client_to_server=NetemConfig.paper_impaired(),
                         server_to_client=NetemConfig.paper_impaired()),
        ):
            assert cache.get(changed) is None
            _, stats = run_cells([changed], cache=cache)
            assert (stats.computed, stats.cache_hits) == (1, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(workload="silo", offered_rps=500, requests=100)
        result = execute_cell(spec)
        path = cache.put(spec, result)
        path.write_text("{not json")
        assert cache.get(spec) is None
        _, stats = run_cells([spec], cache=cache)
        assert stats.computed == 1  # recomputed and re-stored
        assert cache.get(spec).to_dict() == result.to_dict()

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(workload="silo", offered_rps=500, requests=100)
        cache.put(spec, execute_cell(spec))
        assert len(cache) == 1
        assert cache.invalidate(spec) is True
        assert cache.invalidate(spec) is False
        cache.put(spec, execute_cell(spec))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestTelemetry:
    def test_progress_events(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = ExperimentSpec.grid(["silo"], [400, 800, 1200], requests=100)
        run_cells(specs[:1], cache=cache)  # pre-warm one cell
        events = []
        _, stats = run_cells(specs, cache=cache, progress=events.append)
        assert len(events) == 3
        assert all(isinstance(e, CellProgress) for e in events)
        assert [e.done for e in events] == [1, 2, 3]
        assert events[0].source == "cache"  # hits served before computes
        assert {e.source for e in events[1:]} == {"computed"}
        assert all(e.total == 3 for e in events)
        assert events[-1].elapsed_s >= 0.0
        assert stats.cache_hits == 1 and stats.computed == 2
        assert "3 cells" in stats.summary()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_cells([], jobs=0)


class TestSweepIntegration:
    def test_sweep_parallel_cached_equals_plain(self, tmp_path):
        d = get_workload("silo")
        plain = sweep(d, levels=[400, 800], requests=100)
        fancy = sweep(d, levels=[400, 800], requests=100, jobs=4,
                      cache=tmp_path / "cache")
        assert [l.to_dict() for l in plain.levels] == [
            l.to_dict() for l in fancy.levels
        ]
        assert fancy.telemetry["computed"] == 2
        rerun = sweep(d, levels=[400, 800], requests=100,
                      cache=tmp_path / "cache")
        assert rerun.telemetry["cache_hits"] == 2
        assert rerun.telemetry["computed"] == 0

    def test_sweep_accepts_workload_key(self):
        result = sweep("silo", levels=[400], requests=100)
        assert result.workload == "silo"
        assert result.telemetry["total"] == 1


class TestStreamModeSpec:
    def test_round_trip_and_cache_key(self):
        spec = ExperimentSpec(workload="silo", offered_rps=100,
                              monitor_mode="stream", stream_capacity=128)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # capacity shapes the outcome in stream mode -> must shape the key
        assert spec.cache_key() != spec.replace(stream_capacity=256).cache_key()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(workload="silo", offered_rps=100, stream_capacity=0)
        with pytest.raises(ValueError):
            ExperimentSpec(workload="silo", offered_rps=100, monitor_mode="bogus")

    def test_stream_cell_populates_loss_fields(self):
        result = execute_cell(ExperimentSpec(
            workload="silo", offered_rps=200, requests=120,
            monitor_mode="stream",
        ))
        # Healthy consumer (drain-at-snapshot), ample buffer: no loss.
        assert result.lost_records == 0
        assert result.confidence == 1.0
        assert result.rps_obsv_corrected == pytest.approx(result.rps_obsv)
