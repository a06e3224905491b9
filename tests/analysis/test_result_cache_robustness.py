"""Robustness tests for the on-disk :class:`ResultCache`.

A result cache must never be able to sink a sweep: corrupt, truncated,
or foreign entries are misses that trigger recompute (and self-heal via
the write-back), and concurrent parent-side ``put`` of the same spec
from two batches is last-writer-wins through the atomic rename — a
reader sees one complete entry or the other, never a torn file.
"""

import json
import os
import threading

import pytest

from repro.analysis import ExperimentSpec, run_cells
from repro.analysis.executor import ResultCache


def _spec(rps=900.0):
    return ExperimentSpec(workload="silo", offered_rps=rps, requests=100)


@pytest.fixture()
def warm_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    results, stats = run_cells([spec], jobs=1, cache=cache)
    assert stats.computed == 1
    return cache, spec, results[0]


class TestCorruptEntries:
    @pytest.mark.parametrize("mutate", [
        lambda path: path.write_text(""),                       # truncated to nothing
        lambda path: path.write_text("{\"result\": "),          # cut mid-JSON
        lambda path: path.write_text("not json"),               # garbage
        lambda path: path.write_text("{\"spec\": {}}"),         # missing result
        lambda path: path.write_text(json.dumps({"result": {"workload": "x"}})),
    ], ids=["empty", "truncated", "garbage", "missing-key", "wrong-shape"])
    def test_corrupt_entry_recomputes_not_crashes(self, warm_cache, mutate):
        cache, spec, baseline = warm_cache
        path = cache.path_for(spec)
        mutate(path)

        results, stats = run_cells([spec], jobs=1, cache=cache)
        assert stats.cache_hits == 0
        assert stats.computed == 1  # recomputed, batch survived
        assert results[0].to_dict() == baseline.to_dict()
        # ... and the recompute healed the entry in place.
        assert cache.get(spec).to_dict() == baseline.to_dict()

    def test_unreadable_entry_is_a_miss(self, warm_cache):
        cache, spec, baseline = warm_cache
        path = cache.path_for(spec)
        path.chmod(0o000)
        try:
            if os.access(path, os.R_OK):  # running as root: chmod is moot
                pytest.skip("cannot drop read permission under this uid")
            assert cache.get(spec) is None
        finally:
            path.chmod(0o644)

    def test_miss_counters_track_corruption(self, warm_cache):
        cache, spec, _ = warm_cache
        before = cache.stats()
        cache.path_for(spec).write_text("broken")
        assert cache.get(spec) is None
        after = cache.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]


class TestConcurrentPuts:
    def test_same_spec_put_is_last_writer_wins(self, tmp_path):
        """Two batches putting the same spec race on one entry path; the
        atomic rename guarantees every concurrent reader observes a
        complete, parseable entry throughout."""
        cache = ResultCache(tmp_path)
        spec = _spec()
        (result,), _ = run_cells([spec], jobs=1, cache=None)

        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                entry = cache.get(spec)
                if entry is not None and entry.to_dict() != result.to_dict():
                    torn.append(entry)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                cache.put(spec, result)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert torn == []
        assert cache.get(spec).to_dict() == result.to_dict()
        # No stray temp files: every put either fully replaced the entry
        # or never became visible.
        assert [p.name for p in tmp_path.iterdir()
                if not p.name.endswith(".json")] == []

    def test_two_batches_share_one_entry(self, tmp_path):
        """Sequential 'concurrent' batches (the parent-side put path):
        both write the same key, the second run reads what the first
        wrote, and only one file ever exists."""
        spec = _spec()
        cache_a = ResultCache(tmp_path)
        cache_b = ResultCache(tmp_path)
        (res_a,), stats_a = run_cells([spec], jobs=1, cache=cache_a)
        (res_b,), stats_b = run_cells([spec], jobs=1, cache=cache_b)
        assert stats_a.computed == 1
        assert stats_b.cache_hits == 1 and stats_b.computed == 0
        assert res_a.to_dict() == res_b.to_dict()
        assert len(cache_a) == 1
