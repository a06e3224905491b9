"""In-process cells share compiled translations and nothing else.

Every cell builds its own kernel, maps and ``BPF`` objects, but loads the
same handful of programs.  The process-wide translation cache keys the
compiled tier on the program's wire encoding alone, so only the first
cell translates; and since it keeps map-free templates, a finished
cell's maps are garbage as soon as the cell is.
"""

import gc
import weakref

from repro.analysis import ExperimentSpec
from repro.analysis.executor import execute_cell
from repro.ebpf import BPF, clear_translation_cache, translation_cache_stats
from repro.ebpf.translation import _GLOBAL_CACHE


def _spec(i: int, monitor_mode: str = "vm") -> ExperimentSpec:
    return ExperimentSpec(workload="silo", offered_rps=800.0 + 50.0 * i,
                          requests=60, monitor_mode=monitor_mode)


def test_second_cell_translates_nothing():
    execute_cell(_spec(0))
    before = translation_cache_stats()["translations"]
    execute_cell(_spec(1))
    assert translation_cache_stats()["translations"] == before


def test_cache_does_not_pin_a_cells_maps(monkeypatch):
    refs = []
    original_init = BPF.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        refs.extend(weakref.ref(bpf_map) for bpf_map in self.maps.values())

    monkeypatch.setattr(BPF, "__init__", recording_init)
    execute_cell(_spec(2))
    monkeypatch.undo()
    gc.collect()
    assert refs
    assert [ref for ref in refs if ref() is not None] == []


def test_cache_holds_one_entry_per_distinct_program():
    clear_translation_cache()
    for i in range(20):
        execute_cell(_spec(i, "vm" if i % 2 else "stream"))
    stats = translation_cache_stats()
    # Each distinct program was translated once and cached once, however
    # many cells loaded it.
    assert len(_GLOBAL_CACHE) == stats["translations"]
    assert 0 < stats["translations"] <= 8
