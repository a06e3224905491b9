"""In-process cells share assembled programs, verdicts and compiled
translations, and nothing else.

Every cell builds its own kernel, maps and ``BPF`` objects, but loads the
same handful of programs.  The collector builders keep each assembled
program, and the process-wide translation cache keys verdicts and the
compiled tier on the program's wire encoding and map shapes alone, so
only the first cell assembles, verifies and translates; and since the
cache keeps map-free templates, a finished cell's maps are garbage as
soon as the cell is.
"""

import builtins
import gc
import weakref

from repro.analysis import ExperimentSpec
from repro.analysis.executor import execute_cell, run_cells
from repro.ebpf import BPF, Asm, clear_translation_cache, translation_cache_stats
from repro.ebpf import bcc as bcc_mod
from repro.ebpf import verifier as verifier_mod
from repro.ebpf.translation import _GLOBAL_CACHE


def _spec(i: int, monitor_mode: str = "vm") -> ExperimentSpec:
    return ExperimentSpec(workload="silo", offered_rps=800.0 + 50.0 * i,
                          requests=60, monitor_mode=monitor_mode)


def test_second_cell_translates_nothing():
    execute_cell(_spec(0))
    before = translation_cache_stats()["translations"]
    execute_cell(_spec(1))
    assert translation_cache_stats()["translations"] == before


def test_warm_cells_assemble_verify_and_translate_nothing(monkeypatch):
    """After one cell per monitor mode, another cell of the same app in
    either mode attaches its monitor at the cost of its maps: no
    assembly, no verifier walk and no translation."""
    execute_cell(_spec(3, "vm"))
    execute_cell(_spec(3, "stream"))
    work = {"assemblies": 0, "walks": 0}
    build, walk = Asm.build, verifier_mod._walk

    def counting_build(self):
        work["assemblies"] += 1
        return build(self)

    def counting_walk(*args):
        work["walks"] += 1
        return walk(*args)

    monkeypatch.setattr(Asm, "build", counting_build)
    monkeypatch.setattr(verifier_mod, "_walk", counting_walk)
    for mode in ("vm", "stream"):
        before = translation_cache_stats()
        execute_cell(_spec(4, mode))
        after = translation_cache_stats()
        assert work == {"assemblies": 0, "walks": 0}, mode
        assert after["verified"] == before["verified"]
        assert after["translations"] == before["translations"]


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


def _dc_spec(i: int) -> ExperimentSpec:
    return ExperimentSpec(workload="data-caching", offered_rps=4000.0 + 50.0 * i,
                          requests=100, monitor_mode="vm")


def test_warm_cell_binds_fused_dispatchers_without_compiling(monkeypatch):
    """A warm vm-mode data-caching cell calls ``compile()`` zero times and
    packs no tracepoint record: both tracepoints bind a fused dispatcher
    the process already built, and every monitor program runs inline."""
    execute_cell(_dc_spec(0))
    compiled, packed = [], []
    real_compile = builtins.compile

    def counting_compile(*args, **kwargs):
        compiled.append(args[1:2])
        return real_compile(*args, **kwargs)

    def refusing_pack(*args):
        packed.append(args)
        raise AssertionError("a warm vm cell packed a tracepoint record")

    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(bcc_mod, "pack_sys_enter", refusing_pack)
    monkeypatch.setattr(bcc_mod, "pack_sys_exit", refusing_pack)
    before = translation_cache_stats()
    execute_cell(_dc_spec(1))
    after = translation_cache_stats()
    assert compiled == [] and packed == []
    assert after["fused_builds"] == before["fused_builds"]
    assert after["fused_hits"] == before["fused_hits"] + 2
    assert after["translations"] == before["translations"]


def test_executor_stats_fold_fused_dispatch_counters():
    """``ExecutorStats.translation`` carries the fused-dispatcher builds
    and hits apart from ``translations``: a cold batch of two vm cells
    translates each of its four monitor programs once, builds one
    dispatcher per tracepoint and reuses both in the second cell."""
    clear_translation_cache()
    _, stats = run_cells([_dc_spec(2), _dc_spec(3)], jobs=1)
    counters = stats.translation
    assert counters["translations"] == 4
    assert (counters["fused_builds"], counters["fused_hits"]) == (2, 2)
