"""Tests for the cross-process on-disk compiled-program cache.

The disk cache must be invisible except in speed: a translation served
from disk behaves bit-for-bit like a fresh one (same results, same map
mutations, against the *caller's* live maps), survives corrupt entries
as misses, and keys entries content-addressed but map-identity-free so
independently built copies of the same program share one entry across
processes.
"""

import marshal
import random

import pytest

from repro.core.collectors import _DELTA_VALUE_SIZE, build_delta_program
from repro.ebpf import (
    ArrayMap,
    Asm,
    BPF,
    CompiledVm,
    HelperRuntime,
    Program,
    ProgType,
    Reg,
    TranslationCache,
    Vm,
    pack_sys_enter,
)
from repro.ebpf import diskcache as diskcache_mod
from repro.ebpf.diskcache import (
    DiskCodeCache,
    disable_disk_cache,
    disk_cache_stats,
    enable_disk_cache,
)
from repro.ebpf.translation import _GLOBAL_CACHE
from repro.kernel.tracepoints import SysEnterCtx

TGID = 4242
PID_TGID = (TGID << 32) | TGID


def _simple_insns():
    asm = Asm()
    asm.mov_imm(Reg.R0, 7)
    asm.add_imm(Reg.R0, 35)
    asm.exit_()
    return asm.build()


def _delta_setup():
    """A resolved copy of the paper's delta collector plus its own map."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0, 1])
               .resolve_maps({"state": state}).verify())
    return program, state


def _firings(count=30, seed=0):
    rng = random.Random(seed)
    t = 1_000
    out = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        out.append(SysEnterCtx(pid_tgid=pid_tgid,
                               syscall_nr=rng.choice([0, 1, 44]),
                               ktime_ns=t))
        t += rng.randint(1, 50_000)
    return out


def _drive(vm, program, state):
    results = []
    for ctx in _firings():
        runtime = HelperRuntime(ktime_ns=ctx.ktime_ns,
                                pid_tgid=ctx.pid_tgid, cpu_id=0)
        r = vm.execute(program.insns, pack_sys_enter(ctx), runtime)
        results.append((r.r0, r.steps, r.cost_ns))
    return results, [bytes(state.lookup(state.key_of(i)))
                     for i in range(state.max_entries)]


class TestRoundTrip:
    def test_second_process_translates_nothing(self, tmp_path):
        program, state = _delta_setup()

        cold = TranslationCache(disk=DiskCodeCache(tmp_path))
        CompiledVm(cache=cold).prepare(program.insns)
        assert cold.translations >= 1
        assert cold.disk.writes == 1

        # A fresh TranslationCache + fresh DiskCodeCache on the same
        # directory is exactly what a new worker process sees.
        program2, _ = _delta_setup()
        warm = TranslationCache(disk=DiskCodeCache(tmp_path))
        CompiledVm(cache=warm).prepare(program2.insns)
        assert warm.disk.hits == 1
        assert warm.disk.misses == 0
        assert warm.translations == 0
        assert warm.get_compiled(program2.insns) is not None

    def test_disk_loaded_translation_is_bit_identical(self, tmp_path):
        program, state = _delta_setup()
        reference = _drive(Vm(), program, state)

        # Populate the disk entry, then reload it in a "new process".
        seed_cache = TranslationCache(disk=DiskCodeCache(tmp_path))
        CompiledVm(cache=seed_cache).prepare(program.insns)

        program2, state2 = _delta_setup()
        warm = TranslationCache(disk=DiskCodeCache(tmp_path))
        vm = CompiledVm(cache=warm)
        from_disk = _drive(vm, program2, state2)
        assert warm.disk.hits == 1
        assert from_disk == reference

    def test_entry_is_map_identity_free(self, tmp_path):
        """Two independent builds of the same program (different map
        objects, different ``id()``\\ s) share one disk entry, and the
        loaded code mutates whichever map the *caller* resolved."""
        disk = DiskCodeCache(tmp_path)
        program_a, state_a = _delta_setup()
        program_b, state_b = _delta_setup()
        assert state_a is not state_b

        cache_a = TranslationCache(disk=disk)
        CompiledVm(cache=cache_a).prepare(program_a.insns)
        assert len(disk) == 1

        cache_b = TranslationCache(disk=DiskCodeCache(tmp_path))
        vm_b = CompiledVm(cache=cache_b)
        vm_b.prepare(program_b.insns)
        assert cache_b.disk.hits == 1
        assert len(cache_b.disk) == 1  # same key, no second entry

        _drive(vm_b, program_b, state_b)
        assert any(any(v) for v in
                   [bytes(state_b.lookup(state_b.key_of(0)))])
        # The donor's map was never touched by B's firings.
        assert not any(bytes(state_a.lookup(state_a.key_of(0))))

    def test_unsupported_verdict_round_trips(self, tmp_path):
        # A program the compiled tier rejects: ld_imm64 with a raw fd
        # (no resolved map object).
        asm = Asm()
        asm.ld_map_fd(Reg.R1, 3)
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        insns = asm.build()

        cold = TranslationCache(disk=DiskCodeCache(tmp_path))
        assert cold.get_compiled(insns) is None
        assert cold.disk.writes == 1

        warm = TranslationCache(disk=DiskCodeCache(tmp_path))
        assert warm.get_compiled(insns) is None
        assert warm.disk.hits == 1
        assert warm.translations == 0


class TestRobustness:
    def _seed_entry(self, tmp_path):
        insns = _simple_insns()
        cache = TranslationCache(disk=DiskCodeCache(tmp_path))
        CompiledVm(cache=cache).prepare(insns)
        path = cache.disk.path_for(insns)
        assert path.exists()
        return insns, path

    @pytest.mark.parametrize("blob", [
        b"",                                     # truncated to nothing
        b"not marshal at all",                   # garbage
        marshal.dumps(("wrong", "shape")),       # foreign tuple
        marshal.dumps((999, "ok", "src", None, 3)),  # future codec version
    ], ids=["empty", "garbage", "foreign", "version"])
    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path, blob):
        insns, path = self._seed_entry(tmp_path)
        path.write_bytes(blob)

        cache = TranslationCache(disk=DiskCodeCache(tmp_path))
        vm = CompiledVm(cache=cache)
        vm.prepare(insns)  # must recompute, not raise
        assert cache.disk.hits == 0
        assert cache.disk.misses >= 1
        assert cache.translations >= 1
        runtime = HelperRuntime(ktime_ns=1, pid_tgid=PID_TGID, cpu_id=0)
        assert vm.execute(insns, b"\x00" * 64, runtime).r0 == 42

    def test_wrong_length_entry_rejected(self, tmp_path):
        """An entry recorded for a different instruction count (key
        collision would take a sha256 break, but defense in depth)."""
        insns, path = self._seed_entry(tmp_path)
        blob = path.read_bytes()
        payload = list(marshal.loads(blob))
        payload[4] = payload[4] + 1  # corrupt the recorded length
        path.write_bytes(marshal.dumps(tuple(payload)))

        cache = TranslationCache(disk=DiskCodeCache(tmp_path))
        CompiledVm(cache=cache).prepare(insns)
        assert cache.disk.hits == 0 and cache.disk.errors >= 1

    def test_codegen_tag_salts_the_key(self, tmp_path, monkeypatch):
        insns = _simple_insns()
        before = DiskCodeCache(tmp_path).key_for(insns)
        from repro.ebpf import compiled as compiled_mod

        monkeypatch.setattr(compiled_mod, "CODEGEN_TAG", "cg-next")
        after = DiskCodeCache(tmp_path).key_for(insns)
        assert before != after

    def test_no_temp_files_left_behind(self, tmp_path):
        self._seed_entry(tmp_path)
        leftovers = [p for p in tmp_path.iterdir()
                     if not p.name.endswith(".cbc")]
        assert leftovers == []


class TestGlobalWiring:
    def teardown_method(self):
        disable_disk_cache()

    def test_enable_disable_round_trip(self, tmp_path):
        assert disk_cache_stats() is None
        cache = enable_disk_cache(tmp_path)
        assert _GLOBAL_CACHE.disk is cache
        assert disk_cache_stats() == cache.stats()
        # Re-enabling the same directory keeps the same backend (counters
        # survive), a different directory swaps it.
        assert enable_disk_cache(tmp_path) is cache
        assert disable_disk_cache() is cache
        assert disk_cache_stats() is None

    def test_bpf_attach_reports_disk_counters(self, tmp_path):
        from repro.kernel import Kernel, MachineSpec
        from repro.sim import Environment, SeedSequence

        enable_disk_cache(tmp_path)
        kernel = Kernel(
            Environment(),
            MachineSpec(name="t", cores=1, ctx_switch_ns=0,
                        syscall_overhead_ns=0),
            SeedSequence(1),
            interference=False,
        )
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1,
                         name="state")
        bpf = BPF(kernel, maps={"state": state}, vm_tier="compiled")
        bpf.load(build_delta_program("state", TGID, [0, 1]))
        bpf.attach_tracepoint("raw_syscalls:sys_enter", "delta_enter")
        stats = bpf.translation_stats()
        assert "disk" in stats
        assert stats["disk"]["writes"] + stats["disk"]["hits"] >= 1
