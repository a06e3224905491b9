"""Compiled translations are shared as map-free templates and rebound per
attach site.

The in-memory compiled-tier cache keys programs on their wire encoding
alone, with no map identity.  Loading the same program into a second
``BPF`` object with its own maps must therefore translate nothing, yet
the second probe must read and write only the second object's maps and
stay bit-for-bit identical to the reference interpreter.
"""

import random

import pytest

from repro.core.collectors import _DELTA_VALUE_SIZE, build_delta_program
from repro.core.streaming import build_streaming_program
from repro.ebpf import (
    BPF,
    ArrayMap,
    Asm,
    CompiledVm,
    PerfEventArray,
    Reg,
    TranslationCache,
)
from repro.kernel import Kernel, MachineSpec
from repro.sim import Environment, SeedSequence

TGID = 4242
PID_TGID = (TGID << 32) | TGID


def _kernel():
    return Kernel(
        Environment(),
        MachineSpec(name="t", cores=1, ctx_switch_ns=0, syscall_overhead_ns=0),
        SeedSequence(1),
        interference=False,
    )


def _delta():
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = build_delta_program("state", TGID, [0, 1])
    return {"state": state}, program, lambda: bytes(state.lookup(state.key_of(0)))


def _stream():
    events = PerfEventArray(name="events")
    program = build_streaming_program("events", TGID, [0, 1])
    return {"events": events}, program, events.poll


PROGRAMS = {"delta": _delta, "stream": _stream}


def _attach(build, **vm_kwargs):
    """A kernel with ``build``'s program attached through its own BPF
    object and maps; returns (kernel, read-the-maps callable)."""
    kernel = _kernel()
    maps, program, read = build()
    bpf = BPF(kernel, maps=maps, charge_cost=True, **vm_kwargs)
    bpf.load(program)
    bpf.attach_tracepoint("raw_syscalls:sys_enter", program.name)
    return kernel, read


def _fire(kernel, count=40, seed=3):
    rng = random.Random(seed)
    costs = []
    t = 1_000
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        costs.append(kernel.tracepoints.fire_enter(pid_tgid, rng.choice([0, 1, 44]), (), t))
        t += rng.randint(1, 50_000)
    return costs


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestRebinding:
    def test_second_attach_translates_nothing(self, name):
        cache = TranslationCache()
        _attach(PROGRAMS[name], vm=CompiledVm(cache=cache))
        assert cache.translations == 1
        _attach(PROGRAMS[name], vm=CompiledVm(cache=cache))
        assert cache.translations == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_each_probe_writes_only_its_own_maps(self, name):
        cache = TranslationCache()
        kernel_a, read_a = _attach(PROGRAMS[name], vm=CompiledVm(cache=cache))
        kernel_b, read_b = _attach(PROGRAMS[name], vm=CompiledVm(cache=cache))
        empty = read_b()
        _fire(kernel_a)
        written_a = read_a()
        assert written_a != empty
        assert read_b() == empty  # A's firings never reached B's maps
        _fire(kernel_b)
        assert read_b() == written_a
        # B's firings never reached A's maps (a perf array drains on poll).
        assert read_a() == (empty if name == "stream" else written_a)

    def test_rebound_results_equal_reference(self, name):
        kernel_ref, read_ref = _attach(PROGRAMS[name], vm_tier="reference")
        expected = (_fire(kernel_ref), read_ref())
        cache = TranslationCache()
        for _ in range(2):  # a fresh translation, then a rebound template
            kernel, read = _attach(PROGRAMS[name], vm=CompiledVm(cache=cache))
            assert (_fire(kernel), read()) == expected
        assert cache.translations == 1


def _with_map(bpf_map):
    asm = Asm()
    asm.ld_map_fd(Reg.R1, bpf_map)
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


def test_unresolved_copy_of_a_cached_blob_falls_back():
    """A program whose wire encoding matches a cached template but whose
    map reference is unresolved cannot be bound: each site's map shape is
    part of the key, so the copy misses the template, the verifier walk
    rejects it, and ``get_compiled`` says ``None`` — a declined program,
    not a stale binding."""
    cache = TranslationCache()
    assert cache.get_compiled(_with_map(ArrayMap(8, 1, name="m"))) is not None
    assert cache.get_compiled(_with_map("m")) is None
    assert cache.hits == 0 and cache.translations == 2
    assert cache.declined == 1
