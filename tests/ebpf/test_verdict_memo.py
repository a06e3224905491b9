"""Verifier verdicts are walked once per key and never drift.

``BPF.load`` takes a program's verdict from the process-wide translation
cache, keyed on the bytes the compiled tier already keys templates on:
the wire encoding, the ctx size and each map-load site's map class and
sizes.  The first load of a key walks the verifier; later loads reuse the
stored pass or rejection.  Every outcome must equal a fresh
``Program.verify()`` of the same program, anything the walk reads must
miss the memo, and a rejection that names an unresolved reference is
never stored.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collectors import _DELTA_VALUE_SIZE, build_delta_program
from repro.ebpf import (
    BPF,
    ArrayMap,
    HashMap,
    PerfEventArray,
    Program,
    ProgType,
    TranslationCache,
    VerifierError,
    clear_translation_cache,
    translation_cache_stats,
)
from repro.ebpf import translation as translation_mod
from repro.ebpf.compiled import key_material

from .test_differential import (
    _FUZZ_SETTINGS,
    CTX_SIZE,
    _build,
    _build_typed,
    _op,
    _typed_maps,
    _typed_op,
    _typed_prefix,
)
from .test_rebind import TGID, _kernel


def _outcome(action):
    """``None`` when ``action()`` passes, else the rejection's type,
    message and ``insn_index``."""
    try:
        action()
    except VerifierError as error:
        return type(error), str(error), error.insn_index
    return None


def _walks():
    return translation_cache_stats()["verified"]


def _load_twice(insns, maps):
    """Load one program through two ``BPF`` objects: both outcomes must be
    a fresh ``Program.verify()``'s, and the second load walks nothing."""
    fresh = _outcome(Program("fuzz", list(insns), ProgType.tracepoint_sys_enter()).verify)
    kernel = _kernel()

    def load():
        program = Program("fuzz", list(insns), ProgType.tracepoint_sys_enter())
        return _outcome(lambda: BPF(kernel, maps=maps).load(program))

    assert load() == fresh
    walks = _walks()
    assert load() == fresh
    assert _walks() == walks
    return fresh


@given(ops=st.lists(_op, min_size=0, max_size=25))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_memoised_verdicts_equal_a_fresh_walk(ops):
    """Scalar, stack and ctx programs, rejected ones included."""
    _load_twice(_build(ops), {})


@given(prefix=_typed_prefix, ops=st.lists(_typed_op, min_size=1, max_size=20))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_memoised_verdicts_equal_a_fresh_walk_with_maps(prefix, ops):
    """Pointer, helper and map programs against live maps."""
    maps = _typed_maps()
    _load_twice(_build_typed(prefix, ops, maps), maps)


def test_fuzz_sources_reach_both_verdicts():
    """Guard against the memo fuzz seeing only one kind of verdict."""
    accept = _load_twice(_build([("mov_imm", 1, 7)]), {})
    reject = _load_twice(_build([("mov_reg", 0, 3)]), {})
    assert accept is None
    assert reject == (VerifierError, "insn 0: R3 !read_ok", 0)


#: ``state`` maps for the delta program with the fresh walk's verdict:
#: its own 48-byte array, then a change of each attribute the walk reads.
SHAPES = (
    (lambda: ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1), None),
    (
        lambda: ArrayMap(value_size=16, max_entries=1),
        "insn 16: map value read out of bounds off=40 size=8",
    ),
    (lambda: HashMap(key_size=4, value_size=_DELTA_VALUE_SIZE), None),
    (
        lambda: HashMap(key_size=8, value_size=_DELTA_VALUE_SIZE),
        "insn 14: invalid stack helper access off=-4 size=8",
    ),
    (PerfEventArray, "insn 14: cannot pass map PerfEventArray into func MAP_LOOKUP_ELEM"),
)


def test_a_shape_change_misses_the_memo():
    """The same instructions against a map of another class, key_size or
    value_size walk again and get the fresh verdict; a second round of the
    same shapes walks nothing."""
    clear_translation_cache()
    program = build_delta_program("state", TGID, [0])
    kernel = _kernel()
    for walked in (1, 0):
        for make, message in SHAPES:
            maps = {"state": make()}
            walks = _walks()
            outcome = _outcome(lambda: BPF(kernel, maps=maps).load(program))
            assert _walks() == walks + walked
            assert outcome == _outcome(program.resolve_maps(maps).verify)
            assert (None if outcome is None else outcome[1]) == message


def test_unresolved_references_fail_with_their_own_name():
    """Programs that differ only in an unresolved map name share their key
    material, yet each fails with its own name: such verdicts are walked
    on every load and never stored."""
    cache = TranslationCache()
    a = build_delta_program("state_a", TGID, [0, 1])
    b = build_delta_program("state_b", TGID, [0, 1])
    assert key_material(a.insns, CTX_SIZE) == key_material(b.insns, CTX_SIZE)
    for program, name in ((a, "state_a"), (b, "state_b"), (a, "state_a")):
        with pytest.raises(VerifierError, match=f"unresolved map reference '{name}'$"):
            cache.verify(program.insns, program.prog_type)
    assert cache.verified == 3


def test_verdicts_are_not_template_lookups():
    """A stored verdict is reused, counted in ``verified`` only, and
    forgotten by ``clear``."""
    cache = TranslationCache()
    program = build_delta_program("state", TGID, [0, 1]).resolve_maps(
        {"state": ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1)}
    )
    key = cache.verify(program.insns, program.prog_type)
    assert key == key_material(program.insns, program.prog_type.ctx_size)
    assert cache.verify(program.insns, program.prog_type) == key
    assert cache.verified == 1
    assert (cache.hits, cache.misses, cache.translations, cache.declined) == (0, 0, 0, 0)
    cache.clear()
    cache.verify(program.insns, program.prog_type)
    assert cache.verified == 1


def test_a_load_and_its_attach_encode_the_program_once(monkeypatch):
    """The key ``BPF.load`` verified is the one the attach's template
    lookup uses."""
    encoded = []

    def counting_key_material(*args):
        encoded.append(args)
        return key_material(*args)

    monkeypatch.setattr(translation_mod, "key_material", counting_key_material)
    bpf = BPF(_kernel(), maps={"state": ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1)})
    bpf.load(build_delta_program("state", TGID, [0, 1]))
    bpf.attach_tracepoint("raw_syscalls:sys_enter", "delta_enter")
    assert len(encoded) == 1
