"""Tests for deterministic random streams."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SeedSequence, splitmix64
from repro.sim.rng import _mix_name


def test_same_seed_same_stream():
    a = SeedSequence(1).stream("arrivals")
    b = SeedSequence(1).stream("arrivals")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_independent():
    seq = SeedSequence(1)
    a = seq.stream("arrivals")
    b = seq.stream("service")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_stream_instance_reused():
    seq = SeedSequence(1)
    assert seq.stream("x") is seq.stream("x")


def test_child_sequences_independent():
    root = SeedSequence(7)
    a = root.child("machine-a").stream("svc")
    b = root.child("machine-b").stream("svc")
    assert a.random() != b.random()


def test_adding_stream_does_not_perturb_existing():
    seq1 = SeedSequence(9)
    s1 = seq1.stream("alpha")
    first = [s1.random() for _ in range(5)]

    seq2 = SeedSequence(9)
    seq2.stream("beta")  # new consumer registered first
    s2 = seq2.stream("alpha")
    second = [s2.random() for _ in range(5)]
    assert first == second


class TestLazyStreams:
    """A stream's generator is seeded on first draw; draws are exactly
    those of an eagerly seeded ``random.Random(_mix_name(seed, name))``."""

    def test_undrawn_stream_derives_nothing(self):
        stream = SeedSequence(1).stream("never")
        assert "_random" not in vars(stream)
        stream.random()
        assert "_random" in vars(stream)

    def test_draws_match_eager_seeding(self):
        for seed, name in ((0, ""), (1, "client:arrivals"), (2**64 - 1, "sock:7:rx")):
            eager = random.Random(_mix_name(seed, name))
            lazy = SeedSequence(seed).stream(name)
            assert [lazy.random() for _ in range(5)] == [eager.random() for _ in range(5)]
            assert lazy.randint(0, 1 << 32) == eager.randint(0, 1 << 32)

    def test_draws_independent_of_first_draw_time(self):
        early = SeedSequence(11).stream("target")
        early_draws = [early.exponential(5.0) for _ in range(8)]

        seq = SeedSequence(11)
        late = seq.stream("target")
        for i in range(500):  # many streams issued (and some drawn) first
            other = seq.stream(f"other:{i}")
            if i % 7 == 0:
                other.random()
        assert [late.exponential(5.0) for _ in range(8)] == early_draws

    def test_child_and_stream_identity_unchanged(self):
        root = SeedSequence(7)
        assert root.child("a").seed == _mix_name(7, "child:a")
        assert root.stream("x") is root.stream("x")
        assert root.issued_names() == ("x",)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            SeedSequence(1).stream("s").no_such_attribute


def test_splitmix64_known_vector():
    # Reference values from the canonical splitmix64 with seed state 0 and 1.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(0)
    assert 0 <= splitmix64(12345) < 2**64


def test_exponential_mean():
    s = SeedSequence(3).stream("exp")
    draws = [s.exponential(100.0) for _ in range(20000)]
    assert statistics.mean(draws) == pytest.approx(100.0, rel=0.05)


def test_exponential_rejects_nonpositive_mean():
    s = SeedSequence(3).stream("exp")
    with pytest.raises(ValueError):
        s.exponential(0)


def test_lognormal_mean_cv_moments():
    s = SeedSequence(4).stream("lognorm")
    mean, cv = 50.0, 0.8
    draws = [s.lognormal_mean_cv(mean, cv) for _ in range(40000)]
    assert statistics.mean(draws) == pytest.approx(mean, rel=0.05)
    assert statistics.stdev(draws) / statistics.mean(draws) == pytest.approx(cv, rel=0.1)


def test_lognormal_zero_cv_is_deterministic():
    s = SeedSequence(4).stream("lognorm")
    assert s.lognormal_mean_cv(10.0, 0.0) == 10.0


def test_bernoulli_edges():
    s = SeedSequence(5).stream("bern")
    assert not s.bernoulli(0.0)
    assert s.bernoulli(1.0)


def test_bernoulli_rate():
    s = SeedSequence(5).stream("bern")
    hits = sum(s.bernoulli(0.25) for _ in range(40000))
    assert hits / 40000 == pytest.approx(0.25, abs=0.01)


def test_exponential_ns_is_positive_int():
    s = SeedSequence(6).stream("expns")
    for _ in range(100):
        draw = s.exponential_ns(1000)
        assert isinstance(draw, int) and draw >= 1


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), name=st.text(max_size=20))
@settings(max_examples=50)
def test_streams_reproducible_property(seed, name):
    a = SeedSequence(seed).stream(name)
    b = SeedSequence(seed).stream(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_splitmix64_range_property(state):
    assert 0 <= splitmix64(state) < 2**64


def test_pareto_min_scale():
    s = SeedSequence(8).stream("pareto")
    draws = [s.pareto(10.0, 2.0) for _ in range(1000)]
    assert min(draws) >= 10.0


def test_pareto_validation():
    s = SeedSequence(8).stream("pareto")
    with pytest.raises(ValueError):
        s.pareto(0, 1)
    with pytest.raises(ValueError):
        s.pareto(1, 0)


def test_lognormal_heavy_tail_vs_light():
    s = SeedSequence(10).stream("tail")
    light = [s.lognormal_mean_cv(100, 0.1) for _ in range(5000)]
    heavy = [s.lognormal_mean_cv(100, 2.0) for _ in range(5000)]
    assert max(heavy) > max(light)
    assert math.isfinite(max(heavy))
