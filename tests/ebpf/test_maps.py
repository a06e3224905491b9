"""Map semantics tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import ArrayMap, HashMap, MapError, PerfEventArray, RingBuf


class TestHashMap:
    def test_lookup_missing_returns_none(self):
        m = HashMap(8, 8)
        assert m.lookup(b"\x00" * 8) is None

    def test_update_lookup_round_trip(self):
        m = HashMap(8, 8)
        m.update(b"\x01" * 8, b"\x02" * 8)
        assert m.lookup(b"\x01" * 8) == bytearray(b"\x02" * 8)

    def test_lookup_returns_live_reference(self):
        m = HashMap(8, 8)
        m.update_int(1, 0)
        entry = m.lookup(m.key_of(1))
        entry[0] = 7
        assert m.lookup_int(1) == 7

    def test_key_size_enforced(self):
        m = HashMap(8, 8)
        with pytest.raises(MapError, match="key is"):
            m.lookup(b"\x00" * 4)

    def test_value_size_enforced(self):
        m = HashMap(8, 8)
        with pytest.raises(MapError, match="value is"):
            m.update(b"\x00" * 8, b"\x00" * 4)

    def test_max_entries_enforced(self):
        m = HashMap(8, 8, max_entries=2)
        m.update_int(1, 1)
        m.update_int(2, 2)
        with pytest.raises(MapError, match="full"):
            m.update_int(3, 3)
        # Overwriting an existing key is still fine.
        m.update_int(1, 10)
        assert m.lookup_int(1) == 10

    def test_delete(self):
        m = HashMap(8, 8)
        m.update_int(5, 5)
        assert m.delete(m.key_of(5))
        assert not m.delete(m.key_of(5))
        assert m.lookup_int(5) is None

    def test_items_int(self):
        m = HashMap(8, 8)
        m.update_int(1, 10)
        m.update_int(2, 20)
        assert dict(m.items_int()) == {1: 10, 2: 20}

    def test_clear(self):
        m = HashMap(8, 8)
        m.update_int(1, 1)
        m.clear()
        assert len(m) == 0

    def test_validation(self):
        with pytest.raises(MapError):
            HashMap(0, 8)

    @given(st.dictionaries(st.integers(0, 2**32), st.integers(0, 2**32), max_size=30))
    @settings(max_examples=50)
    def test_behaves_like_dict(self, model):
        m = HashMap(8, 8, max_entries=64)
        for key, value in model.items():
            m.update_int(key, value)
        assert dict(m.items_int()) == model


class TestArrayMap:
    def test_preallocated_zeroes(self):
        m = ArrayMap(value_size=8, max_entries=4)
        assert m.lookup_int(0) == 0
        assert m.lookup_int(3) == 0

    def test_out_of_range_lookup_none(self):
        m = ArrayMap(value_size=8, max_entries=4)
        assert m.lookup_int(4) is None

    def test_out_of_range_update_raises(self):
        m = ArrayMap(value_size=8, max_entries=4)
        with pytest.raises(MapError, match="out of range"):
            m.update_int(9, 1)

    def test_delete_not_supported(self):
        m = ArrayMap(value_size=8, max_entries=4)
        with pytest.raises(MapError, match="delete"):
            m.delete(m.key_of(0))

    def test_key_is_u32(self):
        m = ArrayMap(value_size=8, max_entries=4)
        assert m.key_size == 4

    def test_live_reference(self):
        m = ArrayMap(value_size=8, max_entries=1)
        entry = m.lookup(m.key_of(0))
        entry[:] = (42).to_bytes(8, "little")
        assert m.lookup_int(0) == 42


class TestRingBuf:
    def test_fifo_order(self):
        ring = RingBuf(size=1024)
        for i in range(5):
            assert ring.output(bytes([i]))
        assert ring.drain() == [bytes([i]) for i in range(5)]
        assert ring.drain() == []

    def test_drop_when_full(self):
        ring = RingBuf(size=16)
        assert ring.output(b"\x00" * 16)
        assert not ring.output(b"\x01")
        assert ring.drops == 1

    def test_drain_resets_capacity(self):
        ring = RingBuf(size=16)
        ring.output(b"\x00" * 16)
        ring.drain()
        assert ring.output(b"\x01" * 16)

    def test_size_validation(self):
        with pytest.raises(MapError):
            RingBuf(size=4)


class TestPerfEventArray:
    def test_output_then_poll(self):
        perf = PerfEventArray()
        perf.output(b"a")
        perf.output(b"b")
        perf.output(b"c")
        assert len(perf) == 3
        assert perf.poll() == [b"a", b"b", b"c"]
        assert perf.poll() == []
        assert len(perf) == 0

    def test_poll_order_preserved_across_polls(self):
        perf = PerfEventArray()
        perf.output(b"a")
        perf.output(b"b")
        assert perf.poll() == [b"a", b"b"]
        perf.output(b"c")
        perf.output(b"d")
        assert perf.poll() == [b"c", b"d"]

    def test_dropped_record_leaves_no_sequence_gap_effect(self):
        """A lost record (full ring) leaves no gap in the record stream."""
        perf = PerfEventArray(capacity=1)
        perf.output(b"a")
        assert not perf.output(b"dropped")
        assert perf.lost == 1
        assert perf.poll() == [b"a"]
        assert perf.output(b"b")
        assert perf.poll() == [b"b"]

    def test_lost_accounting(self):
        perf = PerfEventArray(capacity=1)
        perf.output(b"a")
        perf.output(b"b")
        assert perf.lost == 1

    def test_validation(self):
        with pytest.raises(MapError):
            PerfEventArray(capacity=0)
