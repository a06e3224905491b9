"""Perf-ring drain equivalence (DESIGN.md §6).

``PerfEventArray.drain`` returns the ring as one contiguous byte block;
the streaming consumer decodes it with a single ``struct.iter_unpack``.
These properties pin that the block drain is observably identical to
the record-at-a-time ``poll`` — same records, same order, same
lost-record accounting — under capacity overflow and mid-window drains.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import DeltaStats
from repro.ebpf.maps import PerfEventArray

_RECORD = struct.Struct("<QQ")


def _drive(events, capacity):
    """Feed the same record stream to the real ring and a naive journal."""
    pea = PerfEventArray(capacity=capacity, name="t")
    journal = []  # accepted records, in emission order
    lost = 0
    for payload in events:
        accepted = pea.output(payload)
        if len(journal) < capacity:
            assert accepted
            journal.append(bytes(payload))
        else:
            assert not accepted
            lost += 1
    return pea, journal, lost


def _split(block, sizes):
    """A drained block cut back into records by their sizes."""
    records = []
    start = 0
    for size in sizes:
        records.append(block[start : start + size])
        start += size
    assert start == len(block)
    return records


uniform_events = st.lists(st.binary(min_size=16, max_size=16), max_size=80)

mixed_events = st.lists(st.binary(min_size=1, max_size=24), max_size=80)

sorted_timestamps = st.lists(st.integers(min_value=0, max_value=1 << 48), max_size=60).map(sorted)


@settings(max_examples=120, deadline=None)
@given(events=mixed_events, capacity=st.integers(min_value=1, max_value=16))
def test_poll_matches_arrival_order_journal(events, capacity):
    pea, journal, lost = _drive(events, capacity)
    assert pea.poll() == journal
    assert pea.lost == lost
    assert len(pea) == 0


@settings(max_examples=120, deadline=None)
@given(events=mixed_events, capacity=st.integers(min_value=1, max_value=16))
def test_drain_block_equals_record_at_a_time(events, capacity):
    record_wise, _journal, _lost = _drive(events, capacity)
    block_wise, journal, lost = _drive(events, capacity)
    block = block_wise.drain()
    assert _split(block, [len(record) for record in journal]) == record_wise.poll()
    assert block_wise.lost == record_wise.lost == lost
    assert len(block_wise) == 0


@settings(max_examples=100, deadline=None)
@given(events=uniform_events)
def test_uniform_batches_iter_unpack_whole_block(events):
    pea, journal, _lost = _drive(events, capacity=1 << 16)
    block = pea.drain()
    assert len(block) == 16 * len(journal)
    decoded = list(_RECORD.iter_unpack(block))
    assert decoded == [_RECORD.unpack(record) for record in journal]


@settings(max_examples=100, deadline=None)
@given(events=mixed_events, split=st.integers(min_value=0, max_value=80))
def test_mid_window_drain_preserves_stream(events, split):
    """Draining mid-stream (reset_window's tail drain) loses nothing and
    keeps the order: the two drains concatenate to one full poll."""
    whole, _journal, _lost = _drive(events, capacity=1 << 16)
    expected = whole.poll()

    pea = PerfEventArray(capacity=1 << 16, name="t")
    for payload in events[:split]:
        pea.output(payload)
    first = pea.drain()
    assert len(pea) == 0
    for payload in events[split:]:
        pea.output(payload)
    second = pea.drain()
    assert first + second == b"".join(expected)
    assert _split(first + second, [len(record) for record in events]) == expected


@settings(max_examples=120, deadline=None)
@given(timestamps=sorted_timestamps, split=st.integers(min_value=0, max_value=60))
def test_add_timestamps_bit_identical_to_looped_add(timestamps, split):
    """The batched DeltaStats feed is bit-identical to the per-record one,
    including across a window reset between two batches."""
    looped = DeltaStats()
    batched = DeltaStats()
    for ts in timestamps[:split]:
        looped.add_timestamp(ts)
    batched.add_timestamps(timestamps[:split])
    assert looped == batched
    looped.reset_window()
    batched.reset_window()
    for ts in timestamps[split:]:
        looped.add_timestamp(ts)
    batched.add_timestamps(timestamps[split:])
    assert looped == batched


def test_drain_frees_capacity_and_keeps_lost():
    pea = PerfEventArray(capacity=2, name="t")
    for _ in range(4):  # overflow the ring
        pea.output(b"a" * 16)
    assert pea.lost == 2
    assert pea.drain() == b"a" * 32
    # Capacity is freed by the drain; the next window starts clean, and
    # the drop count is cumulative.
    assert pea.output(b"b" * 16)
    assert pea.poll() == [b"b" * 16]
    assert pea.drain() == b""
    assert pea.lost == 2
