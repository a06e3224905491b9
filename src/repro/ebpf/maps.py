"""BPF maps: the kernel/userspace shared data structures.

Semantics follow the kernel:

* ``lookup`` returns a **reference** to the stored value (a ``bytearray``);
  in-place writes through the returned pointer are visible to later lookups
  and to userspace, exactly like writing through the pointer returned by
  ``bpf_map_lookup_elem``.  This is what lets Listing-1-style programs
  accumulate counters without update calls.
* keys and values are fixed-size byte strings; integer convenience
  accessors (little-endian, as on x86-64) are provided for userspace.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from .errors import MapError

__all__ = ["BpfMap", "HashMap", "ArrayMap", "RingBuf", "PerfEventArray"]


def _pack_int(value: int, size: int) -> bytes:
    return int(value).to_bytes(size, "little", signed=False)


def _unpack_int(blob: bytes) -> int:
    return int.from_bytes(blob, "little", signed=False)


class BpfMap:
    """Common behaviour for fixed-size-record maps."""

    map_type = "map"

    def __init__(self, key_size: int, value_size: int, max_entries: int, name: str = "") -> None:
        if key_size < 1 or value_size < 1 or max_entries < 1:
            raise MapError("key_size, value_size and max_entries must be positive")
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self.name = name or self.map_type

    # -- key/value plumbing ------------------------------------------------
    def _check_key(self, key: bytes) -> bytes:
        key = bytes(key)
        if len(key) != self.key_size:
            raise MapError(
                f"map {self.name!r}: key is {len(key)} bytes, expected {self.key_size}"
            )
        return key

    def _check_value(self, value: bytes) -> bytearray:
        if len(value) != self.value_size:
            raise MapError(
                f"map {self.name!r}: value is {len(value)} bytes, expected {self.value_size}"
            )
        return bytearray(value)

    def key_of(self, value: int) -> bytes:
        """Encode an integer as this map's key type."""
        return _pack_int(value, self.key_size)

    # -- operations (overridden) -------------------------------------------
    def lookup(self, key: bytes) -> Optional[bytearray]:
        raise NotImplementedError

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> bool:
        raise NotImplementedError

    def items(self) -> Iterator[Tuple[bytes, bytearray]]:
        raise NotImplementedError

    # -- userspace conveniences ----------------------------------------------
    def lookup_int(self, key: int) -> Optional[int]:
        value = self.lookup(self.key_of(key))
        return None if value is None else _unpack_int(value)

    def update_int(self, key: int, value: int) -> None:
        self.update(self.key_of(key), _pack_int(value, self.value_size))

    def items_int(self) -> Iterator[Tuple[int, int]]:
        for key, value in self.items():
            yield _unpack_int(key), _unpack_int(value)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.key_size}->{self.value_size}>"


class HashMap(BpfMap):
    """``BPF_MAP_TYPE_HASH``."""

    map_type = "hash"

    def __init__(self, key_size: int, value_size: int, max_entries: int = 1024, name: str = "") -> None:
        super().__init__(key_size, value_size, max_entries, name)
        self._data: Dict[bytes, bytearray] = {}

    def lookup(self, key: bytes) -> Optional[bytearray]:
        return self._data.get(self._check_key(key))

    def update(self, key: bytes, value: bytes) -> None:
        key = self._check_key(key)
        if key not in self._data and len(self._data) >= self.max_entries:
            raise MapError(f"map {self.name!r} is full ({self.max_entries} entries)")
        self._data[key] = self._check_value(value)

    def delete(self, key: bytes) -> bool:
        return self._data.pop(self._check_key(key), None) is not None

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> Iterator[Tuple[bytes, bytearray]]:
        return iter(list(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)


class ArrayMap(BpfMap):
    """``BPF_MAP_TYPE_ARRAY``: preallocated, zero-initialized, no delete."""

    map_type = "array"

    def __init__(self, value_size: int, max_entries: int, name: str = "") -> None:
        super().__init__(4, value_size, max_entries, name)
        self._slots: List[bytearray] = [bytearray(value_size) for _ in range(max_entries)]

    def _index(self, key: bytes) -> Optional[int]:
        index = _unpack_int(self._check_key(key))
        return index if index < self.max_entries else None

    def lookup(self, key: bytes) -> Optional[bytearray]:
        index = self._index(key)
        return None if index is None else self._slots[index]

    def update(self, key: bytes, value: bytes) -> None:
        index = self._index(key)
        if index is None:
            raise MapError(f"array {self.name!r}: index out of range")
        self._slots[index][:] = self._check_value(value)

    def delete(self, key: bytes) -> bool:
        # Arrays don't support delete (kernel returns -EINVAL).
        raise MapError(f"array {self.name!r}: delete not supported")

    def items(self) -> Iterator[Tuple[bytes, bytearray]]:
        for index, slot in enumerate(self._slots):
            yield _pack_int(index, 4), slot

    def __len__(self) -> int:
        return self.max_entries


class RingBuf:
    """``BPF_MAP_TYPE_RINGBUF``: variable-size records, drop-on-full.

    ``size`` bounds the total bytes buffered; ``bpf_ringbuf_output`` fails
    (records the drop) when a record does not fit, mirroring the kernel's
    reservation failure.
    """

    map_type = "ringbuf"

    def __init__(self, size: int = 1 << 16, name: str = "ringbuf") -> None:
        if size < 8:
            raise MapError("ringbuf size too small")
        self.size = size
        self.name = name
        self._records: Deque[bytes] = deque()
        self._used = 0
        self.drops = 0

    def output(self, data: bytes) -> bool:
        """Kernel-side submit; returns False (and counts a drop) if full."""
        if self._used + len(data) > self.size:
            self.drops += 1
            return False
        self._records.append(bytes(data))
        self._used += len(data)
        return True

    def drain(self) -> List[bytes]:
        """Userspace-side consume-all."""
        records = list(self._records)
        self._records.clear()
        self._used = 0
        return records

    def __len__(self) -> int:
        return len(self._records)


class PerfEventArray:
    """``BPF_MAP_TYPE_PERF_EVENT_ARRAY``: one perf ring.

    ``bpf_perf_event_output`` appends to the ring and userspace drains it.
    The ring is bounded (in records) with drop accounting, mirroring the
    lost-sample count bcc reports via ``lost_cb``.  The simulated kernel
    runs probes one at a time, so one ring holds every record in emission
    order.

    The ring is one contiguous ``bytearray`` (the record bytes back to
    back, like the mmapped perf ring pages) plus the per-record sizes.
    Two readers drain the same state:

    * :meth:`drain` — the whole block, so a consumer can decode a stream
      of fixed-size records with one ``struct.iter_unpack``;
    * :meth:`poll` — bcc's record-at-a-time reader.

    ``tests/ebpf/test_perf_batch.py`` pins that the two agree.
    """

    map_type = "perf_event_array"

    def __init__(self, capacity: int = 65536, name: str = "events") -> None:
        if capacity < 1:
            raise MapError("perf ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._data = bytearray()
        self._sizes: List[int] = []
        self.lost = 0

    def output(self, data: bytes) -> bool:
        sizes = self._sizes
        if len(sizes) >= self.capacity:
            self.lost += 1
            return False
        self._data += data
        sizes.append(len(data))
        return True

    def drain(self) -> bytes:
        """Empty the ring; returns its records as one block, in emission order."""
        data = bytes(self._data)
        self._data = bytearray()
        self._sizes = []
        return data

    def poll(self) -> List[bytes]:
        """Empty the ring; returns its records one by one, in emission order."""
        sizes = self._sizes
        data = self.drain()
        records: List[bytes] = []
        start = 0
        for size in sizes:
            records.append(data[start:start + size])
            start += size
        return records

    def __len__(self) -> int:
        return len(self._sizes)
