"""The mutable in-memory LSM component.

All modifications happen here, in place (Appendix A): an insert or
update stores a matter record, a delete stores an anti-matter record,
and either replaces any previous entry for the same key -- within the
in-memory component the latest write simply wins without generating
extra entries.  When the component fills up its sorted contents are
flushed through ``bulkload()`` into an immutable disk component.

Appendix A keeps the component in an order-preserving tree.  Here it is
a hash map sorted on demand, like RocksDB's vector memtable: a write is
one dict store, and the sorted key list is built by the first scan or
flush after a new key arrives and cached until the next new key
(overwrites keep it).  A rotated memtable takes no new keys, so the
flush task that reads it sorts it exactly once, off the writer's
thread.

The cost moves onto range scans of the active memtable that run between
new keys: each such scan re-sorts the whole component, O(n log n), where
the tree answered in O(log n + k).  No benchmarked workload has that
pattern (e2ebench scans only after its ingest drains); measure before
adding a caller that scans while it ingests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.lsm.columnar import ColumnarChunk
from repro.lsm.memory import record_footprint
from repro.lsm.record import Record

__all__ = ["MemTable"]


class MemTable:
    """A mutable component: a hash map with a cached sorted key list."""

    def __init__(self) -> None:
        self._map: dict[Any, Record] = {}
        self._sorted_keys: list[Any] | None = []
        self._min_seqnum: int | None = None
        self._max_seqnum: int | None = None
        self._antimatter_count = 0
        self._memory_bytes = 0

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    @property
    def antimatter_count(self) -> int:
        """Number of anti-matter entries currently held."""
        return self._antimatter_count

    @property
    def seqnum_range(self) -> tuple[int, int] | None:
        """(min, max) sequence numbers written, or None when empty."""
        if self._min_seqnum is None or self._max_seqnum is None:
            return None
        return self._min_seqnum, self._max_seqnum

    def memory_bytes(self) -> int:
        """Accounted footprint, maintained incrementally on every write
        (docs/MEMORY.md size model -- never an O(n) walk)."""
        return self._memory_bytes

    def recompute_memory_bytes(self) -> int:
        """Ground-truth O(n) recount (test oracle for the incremental
        counter; never called on the ingest path)."""
        return sum(record_footprint(record) for record in self._map.values())

    def write(self, record: Record) -> None:
        """Apply a write; the newest entry per key replaces older ones."""
        key = record.key
        old = self._map.get(key)
        if old is None:
            self._sorted_keys = None
        else:
            if old.antimatter:
                self._antimatter_count -= 1
            self._memory_bytes -= record_footprint(old)
        if record.antimatter:
            self._antimatter_count += 1
        self._memory_bytes += record_footprint(record)
        self._map[key] = record
        if self._min_seqnum is None:
            self._min_seqnum = record.seqnum
        self._max_seqnum = record.seqnum

    def get(self, key: Any) -> Record | None:
        """The current entry for ``key`` (may be anti-matter), or None."""
        return self._map.get(key)

    def _keys(self) -> list[Any]:
        """The keys in order, sorted now if a new key arrived since the
        last call."""
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._map)
        return keys

    def sorted_records(self) -> Iterator[Record]:
        """All entries (matter and anti-matter) in key order."""
        return map(self._map.__getitem__, self._keys())

    def sorted_columnar_chunks(
        self, chunk_size: int
    ) -> Iterator[ColumnarChunk]:
        """All entries in key order as columnar chunks: exactly the
        stream handed to ``bulkload()`` on a flush (docs/DATAPATH.md).
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        records = self.sorted_records()
        while True:
            chunk = list(itertools.islice(records, chunk_size))
            if not chunk:
                return
            yield ColumnarChunk.from_records(chunk)

    def scan(self, lo: Any = None, hi: Any = None) -> Iterator[Record]:
        """Entries with keys in ``[lo, hi]`` in key order."""
        keys = self._keys()
        start = 0 if lo is None else bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect_right(keys, hi)
        return map(self._map.__getitem__, keys[start:stop])

    def reset(self) -> None:
        """Empty the component after its contents were flushed."""
        self._map.clear()
        self._sorted_keys = []
        self._min_seqnum = None
        self._max_seqnum = None
        self._antimatter_count = 0
        self._memory_bytes = 0
