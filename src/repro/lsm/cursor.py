"""Merge cursors over sorted record streams.

An LSM read (or merge) must combine several key-sorted streams -- the
memtable plus any number of disk components -- into one logical stream:

* *newest wins*: for records sharing a key, only the entry with the
  highest sequence number survives;
* *anti-matter reconciliation*: when the surviving entry is a tombstone
  it either cancels silently (reads, and merges that include the oldest
  component) or must be carried forward (partial merges, because an even
  older component may still hold the matter record it cancels).

The paper leans on exactly this abstraction: "the input stream created
by a merge cursor provides a unified sorted record stream abstraction
over the individual record streams of merged components" (Section 3.5),
which is what lets synopses be rebuilt from scratch during merges.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.lsm.record import Record

__all__ = ["merge_streams", "reconcile"]


def merge_streams(streams: Iterable[Iterator[Record]]) -> Iterator[Record]:
    """K-way merge of key-sorted streams into one key-sorted stream.

    Entries with equal keys are emitted newest (highest seqnum) first,
    so :func:`reconcile` can resolve them with one token of lookahead.
    """
    heap: list[tuple] = []
    for stream_index, stream in enumerate(streams):
        iterator = iter(stream)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.key, -first.seqnum, stream_index, first, iterator))
    heapq.heapify(heap)
    while heap:
        _key, _negseq, stream_index, record, iterator = heapq.heappop(heap)
        yield record
        nxt = next(iterator, None)
        if nxt is not None:
            heapq.heappush(
                heap, (nxt.key, -nxt.seqnum, stream_index, nxt, iterator)
            )


def reconcile(
    merged: Iterator[Record], keep_antimatter: bool
) -> Iterator[Record]:
    """Collapse a newest-first merged stream to one entry per key.

    Args:
        merged: Output of :func:`merge_streams` (ties broken newest
            first).
        keep_antimatter: ``True`` for partial merges, where a surviving
            tombstone must be re-emitted because older components outside
            the merge may still contain the record it cancels; ``False``
            for reads and full merges, where tombstones reconcile away.
    """
    current_key: object = _SENTINEL
    for record in merged:
        if record.key == current_key:
            continue  # shadowed by a newer entry for the same key
        current_key = record.key
        if record.antimatter and not keep_antimatter:
            continue
        yield record


class _Sentinel:
    """A key value that never compares equal to real keys."""

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


_SENTINEL = _Sentinel()
