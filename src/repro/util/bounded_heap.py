"""A bounded min-heap keeping the top-B items by weight.

The streaming wavelet decomposition (Algorithm 1 of the paper) retains
only the ``B`` most significant (largest normalized absolute value)
coefficients while the transform runs.  A min-heap of size ``B`` supports
this in O(log B) per insertion: when full, a new item is admitted only if
it outweighs the current minimum, which it then evicts.

Ties are broken deterministically by insertion order (earlier wins), so
repeated runs over the same stream produce identical synopses.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator

__all__ = ["BoundedMinHeap"]


class BoundedMinHeap:
    """Keep the ``capacity`` heaviest items seen so far."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        # Entries are (weight, -insertion_index, item); the negated
        # index makes comparison total and puts the *latest* of several
        # tied-weight items at the heap root, so it is evicted first and
        # earlier insertions win ties (the documented contract).
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, weight: float, item: Any) -> Any | None:
        """Offer ``item`` with ``weight``; return the evicted item, if any.

        Returns ``None`` when nothing was evicted, the evicted item when
        the heap was full and a lighter item got pushed out, or ``item``
        itself when it was too light to be admitted.
        """
        entry = (weight, -self._counter, item)
        self._counter += 1
        if len(self._heap) < self._capacity:
            heapq.heappush(self._heap, entry)
            return None
        if entry[0] <= self._heap[0][0]:
            return item
        evicted = heapq.heappushpop(self._heap, entry)
        return evicted[2]

    def add_all(self, weighted: Iterable[tuple[float, Any]]) -> None:
        """:meth:`add` every ``(weight, item)`` pair in order.

        The batch form for long streams of mostly rejected offers: a
        full heap's rejection is one float comparison, with no entry
        built.  Entries carry the same insertion ranks one :meth:`add`
        per pair would give them, so the heap ends identical.
        """
        heap = self._heap
        capacity = self._capacity
        counter = self._counter
        for weight, item in weighted:
            if len(heap) < capacity:
                heapq.heappush(heap, (weight, -counter, item))
            elif weight > heap[0][0]:
                heapq.heappushpop(heap, (weight, -counter, item))
            counter += 1
        self._counter = counter

    def min_weight(self) -> float:
        """Weight of the lightest retained item."""
        if not self._heap:
            raise IndexError("min_weight() on empty heap")
        return self._heap[0][0]

    def items(self) -> Iterator[Any]:
        """Retained items in no particular order."""
        for _weight, _index, item in self._heap:
            yield item

    def weighted_items(self) -> Iterator[tuple[float, Any]]:
        """Retained ``(weight, item)`` pairs in no particular order."""
        for weight, _index, item in self._heap:
            yield weight, item
