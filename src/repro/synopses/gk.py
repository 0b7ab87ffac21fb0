"""Greenwald-Khanna quantile sketches (the paper's future work).

Section 5: "Another potential direction is to relax the condition of
relying on a sorted order ... Methods based on sketches [31] seem to be
a promising data summary variant for this scenario."  Reference [31] is
Greenwald & Khanna's space-efficient online quantile summary; this
module implements it and adapts it to the framework's synopsis
protocol, so statistics can be collected on *non-indexed* attributes
whose values arrive in arbitrary order.

The summary is a sorted list of tuples ``(value, g, delta)`` where
``g`` is the gap in minimum rank to the previous tuple and ``delta``
the rank uncertainty; the invariant ``g + delta <= 2*eps*n`` bounds any
rank estimate's error by ``eps * n``.  The element budget fixes
``eps = 1/budget`` and the summary is additionally hard-capped at
``budget`` tuples (by merging the lowest-impact neighbours), so its
catalog footprint matches the other synopsis families element for
element.

Merging two sketches concatenates their tuple streams in value order
and re-compresses; the error bound degrades additively (the standard
mergeable-summaries result), mirroring how wavelet merges lose accuracy
to re-thresholding.
"""

from __future__ import annotations

import bisect
from typing import Any, Sequence

from repro.errors import SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.types import Domain

__all__ = ["GKSketch", "GKSketchBuilder"]


class _Tuple:
    """One (value, g, delta) summary entry."""

    __slots__ = ("value", "g", "delta")

    def __init__(self, value: int, g: int, delta: int) -> None:
        self.value = value
        self.g = g
        self.delta = delta


def _compress(tuples: list[_Tuple], threshold: float) -> list[_Tuple]:
    """Greedy pairwise merge honouring the GK invariant.

    The right neighbour absorbs the left (``g`` adds, the survivor's
    ``delta`` is unchanged) whenever the combined uncertainty stays
    under ``threshold``; the extreme tuples (exact min/max) are never
    absorbed.
    """
    if len(tuples) <= 2:
        return tuples
    result = [tuples[0]]
    for entry in tuples[1:]:
        previous = result[-1]
        if (
            len(result) > 1  # never absorb the minimum
            and previous.g + entry.g + entry.delta <= threshold
        ):
            entry.g += previous.g
            result[-1] = entry
        else:
            result.append(entry)
    return result


def _hard_cap(tuples: list[_Tuple], budget: int) -> list[_Tuple]:
    """Force the summary under ``budget`` tuples by repeatedly merging
    the neighbour pair with the smallest combined uncertainty."""
    while len(tuples) > budget and len(tuples) > 2:
        best_index = min(
            range(1, len(tuples) - 1),
            key=lambda i: tuples[i].g + tuples[i + 1].g + tuples[i + 1].delta,
        )
        absorbed = tuples.pop(best_index)
        tuples[best_index].g += absorbed.g
    return tuples


class GKSketch(Synopsis):
    """An immutable Greenwald-Khanna rank summary."""

    synopsis_type = SynopsisType.GK_SKETCH

    def __init__(
        self,
        domain: Domain,
        budget: int,
        entries: list[tuple[int, int, int]],
        total_count: int,
    ) -> None:
        if len(entries) > budget:
            raise SynopsisError(
                f"{len(entries)} sketch tuples exceed budget {budget}"
            )
        super().__init__(domain, budget, total_count)
        self.entries = list(entries)
        self._values = [value for value, _g, _delta in entries]
        ranks = []
        running = 0
        for _value, g, _delta in entries:
            running += g
            ranks.append(running)
        self._min_ranks = ranks

    @property
    def element_count(self) -> int:
        return len(self.entries)

    def rank(self, value: int) -> float:
        """Estimated number of summarised values ``<= value``."""
        if not self.entries or value < self.entries[0][0]:
            return 0.0
        if value >= self.entries[-1][0]:
            return float(self.total_count)
        index = bisect.bisect_right(self._values, value) - 1
        delta = self.entries[index][2]
        return self._min_ranks[index] + delta / 2.0

    def estimate(self, lo: int, hi: int) -> float:
        clipped = self.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        lo, hi = clipped
        return max(self.rank(hi) - self.rank(lo - 1), 0.0)

    def _merge(self, other: Synopsis) -> "GKSketch":
        assert isinstance(other, GKSketch)
        combined = sorted(
            [_Tuple(*entry) for entry in self.entries + other.entries],
            key=lambda t: t.value,
        )
        total = self.total_count + other.total_count
        threshold = 2.0 * total / self.budget
        compressed = _hard_cap(_compress(combined, threshold), self.budget)
        return GKSketch(
            self.domain,
            self.budget,
            [(t.value, t.g, t.delta) for t in compressed],
            total,
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "total_count": self.total_count,
            "entries": [list(entry) for entry in self.entries],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "GKSketch":
        """Inverse of :meth:`to_payload`."""
        return cls(
            Domain(*payload["domain"]),
            payload["budget"],
            [tuple(entry) for entry in payload["entries"]],
            payload["total_count"],
        )


class GKSketchBuilder(SynopsisBuilder):
    """Online GK insertion; tolerates arbitrary input order."""

    requires_sorted_input = False

    def __init__(self, domain: Domain, budget: int) -> None:
        super().__init__(domain, budget)
        self._epsilon = 1.0 / budget
        self._tuples: list[_Tuple] = []
        self._values_cache: list[int] = []
        self._since_compress = 0
        self._compress_period = max(1, int(1.0 / (2.0 * self._epsilon)))

    def _add_many(self, values: "Sequence[int]") -> None:
        """Online GK insertion.

        Exactness: the sketch is order- and cadence-sensitive -- each
        inserted tuple's ``delta`` is computed from the running
        ``_count`` at insertion time, and COMPRESS fires exactly when
        ``_count % period == 0``.  This loop preserves both: values are
        inserted one at a time in stream order with ``_count`` advanced
        first, so chunks of one, list chunks, and the columnar
        pipeline's typed key columns all yield bit-identical tuple
        lists.  It must not be vectorised or re-chunked
        internally: moving a COMPRESS boundary changes which tuples
        merge.  (_run_compress rebinds the tuple/cache lists, so they
        are re-read every iteration.)
        """
        epsilon2 = 2.0 * self._epsilon
        period = self._compress_period
        for value in values:
            self._count += 1
            tuples = self._tuples
            cache = self._values_cache
            index = bisect.bisect_left(cache, value)
            if index == 0 or index == len(tuples):
                delta = 0  # new minimum or maximum is exact
            else:
                delta = max(0, int(epsilon2 * self._count) - 1)
            tuples.insert(index, _Tuple(value, 1, delta))
            cache.insert(index, value)
            self._since_compress += 1
            if self._since_compress >= period:
                self._run_compress()

    def _run_compress(self) -> None:
        threshold = 2.0 * self._epsilon * self._count
        self._tuples = _compress(self._tuples, threshold)
        self._values_cache = [t.value for t in self._tuples]
        self._since_compress = 0

    def _build(self) -> GKSketch:
        self._run_compress()
        self._tuples = _hard_cap(self._tuples, self.budget)
        return GKSketch(
            self.domain,
            self.budget,
            [(t.value, t.g, t.delta) for t in self._tuples],
            self._count,
        )
