"""Equi-width histograms.

"The algorithm for creating an equi-width histogram is straightforward:
first we calculate the histogram invariant -- bucket width, depending
on the total bucket budget and domain size of the indexed field.  After
that buckets can be populated left-to-right as the records are received
from the sorted input stream." (Section 3.2)

Equi-width histograms are naturally mergeable: two histograms over the
same domain with the same budget have identical bucket borders, so a
merge is an element-wise sum of bucket counts (Section 3.5).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.types import Domain

__all__ = ["EquiWidthHistogram", "EquiWidthBuilder"]


def _bucket_width(domain: Domain, budget: int) -> int:
    """The histogram invariant: the fixed width of every bucket."""
    return -(-domain.length // budget)  # ceil division


class EquiWidthHistogram(Synopsis):
    """A histogram of fixed-width buckets covering the whole domain."""

    synopsis_type = SynopsisType.EQUI_WIDTH

    def __init__(
        self, domain: Domain, budget: int, counts: list[int]
    ) -> None:
        width = _bucket_width(domain, budget)
        expected_buckets = -(-domain.length // width)
        if len(counts) != expected_buckets:
            raise SynopsisError(
                f"expected {expected_buckets} buckets, got {len(counts)}"
            )
        super().__init__(domain, budget, total_count=sum(counts))
        self.width = width
        self.counts = counts

    @property
    def element_count(self) -> int:
        return len(self.counts)

    def bucket_range(self, index: int) -> tuple[int, int]:
        """Inclusive value range ``[lo, hi]`` covered by bucket ``index``
        (the last bucket may be clipped by the domain border)."""
        lo = self.domain.lo + index * self.width
        hi = min(lo + self.width - 1, self.domain.hi)
        return lo, hi

    def estimate(self, lo: int, hi: int) -> float:
        """Range estimate under the continuous-value assumption: a
        partially overlapped bucket contributes proportionally to the
        overlapped fraction of its width.

        Only the first and last covered bucket can be partial; one
        between them adds its whole count, left to right in floats --
        bit for bit what multiplying it by ``width / width`` gives.
        """
        clipped = self.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        lo, hi = clipped
        base, width, counts = self.domain.lo, self.width, self.counts
        first = (lo - base) // width
        last = (hi - base) // width
        last_lo = base + last * width
        last_len = min(last_lo + width, self.domain.hi + 1) - last_lo
        if first == last:
            return max(counts[last] * ((hi - lo + 1) / last_len), 0.0)
        # A bucket with a successor is never the domain-clipped one.
        total = counts[first] * ((base + (first + 1) * width - lo) / width)
        for count in counts[first + 1 : last]:
            total += count
        total += counts[last] * ((hi - last_lo + 1) / last_len)
        return max(total, 0.0)

    def _merge_all(self, others: Sequence[Synopsis]) -> "EquiWidthHistogram":
        """Element-wise sum of every input's bucket counts at once
        (integer addition: exact in any order)."""
        columns = zip(self.counts, *(other.counts for other in others))
        return EquiWidthHistogram(self.domain, self.budget, list(map(sum, columns)))

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "counts": list(self.counts),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "EquiWidthHistogram":
        """Inverse of :meth:`to_payload`."""
        domain = Domain(*payload["domain"])
        return cls(domain, payload["budget"], list(payload["counts"]))


class EquiWidthBuilder(SynopsisBuilder):
    """Streams sorted values into fixed-width buckets, left to right."""

    def __init__(self, domain: Domain, budget: int) -> None:
        super().__init__(domain, budget)
        self._width = _bucket_width(domain, budget)
        num_buckets = -(-domain.length // self._width)
        self._counts = [0] * num_buckets

    def _add_many(self, values: Sequence[int]) -> None:
        """Bucket fill.

        Exactness: bucket assignment is pure integer arithmetic
        (``(value - lo) // width``) with no order dependence, so every
        chunking of a stream produces identical counts -- not merely
        statistically equal.
        """
        counts = self._counts
        lo = self.domain.lo
        width = self._width
        for value in values:
            counts[(value - lo) // width] += 1
        self._count += len(values)

    def _build(self) -> EquiWidthHistogram:
        return EquiWidthHistogram(self.domain, self.budget, self._counts)
