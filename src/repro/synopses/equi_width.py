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

from array import array
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import MergeabilityError, SynopsisError
from repro.synopses.base import (
    Synopsis,
    SynopsisBuilder,
    SynopsisType,
    payload_counts,
    payload_domain,
)
from repro.types import Domain

__all__ = ["EquiWidthHistogram", "EquiWidthBuilder"]


def _bucket_width(domain: Domain, budget: int) -> int:
    """The histogram invariant: the fixed width of every bucket."""
    return -(-domain.length // budget)  # ceil division


_INT64_MAX = (1 << 63) - 1


def _stackable(cls: type, synopses: Sequence[Synopsis]) -> bool:
    """Whether every synopsis is exactly a ``cls`` with the first one's
    budget and domain -- then all share every bucket border (domains
    compared by identity first: decoded ones are shared objects, see
    :func:`~repro.synopses.base.payload_domain`)."""
    domain = synopses[0].domain
    return (
        set(map(type, synopses)) == {cls}
        and set(map(attrgetter("budget"), synopses)) == {synopses[0].budget}
        and all(
            other is domain or other == domain
            for other in map(attrgetter("domain"), synopses)
        )
    )


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
        self._column: "array[int] | None" = None

    @property
    def column(self) -> "array[int]":
        """The counts as one native int64 buffer, built on first use:
        what the stacked kernels join.  The walk keeps the list, which
        iterates without boxing an int per bucket."""
        if self._column is None:
            self._column = array("q", self.counts)
        return self._column

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

    @classmethod
    def estimate_each(
        cls, synopses: Sequence[Synopsis], *bounds: int
    ) -> list[float]:
        """Every input's :meth:`estimate` from one stacked count matrix.

        Inputs sharing a domain and budget share every bucket border,
        so one window of columns ``first..last`` is the covered buckets
        of all of them.  The partial end columns are scaled by the
        walk's own fractions, and ``np.add.accumulate`` runs along each
        row: a sequential sum, the walk's ``total +=`` in the same
        order, so each row's last column is the walk's float exactly
        (``np.sum`` sums pairwise and is not).  Anything else -- mixed
        families or parameters, or bounds that are not ``(lo, hi)`` --
        takes the default walk per input.
        """
        if not synopses or len(bounds) != 2 or not _stackable(cls, synopses):
            return super().estimate_each(synopses, *bounds)
        first = synopses[0]
        clipped = first.domain.intersect(*bounds)
        if clipped is None:
            return [0.0] * len(synopses)
        lo, hi = clipped
        base, width = first.domain.lo, first.width
        first_column = (lo - base) // width
        last = (hi - base) // width
        last_lo = base + last * width
        last_len = min(last_lo + width, first.domain.hi + 1) - last_lo
        stacked = np.frombuffer(
            b"".join(map(attrgetter("column"), synopses)), dtype=np.int64
        ).reshape(len(synopses), -1)
        if first_column == last:
            totals = stacked[:, last] * ((hi - lo + 1) / last_len)
        else:
            window = stacked[:, first_column : last + 1].astype(np.float64)
            window[:, 0] *= (base + (first_column + 1) * width - lo) / width
            window[:, -1] *= (hi - last_lo + 1) / last_len
            totals = np.add.accumulate(window, axis=1)[:, -1]
        return np.maximum(totals, 0.0).tolist()

    def _merge_all(self, others: Sequence[Synopsis]) -> "EquiWidthHistogram":
        """Element-wise sum of every input's bucket counts at once: one
        column sum over the stacked int64 counts (integer addition,
        exact in any order).  No column can exceed the summed totals,
        so when those fit int64 the sum cannot wrap."""
        if self.total_count + sum(map(attrgetter("total_count"), others)) > _INT64_MAX:
            raise MergeabilityError("merged equi-width counts overflow int64")
        stacked = np.frombuffer(
            b"".join([self.column, *map(attrgetter("column"), others)]),
            dtype=np.int64,
        ).reshape(len(others) + 1, -1)
        return EquiWidthHistogram(
            self.domain, self.budget, stacked.sum(axis=0).tolist()
        )

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
        return cls(
            payload_domain(payload["domain"]),
            payload["budget"],
            payload_counts(payload["counts"], "equi-width counts"),
        )


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
