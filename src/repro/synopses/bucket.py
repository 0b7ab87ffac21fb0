"""Shared machinery for bucket histograms with data-dependent borders.

Equi-height, V-optimal and MaxDiff histograms all store the same
structure -- a sequence of strictly increasing right borders plus a
count per bucket -- and answer range queries the same way, under the
continuous-value assumption.  Their *construction* differs (and is
where the paper's streaming argument lives); estimation is shared here.

None of these are mergeable: the borders depend on the data, so two
histograms over disjoint record sets disagree about where buckets lie
(Section 3.5's argument for equi-height applies to all three).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from repro.errors import SynopsisError
from repro.synopses.base import Synopsis, payload_counts, payload_domain, plain_ints
from repro.types import Domain

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

__all__ = ["BucketHistogram"]


class BucketHistogram(Synopsis):
    """A histogram of variable-width buckets.

    Bucket ``i`` covers the inclusive value range
    ``(borders[i-1], borders[i]]``; the left edge of bucket 0 is
    ``first_left`` (one below the smallest summarised value, so empty
    domain prefixes contribute nothing).
    """

    def __init__(
        self,
        domain: Domain,
        budget: int,
        first_left: int,
        borders: list[int],
        counts: list[int],
    ) -> None:
        if len(borders) != len(counts):
            raise SynopsisError("borders and counts must align")
        if len(borders) > budget:
            raise SynopsisError(
                f"{len(borders)} buckets exceed budget {budget}"
            )
        previous = first_left
        for border in borders:
            if border <= previous:
                raise SynopsisError(
                    "bucket borders must be strictly increasing"
                )
            previous = border
        if borders and not (_INT64_MIN <= borders[0] and borders[-1] <= _INT64_MAX):
            raise SynopsisError("bucket borders must fit int64")
        super().__init__(domain, budget, total_count=sum(counts))
        self.first_left = first_left
        self.borders = borders
        self.counts = counts

    @property
    def element_count(self) -> int:
        return len(self.borders)

    def estimate(self, lo: int, hi: int) -> float:
        """Range estimate under the continuous-value assumption.

        The borders are sorted, so the buckets overlapping ``[lo, hi]``
        are the run from the first whose right border reaches ``lo`` to
        the first whose right border reaches ``hi``; only that run is
        walked.
        """
        clipped = self.domain.intersect(lo, hi)
        if clipped is None or not self.borders:
            return 0.0
        lo, hi = clipped
        borders = self.borders
        start = bisect_left(borders, lo)
        stop = bisect_left(borders, hi, start) + 1
        total = 0.0
        left = borders[start - 1] if start else self.first_left
        for border, count in zip(borders[start:stop], self.counts[start:stop]):
            bucket_lo, bucket_hi = left + 1, border
            left = border
            overlap = min(hi, bucket_hi) - max(lo, bucket_lo) + 1
            if overlap <= 0:
                continue
            total += count * (overlap / (bucket_hi - bucket_lo + 1))
        return max(total, 0.0)

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "first_left": self.first_left,
            "borders": list(self.borders),
            "counts": list(self.counts),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "BucketHistogram":
        """Inverse of :meth:`to_payload`.

        A payload's ``first_left``, borders and counts must be plain
        ints and no count negative; the constructor checks the rest
        (border order and int64 range, the total count).
        """
        first_left = payload["first_left"]
        if type(first_left) is not int:
            raise SynopsisError(f"first_left must be an int, got {first_left!r}")
        return cls(
            payload_domain(payload["domain"]),
            payload["budget"],
            first_left,
            plain_ints(payload["borders"], "bucket borders"),
            payload_counts(payload["counts"], "bucket counts"),
        )
