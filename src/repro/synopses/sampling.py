"""Reservoir-sampling synopses (the paper's future work).

Section 5: "we would like to explore sampling-based statistics-
collection methods and assess their accuracy and runtime overhead in
comparison to precomputed synopses."  This module provides the natural
candidate: a classic Algorithm-R reservoir sample of the component's
values, with the estimate scaled up by ``N / sample_size``.

The paper's stated reservations are reflected honestly:

* the reservoir costs one stored value per element -- "high memory
  costs associated with maintaining samples" (Section 2) -- so a
  sample's element budget buys far less resolution than a histogram
  whose buckets each summarise many records;
* samples over disjoint record sets are not merged here (an unbiased
  merge needs weighted subsampling, i.e. fresh randomness at query
  time); the estimator falls back to per-component combination,
  which remains unbiased because each sample scales by its own count.

Sampling tolerates arbitrary input order, so like the GK sketch it can
summarise non-indexed attributes.
"""

from __future__ import annotations

import bisect
from typing import Any, Sequence

import numpy as np

from repro.errors import SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.types import Domain

__all__ = ["ReservoirSample", "ReservoirSampleBuilder"]


class ReservoirSample(Synopsis):
    """A uniform sample of a component's values, with scale-up."""

    synopsis_type = SynopsisType.RESERVOIR_SAMPLE

    def __init__(
        self,
        domain: Domain,
        budget: int,
        sample: list[int],
        total_count: int,
    ) -> None:
        if len(sample) > budget:
            raise SynopsisError(
                f"sample of {len(sample)} exceeds budget {budget}"
            )
        if total_count < len(sample):
            raise SynopsisError("total_count smaller than the sample")
        super().__init__(domain, budget, total_count)
        self.sample = sorted(sample)

    @property
    def element_count(self) -> int:
        return len(self.sample)

    def estimate(self, lo: int, hi: int) -> float:
        """Horvitz-Thompson style scale-up of the in-sample count."""
        clipped = self.domain.intersect(lo, hi)
        if clipped is None or not self.sample:
            return 0.0
        lo, hi = clipped
        in_sample = bisect.bisect_right(self.sample, hi) - bisect.bisect_left(
            self.sample, lo
        )
        return in_sample * self.total_count / len(self.sample)

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "total_count": self.total_count,
            "sample": list(self.sample),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ReservoirSample":
        """Inverse of :meth:`to_payload`."""
        return cls(
            Domain(*payload["domain"]),
            payload["budget"],
            list(payload["sample"]),
            payload["total_count"],
        )


class ReservoirSampleBuilder(SynopsisBuilder):
    """Algorithm R over the component's value stream.

    Deterministic: the reservoir's RNG is seeded per builder (``seed``),
    so repeated runs produce identical synopses -- a property every
    other builder in the framework shares and the experiment harness
    relies on.
    """

    requires_sorted_input = False

    def __init__(self, domain: Domain, budget: int, seed: int = 0) -> None:
        super().__init__(domain, budget)
        self._rng = np.random.default_rng(seed)
        self._reservoir: list[int] = []

    def _add_many(self, values: "Sequence[int]") -> None:
        """The reservoir step (Vitter's Algorithm R).

        Exactness: sampling is RNG-sequence-sensitive, so this loop
        must stay sequential -- exactly one ``draw(0, self._count)``
        per value once the reservoir is full, in stream order, with
        ``_count`` advanced before each draw.  Because every chunking
        (chunks of one, list chunks, the columnar pipeline's whole key
        columns, numpy backend on or off) feeds the same values in the
        same order, the RNG draw sequence -- and hence the reservoir --
        is bit-identical across all of them.  No
        vectorised variant exists: it would reorder the draws.
        """
        reservoir = self._reservoir
        budget = self.budget
        draw = self._rng.integers
        for value in values:
            self._count += 1
            if len(reservoir) < budget:
                reservoir.append(value)
                continue
            slot = int(draw(0, self._count))
            if slot < budget:
                reservoir[slot] = value

    def _build(self) -> ReservoirSample:
        return ReservoirSample(
            self.domain, self.budget, self._reservoir, self._count
        )
