"""Exact per-value counts masquerading as a synopsis.

Not part of the paper's design -- a diagnostic oracle.  It stores the
full frequency map of the observed stream, so its estimates are exact
for the summarised component.  Tests and ablation benchmarks use it to
separate synopsis approximation error from framework plumbing error
(anti-matter handling, per-component combination, merging): any
discrepancy between a ground-truth "synopsis" pipeline and the true
cardinality is a plumbing bug, not an accuracy artefact.
"""

from __future__ import annotations

from typing import Any

from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType, payload_domain
from repro.types import Domain

__all__ = ["GroundTruthSynopsis", "GroundTruthBuilder"]


class GroundTruthSynopsis(Synopsis):
    """The exact frequency map of one component's value stream."""

    synopsis_type = SynopsisType.GROUND_TRUTH

    def __init__(
        self, domain: Domain, budget: int, frequencies: dict[int, int]
    ) -> None:
        super().__init__(domain, budget, total_count=sum(frequencies.values()))
        self.frequencies = dict(frequencies)

    @property
    def element_count(self) -> int:
        return len(self.frequencies)

    def estimate(self, lo: int, hi: int) -> float:
        clipped = self.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        lo, hi = clipped
        if len(self.frequencies) <= hi - lo + 1:
            return float(
                sum(f for v, f in self.frequencies.items() if lo <= v <= hi)
            )
        return float(
            sum(self.frequencies.get(v, 0) for v in range(lo, hi + 1))
        )

    def _merge(self, other: Synopsis) -> "GroundTruthSynopsis":
        assert isinstance(other, GroundTruthSynopsis)
        merged = dict(self.frequencies)
        for value, frequency in other.frequencies.items():
            merged[value] = merged.get(value, 0) + frequency
        return GroundTruthSynopsis(self.domain, self.budget, merged)

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "frequencies": sorted(self.frequencies.items()),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "GroundTruthSynopsis":
        """Inverse of :meth:`to_payload`."""
        return cls(
            payload_domain(payload["domain"]),
            payload["budget"],
            {int(v): int(f) for v, f in payload["frequencies"]},
        )


class GroundTruthBuilder(SynopsisBuilder):
    """Counts every value exactly (unbounded memory; diagnostics only)."""

    def __init__(self, domain: Domain, budget: int = 1) -> None:
        super().__init__(domain, budget)
        self._frequencies: dict[int, int] = {}

    def _add(self, value: int) -> None:
        self._frequencies[value] = self._frequencies.get(value, 0) + 1

    def _build(self) -> GroundTruthSynopsis:
        return GroundTruthSynopsis(self.domain, self.budget, self._frequencies)
