"""The wavelet synopsis: queries, merging, serialisation.

The retained coefficients encode the *prefix sum* ``W`` of the value
frequencies, so a range query ``[x, y]`` needs just two point
reconstructions, ``W(y) - W(x - 1)``, each a single root-to-leaf walk
of the error tree (Section 3.6) -- no inverse transform required.

Because the Haar transform is linear and the prefix sum of a union of
record sets is the sum of their prefix sums, two wavelet synopses over
the same domain merge by adding coefficients index-wise and then
re-thresholding to the budget; the re-thresholding is where mergeable
synopses "lose some accuracy along the way" (Section 3.5).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.errors import DomainError, SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.synopses.wavelet.coefficient import (
    WaveletCoefficient,
    normalized_weight,
    preorder_sort_key,
)
from repro.synopses.wavelet.streaming import StreamingWaveletTransform
from repro.types import Domain

__all__ = ["WaveletSynopsis", "WaveletBuilder"]


class WaveletSynopsis(Synopsis):
    """Top-B Haar coefficients of the prefix-sum frequency signal."""

    synopsis_type = SynopsisType.WAVELET

    def __init__(
        self,
        domain: Domain,
        budget: int,
        coefficients: dict[int, float],
        total_count: int,
    ) -> None:
        if len(coefficients) > budget:
            raise SynopsisError(
                f"{len(coefficients)} coefficients exceed budget {budget}"
            )
        super().__init__(domain, budget, total_count)
        self.levels = domain.levels
        # ``prefix_value`` only ever visits error-tree nodes, so a stray
        # index would be ignored and a NaN/inf would poison estimates
        # silently: both mean the coefficients were corrupted on the way.
        node_count = 1 << self.levels
        for index, value in coefficients.items():
            if not 0 <= index < node_count:
                raise SynopsisError(
                    f"coefficient index {index} outside the error tree "
                    f"[0, {node_count})"
                )
            if not math.isfinite(value):
                raise SynopsisError(
                    f"coefficient {index} has non-finite value {value}"
                )
        self.coefficients = dict(coefficients)

    @property
    def element_count(self) -> int:
        return len(self.coefficients)

    def prefix_value(self, position: int) -> float:
        """Reconstruct ``W(position)``, the encoded prefix sum, via one
        root-to-leaf traversal (positions outside the signal clamp:
        ``W`` is 0 before the domain and constant through the padded
        tail)."""
        if position < 0:
            return 0.0
        position = min(position, (1 << self.levels) - 1)
        value = self.coefficients.get(0, 0.0)
        index = 1
        for shift in range(self.levels - 1, -1, -1):
            coefficient = self.coefficients.get(index, 0.0)
            bit = (position >> shift) & 1
            # Detail is (right - left) / 2: right child adds, left subtracts.
            value += coefficient if bit else -coefficient
            index = 2 * index + bit
        return value

    def estimate(self, lo: int, hi: int) -> float:
        clipped = self.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        lo, hi = clipped
        lo_position = self.domain.position(lo)
        hi_position = self.domain.position(hi)
        estimate = self.prefix_value(hi_position) - self.prefix_value(
            lo_position - 1
        )
        return max(estimate, 0.0)

    def _merge(self, other: Synopsis) -> "WaveletSynopsis":
        assert isinstance(other, WaveletSynopsis)
        combined = dict(self.coefficients)
        for index, value in other.coefficients.items():
            merged_value = combined.get(index, 0.0) + value
            if merged_value == 0.0:
                combined.pop(index, None)
            else:
                combined[index] = merged_value
        thresholded = _threshold(combined, self.budget, self.levels)
        return WaveletSynopsis(
            self.domain,
            self.budget,
            thresholded,
            self.total_count + other.total_count,
        )

    def to_payload(self) -> dict[str, Any]:
        ordered = sorted(self.coefficients, key=preorder_sort_key)
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "total_count": self.total_count,
            # Binary-tree pre-order, the paper's serialisation layout.
            "coefficients": [[i, self.coefficients[i]] for i in ordered],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WaveletSynopsis":
        """Inverse of :meth:`to_payload`; a payload with missing,
        ill-typed, duplicate or out-of-tree fields is a
        :class:`SynopsisError`, never a synopsis that estimates wrong."""
        try:
            pairs = [(index, value) for index, value in payload["coefficients"]]
            if not all(
                isinstance(index, int) and isinstance(value, (int, float))
                for index, value in pairs
            ):
                raise TypeError("coefficients must be [int, number] pairs")
            coefficients = {index: float(value) for index, value in pairs}
            if len(coefficients) != len(pairs):
                raise ValueError("duplicate coefficient index")
            return cls(
                Domain(*payload["domain"]),
                payload["budget"],
                coefficients,
                payload["total_count"],
            )
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise SynopsisError(f"malformed wavelet payload: {exc!r}") from exc


def _threshold(
    coefficients: dict[int, float], budget: int, levels: int
) -> dict[int, float]:
    """Keep the ``budget`` heaviest coefficients by normalized weight."""
    if len(coefficients) <= budget:
        return coefficients
    ranked = sorted(
        coefficients.items(),
        key=lambda item: normalized_weight(item[0], item[1], levels),
        reverse=True,
    )
    return dict(ranked[:budget])


class WaveletBuilder(SynopsisBuilder):
    """Aggregates the sorted value stream into per-value frequencies and
    feeds them through the streaming transform."""

    def __init__(self, domain: Domain, budget: int) -> None:
        super().__init__(domain, budget)
        self._transform = StreamingWaveletTransform(domain.levels, budget)
        self._current_value: int | None = None
        self._current_frequency = 0

    def _add_many(self, values: "Sequence[int]") -> None:
        """The wavelet step: run-length aggregation into the transform.

        Exactness: the streaming transform consumes (position,
        frequency) runs in non-decreasing position order, and the
        run boundaries are fully determined by the value sequence --
        chunking cannot split a run because the pending run carries
        across chunks in ``_current_value``/``_current_frequency``.
        Duplicate values only bump the pending frequency, so the
        transform's carry walk runs once per distinct value: the same
        ``transform.add`` calls happen in the same order with the same
        arguments under any chunking, and the
        transform itself is deterministic float for float (its module
        docstring has the argument), so coefficients are bit-identical
        whatever the chunking.  ``add_many`` has already checked every
        value against the domain and the sort order, so the position is
        the plain offset ``value - lo``; ``transform.add`` still checks
        it is in range and strictly increasing.
        """
        current = self._current_value
        frequency = self._current_frequency
        transform_add = self._transform.add
        lo = self.domain.lo
        for value in values:
            if value == current:
                frequency += 1
            else:
                if current is not None:
                    transform_add(current - lo, float(frequency))
                current = value
                frequency = 1
        self._current_value = current
        self._current_frequency = frequency
        self._count += len(values)

    def _flush_pending(self) -> None:
        if self._current_value is not None:
            self._transform.add(
                self._current_value - self.domain.lo,
                float(self._current_frequency),
            )

    def _build(self) -> WaveletSynopsis:
        self._flush_pending()
        coefficients = {
            c.index: c.value for c in self._transform.finish()
        }
        return WaveletSynopsis(
            self.domain, self.budget, coefficients, total_count=self._count
        )
