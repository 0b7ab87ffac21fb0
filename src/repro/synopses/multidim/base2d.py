"""Two-dimensional synopses (the paper's multidimensional future work).

Section 5: "we plan to extend the proposed statistics-collection
approach ... to multidimensional index types (e.g., B-Trees with
composite keys and R-Trees)", citing the multidimensional histogram
[49] and wavelet [48, 50] literature.  This subpackage provides that
extension for two-attribute composite keys: the builder consumes
``(x, y)`` pairs in the lexicographic order a composite-key B-tree's
bulkload stream delivers, and the synopsis answers *rectangle* queries
``lo_x <= x <= hi_x AND lo_y <= y <= hi_y`` -- the predicate shape
where the classic attribute-independence assumption (estimate each
dimension separately and multiply selectivities) breaks down on
correlated data.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Any, ClassVar, Iterable, Sequence

from repro.errors import MergeabilityError, SynopsisError
from repro.types import Domain

__all__ = ["Synopsis2DType", "Synopsis2D", "Synopsis2DBuilder"]


class Synopsis2DType(enum.Enum):
    """The implemented two-dimensional synopsis families."""

    GRID = "grid_2d"  # equi-width grid histogram [49]
    WAVELET = "wavelet_2d"  # standard (tensor) Haar decomposition [48]
    GROUND_TRUTH = "ground_truth_2d"  # exact oracle, diagnostics only

    @property
    def mergeable(self) -> bool:
        """Whether two synopses of this type can be combined."""
        return True  # all three have data-independent structure


class Synopsis2D(ABC):
    """An immutable summary of a stream of ``(x, y)`` value pairs."""

    synopsis_type: ClassVar[Synopsis2DType]

    def __init__(
        self,
        domains: tuple[Domain, Domain],
        budget: int,
        total_count: int,
    ) -> None:
        if budget < 1:
            raise SynopsisError(f"budget must be >= 1, got {budget}")
        if total_count < 0:
            raise SynopsisError(f"negative total_count {total_count}")
        self.domains = domains
        self.budget = budget
        self.total_count = total_count

    @property
    def mergeable(self) -> bool:
        """Whether this synopsis can merge with a compatible one."""
        return self.synopsis_type.mergeable

    @property
    @abstractmethod
    def element_count(self) -> int:
        """Budget elements actually used."""

    @abstractmethod
    def estimate(self, lo_x: int, hi_x: int, lo_y: int, hi_y: int) -> float:
        """Estimated pairs inside the inclusive rectangle; never negative."""

    @classmethod
    def estimate_each(
        cls, synopses: Sequence["Synopsis2D"], *bounds: int
    ) -> list[float]:
        """One :meth:`estimate` per synopsis -- the 1-D
        :meth:`~repro.synopses.base.Synopsis.estimate_each` contract,
        whose default walk the 2-D families keep."""
        return [synopsis.estimate(*bounds) for synopsis in synopses]

    def merge_with(self, *others: "Synopsis2D") -> "Synopsis2D":
        """Combine synopses over disjoint record sets: the left fold of
        2-ary merges in argument order (``self`` for no argument), with
        every argument checked before anything is built -- the 1-D
        :meth:`~repro.synopses.base.Synopsis.merge_with` contract."""
        for other in others:
            if other.synopsis_type is not self.synopsis_type:
                raise MergeabilityError(
                    f"cannot merge {self.synopsis_type.value} with "
                    f"{other.synopsis_type.value}"
                )
            if other.domains != self.domains or other.budget != self.budget:
                raise MergeabilityError(
                    "cannot merge 2-D synopses with different domains or "
                    "budgets"
                )
        merged = self
        for other in others:
            merged = merged._merge(other)
        return merged

    @abstractmethod
    def _merge(self, other: "Synopsis2D") -> "Synopsis2D":
        """Type-specific merge (structures are compatible by contract)."""

    @abstractmethod
    def to_payload(self) -> dict[str, Any]:
        """Plain-data representation (see ``Synopsis.to_payload``)."""

    def payload_bytes(self) -> int:
        """Approximate serialised size (16 bytes per element + header),
        matching the 1-D accounting so space comparisons are fair."""
        return 48 + 16 * self.element_count

    def _clip(
        self, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> tuple[int, int, int, int] | None:
        x = self.domains[0].intersect(lo_x, hi_x)
        y = self.domains[1].intersect(lo_y, hi_y)
        if x is None or y is None:
            return None
        return (*x, *y)


class Synopsis2DBuilder(ABC):
    """Streaming builder over lexicographically sorted ``(x, y)`` pairs."""

    def __init__(self, domains: tuple[Domain, Domain], budget: int) -> None:
        if budget < 1:
            raise SynopsisError(f"budget must be >= 1, got {budget}")
        self.domains = domains
        self.budget = budget
        self._last_pair: tuple[int, int] | None = None
        self._count = 0
        self._built = False

    def add(self, x: int, y: int) -> None:
        """Observe one pair (non-decreasing lexicographic order)."""
        if self._built:
            raise SynopsisError("builder already finalised")
        x, y = int(x), int(y)
        if x not in self.domains[0] or y not in self.domains[1]:
            raise SynopsisError(f"pair ({x}, {y}) outside declared domains")
        if self._last_pair is not None and (x, y) < self._last_pair:
            raise SynopsisError(
                f"builder requires lexicographically sorted pairs: "
                f"({x}, {y}) after {self._last_pair}"
            )
        self._last_pair = (x, y)
        self._count += 1
        self._add(x, y)

    def add_many(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Observe one chunk of the stream (the statistics collector's
        entry point); identical to one :meth:`add` per pair."""
        for x, y in pairs:
            self.add(x, y)

    def build(self) -> Synopsis2D:
        """Finalise (single use)."""
        if self._built:
            raise SynopsisError("builder already finalised")
        self._built = True
        return self._build()

    @abstractmethod
    def _add(self, x: int, y: int) -> None:
        """Type-specific streaming step."""

    @abstractmethod
    def _build(self) -> Synopsis2D:
        """Type-specific finalisation."""
