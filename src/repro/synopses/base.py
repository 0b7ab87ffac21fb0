"""The synopsis protocol.

A synopsis is a fixed-budget statistical summary of the values observed
in one LSM component (paper Section 3.2).  All synopsis types share:

* a construction budget of ``budget`` *elements*, where one element is
  one histogram bucket or one wavelet coefficient -- by construction
  each occupies the same space, so storage costs compare directly;
* a builder consuming a *non-decreasing* stream of integer values (the
  sorted order is imposed for free by the index being flushed/merged);
* a range estimator ``estimate(lo, hi)`` answering how many observed
  values fall into the inclusive range;
* a ``mergeable`` flag: equi-width histograms and wavelets can be
  combined into one synopsis, equi-height histograms cannot
  (Section 3.5).

Synopses serialise to plain payload dicts so the simulated cluster can
ship them over its byte-counting network channel.
"""

from __future__ import annotations

import enum
import operator
from abc import ABC, abstractmethod
from array import array
from typing import Any, ClassVar, Iterable, Sequence

from repro.errors import MergeabilityError, SynopsisError
from repro.types import Domain
from repro.util.npbackend import INT64_TYPECODE

__all__ = [
    "SynopsisType",
    "Synopsis",
    "SynopsisBuilder",
    "payload_counts",
    "payload_domain",
    "plain_ints",
]

_INT64_MAX = (1 << 63) - 1
_DOMAINS: dict[tuple[int, int], Domain] = {}
_DOMAINS_CAP = 4096


def payload_domain(bounds: Sequence[Any]) -> Domain:
    """A payload's ``[lo, hi]`` as a :class:`Domain`, one shared object
    per integer pair.

    Every decoded synopsis of an index then holds the *same* domain
    object, so the per-input compatibility checks of a merge or a
    batched estimate (:meth:`Synopsis.merge_with`,
    :meth:`Synopsis.estimate_each`) pass on identity instead of one
    dataclass ``__eq__`` per catalog entry.  Anything but a pair of
    plain ints is built as before, unshared.
    """
    lo, hi = bounds
    if type(lo) is not int or type(hi) is not int:
        return Domain(lo, hi)
    domain = _DOMAINS.get((lo, hi))
    if domain is None:
        if len(_DOMAINS) >= _DOMAINS_CAP:
            _DOMAINS.clear()
        domain = _DOMAINS[lo, hi] = Domain(lo, hi)
    return domain


def plain_ints(values: Iterable[Any], what: str) -> list[int]:
    """``values`` as a list, or :class:`SynopsisError` unless every one
    is a plain ``int`` -- ``bool``, ``float`` and the rest are what a
    wire frame or catalog file can carry and a builder never makes."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(value for value in values if type(value) is not int)
        raise SynopsisError(f"{what} must be ints, got {bad!r}")
    return values


def payload_counts(values: Iterable[Any], what: str) -> list[int]:
    """A payload's bucket counts: :func:`plain_ints`, none negative.
    (Their sum is the synopsis's ``total_count``, which the constructor
    bounds by int64 -- and so every count with it.)"""
    counts = plain_ints(values, what)
    if counts and min(counts) < 0:
        raise SynopsisError(f"{what} must be non-negative, got {min(counts)}")
    return counts


class SynopsisType(enum.Enum):
    """The synopsis families implemented by the framework.

    The first three are the paper's shipped synopses.  ``V_OPTIMAL``
    and ``MAX_DIFF`` are the accuracy-superior baselines from Poosala
    et al. that the paper *excludes* from the ingestion path for their
    construction cost (Section 1/2) -- implemented here so that
    trade-off can be measured.  ``GK_SKETCH`` and ``RESERVOIR_SAMPLE``
    are the paper's named future-work directions (Section 5): both
    tolerate *unsorted* input, so they extend statistics to
    non-indexed attributes.  ``HLL_SKETCH`` is the distinct-value
    family (docs/SKETCHES.md): order-insensitive, exactly mergeable by
    register union, and answering NDV instead of record counts.
    """

    EQUI_WIDTH = "equi_width"
    EQUI_HEIGHT = "equi_height"
    WAVELET = "wavelet"
    GROUND_TRUTH = "ground_truth"
    V_OPTIMAL = "v_optimal"
    MAX_DIFF = "max_diff"
    GK_SKETCH = "gk_sketch"
    RESERVOIR_SAMPLE = "reservoir_sample"
    HLL_SKETCH = "hll_sketch"

    @property
    def mergeable(self) -> bool:
        """Whether two synopses of this type can be combined into one."""
        return self in (
            SynopsisType.EQUI_WIDTH,
            SynopsisType.WAVELET,
            SynopsisType.GROUND_TRUTH,
            SynopsisType.GK_SKETCH,
            SynopsisType.HLL_SKETCH,
        )

    @property
    def requires_sorted_input(self) -> bool:
        """Whether the builder needs the key-sorted LSM stream.

        Sketches and samples work on any order -- the property the
        paper's future work needs for non-indexed attributes.
        """
        return self not in (
            SynopsisType.GK_SKETCH,
            SynopsisType.RESERVOIR_SAMPLE,
            SynopsisType.HLL_SKETCH,
        )


class Synopsis(ABC):
    """An immutable statistical summary of one value stream."""

    synopsis_type: ClassVar[SynopsisType]

    def __init__(self, domain: Domain, budget: int, total_count: int) -> None:
        if budget < 1:
            raise SynopsisError(f"budget must be >= 1, got {budget}")
        if total_count < 0:
            raise SynopsisError(f"negative total_count {total_count}")
        if total_count > _INT64_MAX:
            # No count of a non-negative histogram can then pass int64.
            raise SynopsisError(f"total_count {total_count} overflows int64")
        self.domain = domain
        self.budget = budget
        self.total_count = total_count

    @property
    def mergeable(self) -> bool:
        """Whether this synopsis can be merged with a compatible one."""
        return self.synopsis_type.mergeable

    @property
    @abstractmethod
    def element_count(self) -> int:
        """Number of budget elements actually used (<= budget)."""

    @abstractmethod
    def estimate(self, lo: int, hi: int) -> float:
        """Estimated number of observed values in the inclusive range
        ``[lo, hi]``; never negative."""

    @classmethod
    def estimate_each(
        cls, synopses: Sequence["Synopsis"], *bounds: int
    ) -> list[float]:
        """``[s.estimate(*bounds) for s in synopses]``, float for float.

        Algorithm 2's summation path asks every catalogued component
        the same range at once.  The default is one walk each; a family
        whose walk vectorises across a stack of like-shaped synopses
        overrides this for inputs it can stack and must return exactly
        the walk's floats (``tests/synopses/test_readpath.py``).  Called
        through the first synopsis, so mixed inputs reach the default.
        """
        return [synopsis.estimate(*bounds) for synopsis in synopses]

    def merge_with(self, *others: "Synopsis") -> "Synopsis":
        """Combine synopses summarising disjoint record sets.

        The contract: the result is identical to the left fold of
        2-ary merges in argument order, ``((self + o1) + o2) + ...``;
        with no argument it equals ``self``.  Every argument is checked
        before anything is built, so an incompatible one at any
        position raises :class:`~repro.errors.MergeabilityError` (for
        inherently unmergeable types -- equi-height histograms -- or
        incompatible parameters).  The single merge entry point of
        every family; the type-specific work is :meth:`_merge` or
        :meth:`_merge_all`.
        """
        if not self.mergeable:
            raise MergeabilityError(
                f"{self.synopsis_type.value} synopses are not mergeable"
            )
        # One pass of attribute tests, identity first: the domains of
        # decoded synopses are shared objects (:func:`payload_domain`).
        family, domain, budget = self.synopsis_type, self.domain, self.budget
        for other in others:
            if other.synopsis_type is not family:
                raise MergeabilityError(
                    f"cannot merge {family.value} with {other.synopsis_type.value}"
                )
            if other.budget != budget or (
                other.domain is not domain and other.domain != domain
            ):
                raise MergeabilityError(
                    "cannot merge synopses with different domains or budgets"
                )
        return self._merge_all(others)

    def _merge_all(self, others: Sequence["Synopsis"]) -> "Synopsis":
        """Fold pre-checked ``others`` into ``self``, left to right.

        The default runs :meth:`_merge` per argument: the pairwise
        semantics of the families where fold order can show in the
        payload (wavelet thresholding, GK compression).  An exactly
        associative family overrides this with one pass over all
        inputs *instead of* implementing :meth:`_merge`, never both.
        """
        merged = self
        for other in others:
            merged = merged._merge(other)
        return merged

    def _merge(self, other: "Synopsis") -> "Synopsis":
        raise MergeabilityError(
            f"{self.synopsis_type.value} does not implement merging"
        )  # pragma: no cover - overridden by mergeable types

    @abstractmethod
    def to_payload(self) -> dict[str, Any]:
        """A plain-data representation -- dicts, lists, ints, floats,
        strings, ``bytes`` -- that :mod:`repro.cluster.wire` frames for
        the network and the catalog file."""

    def payload_bytes(self) -> int:
        """Approximate serialised size: 16 bytes per element plus a
        small fixed header (one element = border+count or index+value,
        i.e. two 8-byte words -- the paper's like-for-like accounting)."""
        return 32 + 16 * self.element_count


class SynopsisBuilder(ABC):
    """Streaming builder fed by the bulkload record stream.

    When ``requires_sorted_input`` is set (the default -- histograms
    and wavelets exploit the index order), ``add`` must be called with
    a non-decreasing sequence of integer values (duplicates allowed --
    secondary keys repeat).  Sketch/sample builders clear the flag and
    accept any order.  ``build`` finalises and returns the synopsis;
    builders are single-use.
    """

    requires_sorted_input: ClassVar[bool] = True

    def __init__(self, domain: Domain, budget: int) -> None:
        if budget < 1:
            raise SynopsisError(f"budget must be >= 1, got {budget}")
        self.domain = domain
        self.budget = budget
        self._last_value: int | None = None
        self._count = 0
        self._built = False

    def add(self, value: int) -> None:
        """Observe one value: a chunk of one through :meth:`add_many`
        (the API edge for callers holding single values)."""
        self.add_many((value,))

    def add_many(self, values: Iterable[int]) -> None:
        """Observe a chunk of values from the stream (batched hot path).

        The one entry point of every family: the validation
        (finalised-builder, domain membership, sort order) is amortised
        over the whole chunk, and any chunking of a stream -- down to
        one value per call -- produces a bit-identical synopsis; the
        test suite asserts this for every registered synopsis family.

        A typed ``array('q')`` chunk (the columnar pipeline's zero-copy
        key column, docs/DATAPATH.md) is consumed without the
        normalising copy -- its elements are already plain 64-bit ints.
        """
        if self._built:
            raise SynopsisError("builder already finalised")
        chunk: Sequence[int]
        if isinstance(values, array) and values.typecode == INT64_TYPECODE:
            chunk = values  # iteration/indexing yield plain Python ints
        else:
            chunk = list(map(int, values))  # normalise numpy scalars
        if not chunk:
            return
        if self.requires_sorted_input:
            if self._last_value is not None and chunk[0] < self._last_value:
                raise SynopsisError(
                    f"builder requires non-decreasing input: {chunk[0]} "
                    f"after {self._last_value}"
                )
            if not all(map(operator.le, chunk, chunk[1:])):
                for left, right in zip(chunk, chunk[1:]):
                    if right < left:
                        raise SynopsisError(
                            f"builder requires non-decreasing input: {right} "
                            f"after {left}"
                        )
            least, greatest = chunk[0], chunk[-1]  # sorted: the ends
        else:
            least, greatest = min(chunk), max(chunk)
        lo, hi = self.domain.lo, self.domain.hi
        if not (lo <= least and greatest <= hi):
            bad = next(v for v in chunk if v < lo or v > hi)
            raise SynopsisError(
                f"value {bad} outside domain [{lo}, {hi}]"
            )
        self._last_value = chunk[-1]
        self._add_many(chunk)

    def memory_bytes(self) -> int:
        """Accounted transient footprint while the builder rides a
        flush/merge (docs/MEMORY.md): the budget-element state at 16
        bytes per element plus a fixed header -- the same like-for-like
        accounting as :meth:`Synopsis.payload_bytes`.  Builders whose
        working set exceeds their budget elements (e.g. buffering
        quantile sketches) override this."""
        return 64 + 16 * self.budget

    def build(self) -> Synopsis:
        """Finalise and return the synopsis (single use)."""
        if self._built:
            raise SynopsisError("builder already finalised")
        self._built = True
        return self._build()

    def _add(self, value: int) -> None:
        """Type-specific step for one pre-validated value, run by the
        default :meth:`_add_many` after ``_count`` was advanced.  A
        family implements this *or* overrides :meth:`_add_many`, never
        both."""
        raise NotImplementedError

    def _add_many(self, values: Sequence[int]) -> None:
        """Type-specific batched step over pre-validated values.

        ``values`` is either a plain list or a typed ``array('q')``
        column; both iterate as plain Python ints.  The default runs
        :meth:`_add` per value; hot builders override it with a loop
        that binds attributes once and must then advance ``_count``
        themselves (some, e.g. GK sketches and reservoir samples, read
        the running count inside the loop).
        """
        for value in values:
            self._count += 1
            self._add(value)

    @abstractmethod
    def _build(self) -> Synopsis:
        """Type-specific finalisation."""
