"""Range-cardinality estimation over catalogued synopses (Algorithm 2).

For a range query on an indexed attribute the total estimate combines
every catalogued per-component synopsis: regular estimates add,
anti-matter estimates subtract (Section 3.3).  The query's bounds are
whatever the index's synopses take -- ``(lo, hi)`` for a 1-D index, the
rectangle ``(lo_x, hi_x, lo_y, hi_y)`` for a composite-key or R-tree
index -- and are handed through untouched.  For mergeable synopsis
types the estimator opportunistically folds the per-component synopses
into one merged pair, caches it on the cluster-controller side, and
answers subsequent queries from the cache until new statistics arrive
(Algorithm 2).

The fold is Section 3.5's recompute of "a whole combined synopsis": on
a cache miss both estimate lanes (range and NDV) hand *all* catalogued
entries to one N-ary ``merge_with`` per side through the one
:meth:`CardinalityEstimator._fold`; what that costs is the family's
business (one vectorised register union, one column sum, or the
pairwise left fold where order shows).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog, StatisticsEntry
from repro.errors import MergeabilityError, SynopsisError
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    get_registry,
    sanitize_segment,
)
from repro.synopses.base import Synopsis
from repro.synopses.hll import HyperLogLogSynopsis, ndv_statistics_key

__all__ = ["EstimateResult", "NDVEstimate", "CardinalityEstimator"]


@dataclass(frozen=True)
class EstimateResult:
    """An estimate plus the bookkeeping the evaluation reports.

    Attributes:
        estimate: The (non-negative) cardinality estimate.
        synopses_consulted: Per-component synopses read (0 on a cache hit).
        from_cache: Whether the merged-synopsis fast path answered.
        overhead_seconds: Wall-clock time spent inside the estimator --
            the "query time overhead" of Figures 6b and 8.
        degraded: Whether this answer came from the degraded path (a
            possibly-stale cached synopsis served under overload);
            always ``False`` on the primary estimate path.
    """

    estimate: float
    synopses_consulted: int
    from_cache: bool
    overhead_seconds: float
    degraded: bool = False


@dataclass(frozen=True)
class NDVEstimate:
    """A distinct-value estimate with its anti-matter interval.

    Deletes make the true NDV uncertain: a key counted by the matter
    sketch may have been fully erased by tombstones, but register
    unions cannot subtract.  The framework therefore reports the
    interval ``[max(0, matter - anti), matter]`` and takes the
    conservative lower end as the point estimate (docs/SKETCHES.md).

    Attributes:
        ndv: The point estimate (the interval's conservative low end).
        lower: Interval low end, ``max(0, matter_ndv - anti_ndv)``.
        upper: Interval high end, ``matter_ndv`` (no key can be
            distinct in the dataset without appearing as matter).
        matter_ndv: The unioned matter sketch's cardinality.
        anti_ndv: The unioned anti-matter sketch's cardinality.
        synopses_consulted: Per-component sketches read (0 on a cache
            hit).
        from_cache: Whether the cached unioned pair answered.
        overhead_seconds: Wall-clock time inside the estimator.
    """

    ndv: float
    lower: float
    upper: float
    matter_ndv: float
    anti_ndv: float
    synopses_consulted: int
    from_cache: bool
    overhead_seconds: float


class CardinalityEstimator:
    """Implements the paper's Algorithm 2."""

    def __init__(
        self,
        catalog: StatisticsCatalog,
        cache: MergedSynopsisCache | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.catalog = catalog
        self.cache = cache
        self._obs = registry if registry is not None else get_registry()
        self._m_estimates = self._obs.counter("estimator.estimate.count")
        self._m_cache_hits = self._obs.counter("estimator.cache_hit.count")
        self._m_lazy_merges = self._obs.counter("estimator.lazy_merge.count")
        self._h_estimate = self._obs.histogram("estimator.estimate.seconds")
        self._h_lazy_merge = self._obs.histogram("estimator.lazy_merge.seconds")
        self._m_unions = self._obs.counter("sketch.union.count")
        # Per-family latency histograms, resolved once: the name lookup
        # (a regex and a registry probe) cost a third of a cache hit.
        self._h_family: dict[enum.Enum, Histogram] = {}

    def _observe(self, elapsed: float, synopsis: Synopsis | None) -> None:
        """Record one estimate's latency, overall and per synopsis type."""
        self._m_estimates.inc()
        self._h_estimate.observe(elapsed)
        if synopsis is not None:
            family = synopsis.synopsis_type
            histogram = self._h_family.get(family)
            if histogram is None:
                histogram = self._h_family[family] = self._obs.histogram(
                    "estimator.estimate.seconds."
                    + sanitize_segment(family.value)
                )
            histogram.observe(elapsed)

    def _fold(
        self, key: str, version: int, entries: Sequence[StatisticsEntry]
    ) -> tuple[Synopsis, Synopsis]:
        """Algorithm 2's recompute: the combined (matter, anti-matter)
        pair of ``entries``, one N-ary ``merge_with`` per side, cached
        at ``version``.  All-or-nothing: a :class:`MergeabilityError`
        propagates with nothing cached or counted.

        A lazy merge is cached (and accounted) only when one actually
        ran.  With a single catalog entry nothing is merged: caching it
        would alias the catalog-owned synopsis objects into the cache
        and inflate the lazy-merge metrics with zero-time observations,
        while the summation path is already as cheap as a cache hit.
        """
        first, rest = entries[0], entries[1:]
        if not rest:
            return first.synopsis, first.anti_synopsis
        started = time.perf_counter()
        merged = first.synopsis.merge_with(*[e.synopsis for e in rest])
        merged_anti = first.anti_synopsis.merge_with(
            *[e.anti_synopsis for e in rest]
        )
        elapsed = time.perf_counter() - started
        if self.cache is not None:
            self.cache.put(key, merged, merged_anti, version)
            self._m_lazy_merges.inc()
            self._h_lazy_merge.observe(elapsed)
        return merged, merged_anti

    def estimate(self, index_name: str, *bounds: int) -> float:
        """The cardinality estimate for ``lo <= key <= hi`` (or, on a
        2-D index, for the inclusive rectangle)."""
        return self.estimate_detailed(index_name, *bounds).estimate

    def estimate_detailed(self, index_name: str, *bounds: int) -> EstimateResult:
        """Estimate with overhead/caching diagnostics."""
        started = time.perf_counter()
        version = self.catalog.version_for(index_name)

        # Fast path: a fresh merged synopsis answers directly.
        if self.cache is not None:
            cached = self.cache.get(index_name, version)
            if cached is not None:
                estimate = max(
                    cached.synopsis.estimate(*bounds)
                    - cached.anti_synopsis.estimate(*bounds),
                    0.0,
                )
                elapsed = time.perf_counter() - started
                self._m_cache_hits.inc()
                self._observe(elapsed, cached.synopsis)
                return EstimateResult(estimate, 0, True, elapsed)

        # Slow path: sum every per-component synopsis's answer, then
        # recompute the merged pair for the next query when the type
        # allows it.
        entries = self.catalog.entries_for(index_name)
        # Summed exactly at the end (``math.fsum``): the catalog lists
        # entries in arrival order, which a background scheduler
        # permutes, and a running float sum would let the schedule show
        # in the last ulp of an unmergeable family's estimate.
        contributions = [
            entry.synopsis.estimate(*bounds)
            - entry.anti_synopsis.estimate(*bounds)
            for entry in entries
        ]
        # Merging requires one homogeneous mergeable family.  The guard
        # spares an unmergeable one (equi-height) a raise per estimate;
        # everything else is ``merge_with``'s own check.
        if self.cache is not None and entries and entries[0].synopsis.mergeable:
            try:
                self._fold(index_name, version, entries)
            except MergeabilityError:
                # Mixed types or parameters (a catalog can transiently
                # hold them after a reconfiguration): nothing is
                # cached, the summed answer stands.
                pass

        elapsed = time.perf_counter() - started
        self._observe(elapsed, entries[0].synopsis if entries else None)
        return EstimateResult(
            max(math.fsum(contributions), 0.0),
            len(entries),
            False,
            elapsed,
        )

    def estimate_ndv(self, index_name: str) -> float:
        """Point NDV estimate for ``index_name``'s sketch lane."""
        return self.estimate_ndv_detailed(index_name).ndv

    def estimate_ndv_detailed(self, index_name: str) -> NDVEstimate:
        """Distinct-value estimate from the ``#ndv`` sketch lane.

        Unions every catalogued per-component HLL pair register-wise
        (exact -- no accuracy is lost relative to one sketch built over
        the union of the streams), caches the unioned pair under the
        sketch lane's own key, and reports the anti-matter interval.
        ``index_name`` is the *target* key; the sketch lane key is
        derived from it, so callers query the same name they would pass
        to :meth:`estimate`.
        """
        started = time.perf_counter()
        key = ndv_statistics_key(index_name)
        version = self.catalog.version_for(key)

        if self.cache is not None:
            cached = self.cache.get(key, version)
            if cached is not None:
                result = self._ndv_from_pair(
                    cached.synopsis, cached.anti_synopsis, 0, True, started
                )
                self._m_cache_hits.inc()
                self._observe(result.overhead_seconds, cached.synopsis)
                return result

        entries = self.catalog.entries_for(key)
        if not entries:
            raise SynopsisError(
                f"no NDV sketches catalogued under {key!r}; is the "
                "collector configured with ndv_enabled?"
            )
        merged, merged_anti = self._fold(key, version, entries)
        # One matter + one anti register union per folded-in entry.
        self._m_unions.inc(2 * (len(entries) - 1))

        result = self._ndv_from_pair(
            merged, merged_anti, len(entries), False, started
        )
        self._observe(result.overhead_seconds, merged)
        return result

    def _ndv_from_pair(
        self,
        synopsis: Synopsis,
        anti_synopsis: Synopsis,
        consulted: int,
        from_cache: bool,
        started: float,
    ) -> NDVEstimate:
        if not isinstance(synopsis, HyperLogLogSynopsis) or not isinstance(
            anti_synopsis, HyperLogLogSynopsis
        ):
            raise SynopsisError(
                "NDV estimation requires hll_sketch synopses, found "
                f"{synopsis.synopsis_type.value}"
            )
        matter_ndv = synopsis.cardinality()
        anti_ndv = anti_synopsis.cardinality()
        lower = max(0.0, matter_ndv - anti_ndv)
        return NDVEstimate(
            ndv=lower,
            lower=lower,
            upper=matter_ndv,
            matter_ndv=matter_ndv,
            anti_ndv=anti_ndv,
            synopses_consulted=consulted,
            from_cache=from_cache,
            overhead_seconds=time.perf_counter() - started,
        )
