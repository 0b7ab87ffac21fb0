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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.errors import MergeabilityError, SynopsisError
from repro.obs.registry import MetricsRegistry, get_registry, sanitize_segment
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

    def _observe(self, elapsed: float, synopsis: Synopsis | None) -> None:
        """Record one estimate's latency, overall and per synopsis type."""
        self._m_estimates.inc()
        self._h_estimate.observe(elapsed)
        if synopsis is not None:
            label = sanitize_segment(synopsis.synopsis_type.value)
            self._obs.histogram(
                f"estimator.estimate.seconds.{label}"
            ).observe(elapsed)

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

        # Slow path: combine every per-component synopsis, merging along
        # the way when the type allows it.
        entries = self.catalog.entries_for(index_name)
        # Summed exactly at the end (``math.fsum``): the catalog lists
        # entries in arrival order, which a background scheduler
        # permutes, and a running float sum would let the schedule show
        # in the last ulp of an unmergeable family's estimate.
        contributions: list[float] = []
        merged: Synopsis | None = None
        merged_anti: Synopsis | None = None
        # Merging requires one homogeneous mergeable family; a catalog
        # can transiently hold mixed types/parameters after a
        # reconfiguration, in which case only the summation path runs.
        mergeable = bool(entries) and all(
            e.synopsis.mergeable
            and e.synopsis.synopsis_type is entries[0].synopsis.synopsis_type
            for e in entries
        )
        merge_seconds = 0.0
        merges_ran = 0
        for entry in entries:
            contributions.append(
                entry.synopsis.estimate(*bounds)
                - entry.anti_synopsis.estimate(*bounds)
            )
            if mergeable and self.cache is not None:
                if merged is None:
                    merged, merged_anti = entry.synopsis, entry.anti_synopsis
                else:
                    assert merged_anti is not None
                    merge_started = time.perf_counter()
                    try:
                        merged = merged.merge_with(entry.synopsis)
                        merged_anti = merged_anti.merge_with(entry.anti_synopsis)
                        merges_ran += 1
                    except MergeabilityError:
                        # Incompatible parameters (domain/budget drift):
                        # give up on caching, keep summing.
                        mergeable = False
                        merged = merged_anti = None
                    finally:
                        merge_seconds += time.perf_counter() - merge_started

        # Cache (and account for) a lazy merge only when one actually
        # ran.  With a single catalog entry nothing was merged: caching
        # it would alias the catalog-owned synopsis objects into the
        # cache and inflate the lazy-merge metrics with zero-time
        # observations, while the summation path is already as cheap as
        # a cache hit.
        if merges_ran and merged is not None and merged_anti is not None:
            assert self.cache is not None
            self.cache.put(index_name, merged, merged_anti, version)
            self._m_lazy_merges.inc()
            self._h_lazy_merge.observe(merge_seconds)

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
        merged = entries[0].synopsis
        merged_anti = entries[0].anti_synopsis
        merge_seconds = 0.0
        merges_ran = 0
        for entry in entries[1:]:
            merge_started = time.perf_counter()
            merged = merged.merge_with(entry.synopsis)
            merged_anti = merged_anti.merge_with(entry.anti_synopsis)
            merge_seconds += time.perf_counter() - merge_started
            merges_ran += 1
            self._m_unions.inc(2)  # one matter + one anti register union
        if merges_ran and self.cache is not None:
            self.cache.put(key, merged, merged_anti, version)
            self._m_lazy_merges.inc()
            self._h_lazy_merge.observe(merge_seconds)

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
