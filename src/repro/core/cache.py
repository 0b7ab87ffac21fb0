"""The merged-synopsis cache (paper Section 3.5, Algorithm 2's fast path).

"To amortize the cost of computing estimates during query optimization,
we periodically merge appropriate synopses (i.e., wavelets and
equi-width histograms) and cache the produced synopsis on the Cluster
Controller side ... we recompute a whole combined synopsis whenever a
new piece of statistics is received from a storage node rather than
maintaining it incrementally, and we invalidate the previous merged
version at that time." (Section 3.5)

This is the cache consulted by Algorithm 2's ``isStale`` test:
staleness is detected by comparing the cached catalog version against
the catalog's current per-index version, and a stale entry is dropped
on sight (Algorithm 2 lines 6-8) before the estimator falls back to
the per-component summation path.  The recompute that follows is still
the paper's "whole combined synopsis" -- nothing is maintained
incrementally -- as one N-ary ``merge_with`` per side
(:meth:`CardinalityEstimator._fold`).

Byte listeners and the two gauges are published once per change of
the accounted bytes: a ``put`` is one publish whether or not it evicts,
and a ``set_capacity`` that evicts nothing is none (the cluster
re-targets the bound on every estimate under a memory budget).

The cache is *capacity-bounded*: entries are kept in least-recently-used
order (a hit refreshes recency) and inserting past ``capacity_bytes``
evicts from the cold end until the budget holds again -- the eviction
lever the per-node :class:`~repro.lsm.memory.MemoryArbiter` pulls when
an estimate-light phase shrinks the cache share.  Eviction is safe by
construction: a victim merely costs one deterministic re-merge on the
next estimate for its index, so cache pressure can never change an
estimate's value (``racecheck --memory`` exercises exactly this).

Cache traffic is observable twice over: the ``hits`` / ``misses`` /
``invalidations`` / ``evictions`` attributes and the ``cache.*``
metrics of the registry bound at construction (docs/OBSERVABILITY.md),
which let a ``repro stats`` snapshot report the hit ratio that makes
Figure 6b's flat overhead curve possible.  The attributes stay beside
the registry because they count per cache, not per registry:
e2ebench's ``estimate_mix`` reads ``hits`` and ``misses`` of the
master's cache by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import get_registry
from repro.synopses.base import Synopsis

__all__ = ["CachedMergedSynopsis", "MergedSynopsisCache"]

_ENTRY_OVERHEAD_BYTES = 64
"""Fixed per-entry cost: key string, dataclass, dict slot."""


@dataclass(frozen=True)
class CachedMergedSynopsis:
    """A merged synopsis pair plus the catalog version it was built at."""

    synopsis: Synopsis
    anti_synopsis: Synopsis
    version: int

    def memory_bytes(self) -> int:
        """Accounted footprint of this entry (payload model bytes)."""
        return (
            _ENTRY_OVERHEAD_BYTES
            + self.synopsis.payload_bytes()
            + self.anti_synopsis.payload_bytes()
        )


class MergedSynopsisCache:
    """Per-index LRU cache of merged (regular, anti-matter) synopses.

    ``capacity_bytes=None`` (the default) keeps the historical unbounded
    behaviour; with a capacity the cache holds its accounted bytes under
    the bound, except that the most recent entry is always admitted --
    a single oversized merge must not wedge the fast path off entirely.
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        # Insertion order doubles as recency order: hits reinsert.
        self._cache: dict[str, CachedMergedSynopsis] = {}
        self._capacity = capacity_bytes
        self._bytes = 0
        self._bytes_listeners: list = []
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        obs = get_registry()
        self._m_hit = obs.counter("cache.merged.hit")
        self._m_miss = obs.counter("cache.merged.miss")
        self._m_invalidation = obs.counter("cache.merged.invalidation")
        self._m_evictions = obs.counter("cache.evictions")
        self._g_size = obs.gauge("cache.merged.size")
        self._g_bytes = obs.gauge("cache.bytes")

    @property
    def capacity_bytes(self) -> int | None:
        """The current byte bound (``None`` = unbounded)."""
        return self._capacity

    def memory_bytes(self) -> int:
        """Accounted resident bytes, maintained incrementally."""
        return self._bytes

    def add_bytes_listener(self, listener) -> None:
        """Register a callback fired (with the new byte total) whenever
        the cache's accounted bytes change -- how an attached
        :class:`~repro.lsm.memory.MemoryArbiter` keeps its accounted
        total and high-water mark current between dataset publishes."""
        self._bytes_listeners.append(listener)

    def set_capacity(self, capacity_bytes: int | None) -> None:
        """Re-target the bound (the memory arbiter's hook); shrinking
        evicts immediately from the cold end."""
        self._capacity = capacity_bytes
        before = self._bytes
        self._evict_over_capacity()
        if self._bytes != before:
            self._publish()

    def get(self, index_name: str, current_version: int) -> CachedMergedSynopsis | None:
        """The cached merge, or ``None`` when absent or stale.

        A stale entry is invalidated on sight (Algorithm 2 lines 6-8);
        a hit refreshes the entry's LRU recency.
        """
        cached = self._cache.get(index_name)
        if cached is None:
            self.misses += 1
            self._m_miss.inc()
            return None
        if cached.version != current_version:
            self._drop(index_name, cached)
            self.invalidations += 1
            self.misses += 1
            self._m_invalidation.inc()
            self._m_miss.inc()
            return None
        # Move to the hot end: delete + reinsert keeps dict order = LRU.
        del self._cache[index_name]
        self._cache[index_name] = cached
        self.hits += 1
        self._m_hit.inc()
        return cached

    def peek(self, index_name: str) -> CachedMergedSynopsis | None:
        """The cached merge for an index *regardless of staleness*.

        The degraded-answer path of the estimate service: under
        overload a possibly-stale merged synopsis beats a shed request.
        Deliberately side-effect free -- no staleness invalidation, no
        LRU refresh, no hit/miss accounting -- so degraded reads cannot
        perturb the primary path's behaviour or metrics.
        """
        return self._cache.get(index_name)

    def put(
        self,
        index_name: str,
        synopsis: Synopsis,
        anti_synopsis: Synopsis,
        version: int,
    ) -> None:
        """Cache the merged pair computed at catalog ``version``."""
        previous = self._cache.pop(index_name, None)
        if previous is not None:
            self._bytes -= previous.memory_bytes()
        entry = CachedMergedSynopsis(synopsis, anti_synopsis, version)
        self._cache[index_name] = entry
        self._bytes += entry.memory_bytes()
        self._evict_over_capacity()
        self._publish()

    def invalidate(self, index_name: str) -> None:
        """Explicitly drop a cached merge."""
        cached = self._cache.get(index_name)
        if cached is not None:
            self._drop(index_name, cached)
            self.invalidations += 1
            self._m_invalidation.inc()

    def clear(self) -> None:
        """Drop everything (does not reset counters)."""
        self._cache.clear()
        self._bytes = 0
        self._publish()

    def __len__(self) -> int:
        return len(self._cache)

    def _evict_over_capacity(self) -> None:
        """Evict cold entries until the bound holds (keeps >= 1 entry).
        The caller publishes, once, if the bytes moved."""
        if self._capacity is None:
            return
        while self._bytes > self._capacity and len(self._cache) > 1:
            victim_name = next(iter(self._cache))
            victim = self._cache.pop(victim_name)
            self._bytes -= victim.memory_bytes()
            self.evictions += 1
            self._m_evictions.inc()

    def _drop(self, index_name: str, cached: CachedMergedSynopsis) -> None:
        del self._cache[index_name]
        self._bytes -= cached.memory_bytes()
        self._publish()

    def _publish(self) -> None:
        self._g_size.set(len(self._cache))
        self._g_bytes.set(self._bytes)
        for listener in self._bytes_listeners:
            listener(self._bytes)
