"""Tests for the merged-synopsis cache."""

from repro.core.cache import MergedSynopsisCache
from repro.obs.registry import MetricsRegistry
from repro.synopses import SynopsisType, create_builder
from repro.types import Domain


def _synopsis():
    return create_builder(SynopsisType.EQUI_WIDTH, Domain(0, 9), 4, 0).build()


def _entry_bytes():
    """Accounted bytes of one cached pair built by :func:`_synopsis`."""
    cache = MergedSynopsisCache()
    cache.put("probe", _synopsis(), _synopsis(), version=1)
    return cache.memory_bytes()


def test_miss_on_empty():
    cache = MergedSynopsisCache()
    assert cache.get("idx", 1) is None
    assert cache.misses == 1
    assert cache.hits == 0


def test_hit_on_matching_version():
    cache = MergedSynopsisCache()
    cache.put("idx", _synopsis(), _synopsis(), version=3)
    cached = cache.get("idx", 3)
    assert cached is not None
    assert cached.version == 3
    assert cache.hits == 1


def test_stale_version_invalidates():
    cache = MergedSynopsisCache()
    cache.put("idx", _synopsis(), _synopsis(), version=3)
    assert cache.get("idx", 4) is None
    assert cache.invalidations == 1
    assert len(cache) == 0
    # The stale entry is gone for good.
    assert cache.get("idx", 3) is None


def test_explicit_invalidate():
    cache = MergedSynopsisCache()
    cache.put("idx", _synopsis(), _synopsis(), version=1)
    cache.invalidate("idx")
    assert cache.invalidations == 1
    cache.invalidate("idx")  # idempotent, no double count
    assert cache.invalidations == 1


def test_clear_keeps_counters():
    cache = MergedSynopsisCache()
    cache.put("a", _synopsis(), _synopsis(), version=1)
    cache.get("a", 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1
    assert cache.memory_bytes() == 0


# -- capacity-bounded LRU behaviour ------------------------------------------


def test_unbounded_by_default():
    cache = MergedSynopsisCache()
    assert cache.capacity_bytes is None
    for i in range(64):
        cache.put(f"idx{i}", _synopsis(), _synopsis(), version=1)
    assert len(cache) == 64
    assert cache.evictions == 0


def test_capacity_evicts_least_recently_used_first():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=3 * entry)
    for name in ("a", "b", "c"):
        cache.put(name, _synopsis(), _synopsis(), version=1)
    # Touch "a": it becomes the hottest entry, "b" the coldest.
    assert cache.get("a", 1) is not None
    cache.put("d", _synopsis(), _synopsis(), version=1)
    assert cache.evictions == 1
    assert cache.get("b", 1) is None  # the LRU victim
    assert cache.get("a", 1) is not None
    assert cache.get("c", 1) is not None
    assert cache.get("d", 1) is not None
    assert cache.memory_bytes() == 3 * entry


def test_newest_entry_always_admitted():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=entry // 2)
    cache.put("big", _synopsis(), _synopsis(), version=1)
    # Over budget, but a lone oversized merge must not wedge the fast
    # path off entirely.
    assert cache.get("big", 1) is not None
    cache.put("next", _synopsis(), _synopsis(), version=1)
    assert cache.get("big", 1) is None  # evicted by the newer entry
    assert cache.get("next", 1) is not None


def test_set_capacity_shrink_evicts_immediately():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=4 * entry)
    for name in ("a", "b", "c", "d"):
        cache.put(name, _synopsis(), _synopsis(), version=1)
    cache.set_capacity(2 * entry)
    assert len(cache) == 2
    assert cache.evictions == 2
    assert cache.memory_bytes() == 2 * entry
    assert {n for n in ("c", "d") if cache.get(n, 1) is not None} == {"c", "d"}


def test_put_replacement_does_not_double_count_bytes():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=8 * entry)
    cache.put("a", _synopsis(), _synopsis(), version=1)
    cache.put("a", _synopsis(), _synopsis(), version=2)
    assert cache.memory_bytes() == entry
    assert cache.evictions == 0


def test_readmission_after_invalidation():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=2 * entry)
    cache.put("a", _synopsis(), _synopsis(), version=1)
    cache.invalidate("a")
    assert cache.memory_bytes() == 0
    # Re-admission: the slot is genuinely free again.
    cache.put("a", _synopsis(), _synopsis(), version=2)
    assert cache.get("a", 2) is not None
    assert cache.memory_bytes() == entry


def test_readmission_after_stale_drop():
    entry = _entry_bytes()
    cache = MergedSynopsisCache(capacity_bytes=2 * entry)
    cache.put("a", _synopsis(), _synopsis(), version=1)
    assert cache.get("a", 5) is None  # stale-on-sight drop
    assert cache.memory_bytes() == 0
    cache.put("a", _synopsis(), _synopsis(), version=5)
    assert cache.get("a", 5) is not None


def test_eviction_and_bytes_metrics():
    entry = _entry_bytes()
    registry = MetricsRegistry()
    cache = MergedSynopsisCache(registry=registry, capacity_bytes=2 * entry)
    for name in ("a", "b", "c"):
        cache.put(name, _synopsis(), _synopsis(), version=1)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["cache.evictions"] == cache.evictions == 1
    assert snapshot["gauges"]["cache.bytes"] == cache.memory_bytes() == 2 * entry


def test_bytes_listener_fires_on_every_change():
    observed: list[int] = []
    cache = MergedSynopsisCache(capacity_bytes=_entry_bytes())
    cache.add_bytes_listener(observed.append)
    cache.put("a", _synopsis(), _synopsis(), version=1)
    cache.put("b", _synopsis(), _synopsis(), version=1)  # evicts "a"
    cache.invalidate("b")
    assert observed[-1] == 0
    assert max(observed) == _entry_bytes()


def test_bytes_listener_fires_once_per_change_and_never_without_one():
    entry = _entry_bytes()
    observed: list[int] = []
    cache = MergedSynopsisCache(capacity_bytes=4 * entry)
    cache.add_bytes_listener(observed.append)
    cache.put("a", _synopsis(), _synopsis(), version=1)
    assert observed == [entry]  # one put, one call
    cache.put("b", _synopsis(), _synopsis(), version=1)
    cache.put("c", _synopsis(), _synopsis(), version=1)
    del observed[:]
    # What LSMCluster does on every estimate under a memory budget:
    # re-target an unchanged (or roomier) bound.  Nothing moved.
    cache.set_capacity(4 * entry)
    cache.set_capacity(8 * entry)
    cache.set_capacity(None)
    assert observed == []
    cache.set_capacity(entry)  # evicts two entries: still one call
    assert observed == [entry]
    del observed[:]
    cache.put("d", _synopsis(), _synopsis(), version=1)  # a put that evicts
    assert observed == [entry]
