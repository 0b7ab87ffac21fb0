"""Focused tests for Algorithm 2's edge cases."""

import pytest

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.estimator import CardinalityEstimator
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses import SynopsisType, create_builder
from repro.types import Domain

DOMAIN = Domain(0, 99)


def _synopsis(values=(), synopsis_type=SynopsisType.EQUI_WIDTH, budget=10):
    builder = create_builder(synopsis_type, DOMAIN, budget, len(values))
    for value in sorted(values):
        builder.add(value)
    return builder.build()


def _estimator(cache=True):
    catalog = StatisticsCatalog()
    estimator = CardinalityEstimator(catalog, MergedSynopsisCache() if cache else None)
    return catalog, estimator


def test_empty_catalog_estimates_zero():
    _catalog, estimator = _estimator()
    result = estimator.estimate_detailed("idx", 0, 99)
    assert result.estimate == 0.0
    assert result.synopses_consulted == 0
    assert not result.from_cache


def test_single_entry():
    catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([10, 20, 30]), _synopsis())
    assert estimator.estimate("idx", 0, 99) == pytest.approx(3)


def test_antimatter_subtraction():
    catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([10, 20, 30]), _synopsis())
    catalog.put("idx", "n", 0, 2, _synopsis(), _synopsis([20]))
    assert estimator.estimate("idx", 0, 99) == pytest.approx(2)


def test_total_clamped_nonnegative():
    catalog, estimator = _estimator()
    # Pathological: more anti-matter than matter (possible when a
    # tombstone's matter record never reached disk).
    catalog.put("idx", "n", 0, 1, _synopsis(), _synopsis([5, 6, 7]))
    assert estimator.estimate("idx", 0, 99) == 0.0


def test_cache_roundtrip_and_consistency():
    catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([1, 2]), _synopsis())
    catalog.put("idx", "n", 0, 2, _synopsis([3]), _synopsis([1]))
    cold = estimator.estimate_detailed("idx", 0, 99)
    warm = estimator.estimate_detailed("idx", 0, 99)
    assert not cold.from_cache and warm.from_cache
    assert warm.estimate == pytest.approx(cold.estimate)
    assert warm.synopses_consulted == 0


def test_no_cache_configured():
    catalog, estimator = _estimator(cache=False)
    catalog.put("idx", "n", 0, 1, _synopsis([1]), _synopsis())
    first = estimator.estimate_detailed("idx", 0, 99)
    second = estimator.estimate_detailed("idx", 0, 99)
    assert not first.from_cache and not second.from_cache
    assert second.synopses_consulted == 1


def test_unmergeable_entries_never_cached():
    catalog, estimator = _estimator()
    catalog.put(
        "idx", "n", 0, 1,
        _synopsis([1, 2], SynopsisType.EQUI_HEIGHT),
        _synopsis((), SynopsisType.EQUI_HEIGHT),
    )
    estimator.estimate("idx", 0, 99)
    result = estimator.estimate_detailed("idx", 0, 99)
    assert not result.from_cache


def test_mixed_synopsis_types_fall_back_to_per_component():
    # A catalog can transiently hold different types (e.g. after a
    # reconfiguration); merging is skipped, summation still works.
    catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([1], SynopsisType.EQUI_WIDTH), _synopsis())
    catalog.put(
        "idx", "n", 0, 2,
        _synopsis([2], SynopsisType.EQUI_HEIGHT),
        _synopsis((), SynopsisType.EQUI_HEIGHT),
    )
    with pytest.raises(Exception):
        # Mixed types cannot merge; the estimator must not try.
        _synopsis([1]).merge_with(_synopsis((), SynopsisType.EQUI_HEIGHT))
    assert estimator.estimate("idx", 0, 99) == pytest.approx(2)


def test_single_entry_counts_no_lazy_merge():
    """Regression: one catalog entry means nothing was merged, so the
    lazy-merge counter/histogram must not move and the catalog-owned
    synopsis objects must not be aliased into the cache."""
    registry = MetricsRegistry()
    with use_registry(registry):
        catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([10, 20, 30]), _synopsis())
    estimator.estimate("idx", 0, 99)
    counters = registry.snapshot()["counters"]
    histograms = registry.snapshot()["histograms"]
    assert counters.get("estimator.lazy_merge.count", 0) == 0
    assert histograms.get("estimator.lazy_merge.seconds", {}).get("count", 0) == 0
    assert len(estimator.cache) == 0


def test_multi_entry_counts_one_lazy_merge_and_does_not_alias():
    registry = MetricsRegistry()
    with use_registry(registry):
        catalog, estimator = _estimator()
    entry1 = catalog.put("idx", "n", 0, 1, _synopsis([1, 2]), _synopsis())
    entry2 = catalog.put("idx", "n", 0, 2, _synopsis([3]), _synopsis([1]))
    estimator.estimate("idx", 0, 99)
    counters = registry.snapshot()["counters"]
    assert counters["estimator.lazy_merge.count"] == 1
    histograms = registry.snapshot()["histograms"]
    assert histograms["estimator.lazy_merge.seconds"]["count"] == 1
    cached = estimator.cache.get("idx", catalog.version_for("idx"))
    assert cached is not None
    catalog_objects = {
        id(entry1.synopsis), id(entry1.anti_synopsis),
        id(entry2.synopsis), id(entry2.anti_synopsis),
    }
    assert id(cached.synopsis) not in catalog_objects
    assert id(cached.anti_synopsis) not in catalog_objects


def test_overhead_recorded():
    catalog, estimator = _estimator()
    catalog.put("idx", "n", 0, 1, _synopsis([1]), _synopsis())
    result = estimator.estimate_detailed("idx", 0, 99)
    assert result.overhead_seconds > 0
