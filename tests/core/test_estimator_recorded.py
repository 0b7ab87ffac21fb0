"""Algorithm 2 on a fixed script, against values recorded before the
slow path became one N-ary fold.

``_script()`` puts and estimates on a private catalog / cache /
registry; ``RECORDED`` is what it returned at the parent of that change
(pairwise ``merge_with`` loops in the estimator, a regex per
``_observe``, ``cardinality()`` recomputed per call).  Answers are
compared with ``==``: same requests, same cache behaviour, same floats.
"""

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.estimator import CardinalityEstimator
from repro.obs.registry import MetricsRegistry
from repro.synopses import SynopsisType, create_builder
from repro.synopses.hll import ndv_statistics_key
from repro.types import Domain

DOMAIN = Domain(0, 999)


def _synopsis(synopsis_type, values, budget=16):
    builder = create_builder(synopsis_type, DOMAIN, budget, len(values))
    builder.add_many(sorted(values))
    return builder.build()


def _values(component, count=60):
    return [(component * 389 + i * i * 7 + i * 13) % 1000 for i in range(count)]


def _put(catalog, index, component, synopsis_type, budget=16, anti=0):
    """Catalog one component: 60 matter values, ``anti`` anti-matter ones."""
    catalog.put(
        index,
        "n",
        0,
        component,
        _synopsis(synopsis_type, _values(component), budget),
        _synopsis(synopsis_type, _values(component, anti), budget),
    )


def _script():
    registry = MetricsRegistry()
    catalog = StatisticsCatalog()
    cache = MergedSynopsisCache(registry)
    estimator = CardinalityEstimator(catalog, cache, registry)
    ndv_key = ndv_statistics_key("ew")
    log = []

    def estimate(index, lo, hi):
        result = estimator.estimate_detailed(index, lo, hi)
        log.append(
            [index, result.estimate, result.synopses_consulted, result.from_cache]
        )

    def estimate_ndv(index):
        result = estimator.estimate_ndv_detailed(index)
        log.append(
            [
                ndv_statistics_key(index),
                result.ndv,
                result.upper,
                result.anti_ndv,
                result.synopses_consulted,
                result.from_cache,
            ]
        )

    # A mergeable family: cold, warm, invalidated by a put, cold again.
    for component in range(5):
        _put(catalog, "ew", component, SynopsisType.EQUI_WIDTH, anti=component % 2 * 9)
    estimate("ew", 100, 700)
    estimate("ew", 100, 700)
    estimate("ew", 333, 333)
    _put(catalog, "ew", 5, SynopsisType.EQUI_WIDTH)
    estimate("ew", 0, 999)
    estimate("ew", 990, 2000)
    # Its NDV lane: register unions, then the cached pair.
    for component in range(4):
        anti = 5 if component == 2 else 0
        _put(catalog, ndv_key, component, SynopsisType.HLL_SKETCH, 64, anti)
    estimate_ndv("ew")
    estimate_ndv("ew")
    _put(catalog, ndv_key, 4, SynopsisType.HLL_SKETCH, 64)
    estimate_ndv("ew")
    # Families whose fold order shows in the payload.
    for component in range(4):
        _put(catalog, "wv", component, SynopsisType.WAVELET)
        _put(catalog, "gk", component, SynopsisType.GK_SKETCH)
    for index in ("wv", "gk"):
        estimate(index, 50, 640)
        estimate(index, 50, 640)
    # One entry: nothing to merge, nothing cached.
    _put(catalog, "one", 0, SynopsisType.EQUI_WIDTH)
    estimate("one", 0, 500)
    estimate("one", 0, 500)
    # An unmergeable family: always the summation path.
    for component in range(3):
        _put(catalog, "eh", component, SynopsisType.EQUI_HEIGHT)
    estimate("eh", 100, 700)
    estimate("eh", 100, 700)
    # Mixed families (either order) and drifted parameters: fall back to
    # summation and cache nothing.
    _put(catalog, "mixed", 0, SynopsisType.EQUI_WIDTH)
    _put(catalog, "mixed", 1, SynopsisType.EQUI_WIDTH)
    _put(catalog, "mixed", 2, SynopsisType.EQUI_HEIGHT)
    _put(catalog, "mixed2", 0, SynopsisType.EQUI_HEIGHT)
    _put(catalog, "mixed2", 1, SynopsisType.EQUI_WIDTH)
    _put(catalog, "drift", 0, SynopsisType.EQUI_WIDTH)
    _put(catalog, "drift", 1, SynopsisType.EQUI_WIDTH)
    _put(catalog, "drift", 2, SynopsisType.EQUI_WIDTH, budget=32)
    for index in ("mixed", "mixed2", "drift"):
        estimate(index, 100, 700)
        estimate(index, 100, 700)

    snapshot = registry.snapshot()
    indexes = ("ew", ndv_key, "wv", "gk", "one", "eh", "mixed", "mixed2", "drift")
    return {
        "log": log,
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(("estimator.", "sketch.", "cache."))
        },
        "histogram_counts": {
            name: histogram["count"]
            for name, histogram in snapshot["histograms"].items()
            if name.startswith("estimator.")
        },
        "cached": sorted(name for name in indexes if cache.peek(name) is not None),
        "cache_bytes": cache.memory_bytes(),
    }


RECORDED = {
    "log": [
        ["ew", 170.15873015873015, 5, False],
        ["ew", 170.15873015873015, 0, True],
        ["ew", 0.23809523809523808, 0, True],
        ["ew", 342.0, 6, False],
        ["ew", 2.5454545454545454, 0, True],
        ["ew#ndv", 225.99909879194286, 231.2052197169958, 5.206120925052954, 4, False],
        ["ew#ndv", 225.99909879194286, 231.2052197169958, 5.206120925052954, 0, True],
        ["ew#ndv", 304.88371598839854, 310.0898369134515, 5.206120925052954, 5, False],
        ["wv", 156.5, 4, False],
        ["wv", 156.5, 0, True],
        ["gk", 139.0, 4, False],
        ["gk", 140.0, 0, True],
        ["one", 36.76190476190476, 1, False],
        ["one", 36.76190476190476, 1, False],
        ["eh", 106.18131868131869, 3, False],
        ["eh", 106.18131868131869, 3, False],
        ["mixed", 107.94902319902319, 3, False],
        ["mixed", 107.94902319902319, 3, False],
        ["mixed2", 75.39682539682539, 2, False],
        ["mixed2", 75.39682539682539, 2, False],
        ["drift", 108.62450396825396, 3, False],
        ["drift", 108.62450396825396, 3, False],
    ],
    "counters": {
        "cache.evictions": 0,
        "cache.merged.hit": 6,
        "cache.merged.invalidation": 2,
        "cache.merged.miss": 16,
        "estimator.cache_hit.count": 6,
        "estimator.estimate.count": 22,
        "estimator.lazy_merge.count": 6,
        "sketch.union.count": 14,
    },
    "histogram_counts": {
        "estimator.estimate.seconds": 22,
        "estimator.estimate.seconds.equi_height": 4,
        "estimator.estimate.seconds.equi_width": 11,
        "estimator.estimate.seconds.gk_sketch": 2,
        "estimator.estimate.seconds.hll_sketch": 3,
        "estimator.estimate.seconds.wavelet": 2,
        "estimator.lazy_merge.seconds": 6,
    },
    "cached": ["ew", "ew#ndv", "gk", "wv"],
    "cache_bytes": 1600,
}


def test_the_script_reproduces_the_recorded_run():
    assert _script() == RECORDED
