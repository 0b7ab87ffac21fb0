"""Single-node NDV lane: twin registrations, lazy union cache, interval.

Complements the cluster lifecycle tests: here the catalog and cache
are in-process, so eviction/readmission exactness and the anti-matter
interval semantics can be pinned down precisely.
"""

import pytest

from repro.core import StatisticsConfig, StatisticsManager
from repro.errors import SynopsisError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses import SynopsisType
from repro.synopses.hll import HyperLogLogSynopsis, ndv_statistics_key
from repro.types import Domain

PK_DOMAIN = Domain(0, 2**20 - 1)
VALUE_DOMAIN = Domain(0, 1023)


def _setup(ndv_precision=7, **config_kwargs):
    dataset = Dataset(
        "ds",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=PK_DOMAIN,
        indexes=[IndexSpec("value_idx", "value", VALUE_DOMAIN)],
        memtable_capacity=64,
    )
    manager = StatisticsManager(
        StatisticsConfig(
            SynopsisType.EQUI_WIDTH,
            budget=32,
            ndv_enabled=True,
            ndv_precision=ndv_precision,
            **config_kwargs,
        )
    )
    manager.attach(dataset)
    return dataset, manager


def _ingest(dataset, records=600, delete_every=None):
    for pk in range(records):
        dataset.insert({"id": pk, "value": (pk * 7) % 1024})
    if delete_every:
        for pk in range(0, records, delete_every):
            dataset.delete(pk)
    dataset.flush()


class TestTwinRegistrations:
    def test_every_target_gets_an_ndv_twin(self):
        dataset, manager = _setup()
        keys = manager.collector.registered_keys()
        for base in (dataset.primary.name, dataset.secondary_tree("value_idx").name):
            assert base in keys
            assert ndv_statistics_key(base) in keys

    def test_disabled_config_registers_no_twins(self):
        dataset = Dataset(
            "ds2",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=PK_DOMAIN,
        )
        manager = StatisticsManager(
            StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32)
        )
        manager.attach(dataset)
        assert not any(
            "#ndv" in key for key in manager.collector.registered_keys()
        )
        _ingest(dataset, records=100)
        with pytest.raises(SynopsisError):
            manager.estimate_ndv(dataset)

    def test_catalog_holds_hll_pairs_under_ndv_keys(self):
        dataset, manager = _setup()
        _ingest(dataset)
        key = ndv_statistics_key(dataset.primary.name)
        entries = manager.catalog.entries_for(key)
        assert entries
        for entry in entries:
            assert isinstance(entry.synopsis, HyperLogLogSynopsis)
            assert isinstance(entry.anti_synopsis, HyperLogLogSynopsis)
            # Dense-resident accounting: 32-byte header + one byte per
            # register, not the histogram families' 16 bytes/element.
            assert entry.synopsis.payload_bytes() == 32 + 128

    def test_range_lane_unaffected(self):
        dataset, manager = _setup()
        _ingest(dataset)
        true = dataset.count_secondary_range("value_idx", 0, 511)
        assert manager.estimate(dataset, "value_idx", 0, 511) == pytest.approx(
            true, rel=0.25
        )


class TestAntiMatterInterval:
    def test_insert_only_interval_collapses(self):
        dataset, manager = _setup()
        _ingest(dataset)
        detail = manager.estimate_ndv_detailed(dataset)
        assert detail.anti_ndv == 0.0
        assert detail.lower == detail.upper == detail.ndv
        assert detail.matter_ndv == pytest.approx(600, rel=3 * 1.04 / 128**0.5)

    def test_deletes_open_the_interval_conservatively(self):
        dataset, manager = _setup()
        _ingest(dataset, records=600, delete_every=3)
        detail = manager.estimate_ndv_detailed(dataset)
        assert detail.anti_ndv > 0.0
        assert detail.lower < detail.upper
        assert detail.ndv == detail.lower  # point pinned to the floor
        assert detail.upper == detail.matter_ndv
        # True live NDV (400) must sit inside the (3-sigma-padded) band.
        sigma = 1.04 / 128**0.5
        assert detail.lower * (1 - 3 * sigma) <= 400
        assert 400 <= detail.upper * (1 + 3 * sigma)

    def test_lower_bound_clamps_at_zero(self):
        dataset, manager = _setup()
        _ingest(dataset, records=200, delete_every=1)  # delete everything
        detail = manager.estimate_ndv_detailed(dataset)
        assert detail.lower >= 0.0
        assert detail.ndv >= 0.0


class TestLazyUnionCache:
    def test_slow_path_then_cache_hit_same_answer(self):
        dataset, manager = _setup()
        _ingest(dataset)
        slow = manager.estimate_ndv_detailed(dataset)
        assert not slow.from_cache and slow.synopses_consulted > 1
        hit = manager.estimate_ndv_detailed(dataset)
        assert hit.from_cache and hit.synopses_consulted == 0
        assert hit.ndv == slow.ndv

    def test_new_component_invalidates_cached_union(self):
        dataset, manager = _setup()
        _ingest(dataset)
        manager.estimate_ndv(dataset)
        _ingest(dataset, records=100)  # fresh publishes bump the version
        refreshed = manager.estimate_ndv_detailed(dataset)
        assert not refreshed.from_cache

    def test_evicted_and_readmitted_union_stays_exact(self):
        """Capacity pressure evicts the cached NDV pair; the deterministic
        re-union on the next estimate must reproduce it exactly."""
        dataset, manager = _setup()
        _ingest(dataset, records=600, delete_every=4)
        baseline = manager.estimate_ndv_detailed(dataset)
        key = ndv_statistics_key(dataset.primary.name)
        version = manager.catalog.version_for(key)
        cached_before = manager.cache.get(key, version)
        assert cached_before is not None
        registers = bytes(cached_before.synopsis.registers)
        anti_registers = bytes(cached_before.anti_synopsis.registers)

        # Make the range lane's cached pair the hot end, then shrink:
        # the cache keeps >= 1 entry, so the cold NDV pair is the victim.
        manager.estimate(dataset, "value_idx", 0, 511)
        manager.cache.set_capacity(1)
        assert manager.cache.get(key, version) is None
        manager.cache.set_capacity(None)

        readmitted = manager.estimate_ndv_detailed(dataset)
        assert not readmitted.from_cache
        assert (readmitted.ndv, readmitted.lower, readmitted.upper) == (
            baseline.ndv,
            baseline.lower,
            baseline.upper,
        )
        cached_after = manager.cache.get(key, version)
        assert cached_after is not None
        assert bytes(cached_after.synopsis.registers) == registers
        assert bytes(cached_after.anti_synopsis.registers) == anti_registers

    def test_union_counter_moves_on_slow_path_only(self):
        with use_registry(MetricsRegistry()) as registry:
            dataset, manager = _setup()
        _ingest(dataset)
        counter = registry.counter("sketch.union.count")
        assert counter.value == 0
        manager.estimate_ndv(dataset)
        mid = counter.value
        assert mid > 0
        manager.estimate_ndv(dataset)  # cache hit: no further unions
        assert counter.value == mid
