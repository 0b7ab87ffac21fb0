"""Tests for Bloom filters and their LSM integration."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import LSMCluster
from repro.core.config import StatisticsConfig
from repro.errors import ConfigurationError
from repro.lsm.bloom import BloomFilter
from repro.lsm.dataset import CompositeIndexSpec, IndexSpec, SpatialIndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree
from repro.synopses.base import SynopsisType
from repro.types import Domain
from tests.lsm.reference_bloom import Md5BloomFilter


class TestBloomFilter:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0, 1)
        with pytest.raises(ConfigurationError):
            BloomFilter(8, 0)
        with pytest.raises(ConfigurationError):
            BloomFilter.for_capacity(100, fpp=0.0)
        with pytest.raises(ConfigurationError):
            BloomFilter.for_capacity(100, fpp=1.0)

    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(1000, fpp=0.01)
        keys = list(range(0, 2000, 2))
        bloom.add_all(keys)
        assert all(bloom.might_contain(key) for key in keys)
        assert bloom.num_added == len(keys)

    def test_false_positive_rate_roughly_bounded(self):
        bloom = BloomFilter.for_capacity(1000, fpp=0.01)
        bloom.add_all(range(1000))
        false_positives = sum(
            1 for probe in range(10_000, 20_000) if bloom.might_contain(probe)
        )
        assert false_positives < 500  # ~1% nominal, 5% generous bound

    def test_contains_operator(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add("hello")
        assert "hello" in bloom

    def test_sizing_grows_with_capacity(self):
        small = BloomFilter.for_capacity(100)
        large = BloomFilter.for_capacity(100_000)
        assert large.size_bytes > small.size_bytes

    @given(st.sets(st.integers(-(10**6), 10**6), max_size=500))
    @settings(max_examples=30)
    def test_never_false_negative_property(self, keys):
        bloom = BloomFilter.for_capacity(max(1, len(keys)))
        bloom.add_all(keys)
        assert all(key in bloom for key in keys)

    def test_tuple_keys(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add((5, 17))
        assert (5, 17) in bloom


INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**31, 2**63 - 2, 2**63 - 1]
any_key = st.one_of(
    st.sampled_from(INT64_EDGES),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1),
    st.tuples(st.integers(-5, 5), st.integers(0, 2**40)),
    st.text(max_size=4),
)


def _chunked(keys, cuts):
    bounds = sorted({0, len(keys), *(cut % (len(keys) + 1) for cut in cuts)})
    return [keys[a:b] for a, b in zip(bounds, bounds[1:])] + [[]]


class TestBatchInsertOracle:
    """``add_all`` hashes a column in numpy; it must set exactly the bits
    one ``add`` per key sets, whatever the key types and chunking."""

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(any_key, max_size=200),
        cuts=st.lists(st.integers(0, 400), max_size=4),
        capacity=st.integers(1, 300),
    )
    def test_add_all_sets_the_bits_of_add(self, keys, cuts, capacity):
        one_by_one = BloomFilter.for_capacity(capacity)
        for key in keys:
            one_by_one.add(key)
        batched = BloomFilter.for_capacity(capacity)
        for chunk in _chunked(keys, cuts):
            batched.add_all(iter(chunk))
        assert batched._bits == one_by_one._bits
        assert batched.num_added == one_by_one.num_added == len(keys)
        assert all(batched.might_contain(key) for key in keys)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300))
    def test_typed_column_and_list_agree(self, keys):
        typed = BloomFilter.for_capacity(max(1, len(keys)))
        typed.add_all(array("q", keys))
        listed = BloomFilter.for_capacity(max(1, len(keys)))
        listed.add_all(keys)
        assert typed._bits == listed._bits

    def test_an_int_key_hashes_alike_in_every_container(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add_all([(1, 2), 7])  # mixed: the per-key fallback path
        assert 7 in bloom and np.int64(7) in bloom and (1, 2) in bloom


class TestFalsePositiveRate:
    """Hashing by value is a declared bit-pattern change, so the rate it
    buys is re-measured: within 1.5x of ``fpp`` and of the md5 filter it
    replaced (``reference_bloom.py``) at the same sizing, on dense,
    strided and negative key sets."""

    KEY_SETS = {
        "dense": range(5_000),
        "strided": range(0, 5_000 * 514_229, 514_229),
        "negative": range(-(2**63), -(2**63) + 5_000),
    }

    @pytest.mark.parametrize("fpp", [0.01, 0.05])
    @pytest.mark.parametrize("key_set", sorted(KEY_SETS))
    def test_measured_rate(self, key_set, fpp):
        keys = list(self.KEY_SETS[key_set])
        shipped = BloomFilter.for_capacity(len(keys), fpp)
        shipped.add_all(array("q", keys))
        reference = Md5BloomFilter.for_capacity(len(keys), fpp)
        for key in keys:
            reference.add(key)
        probes = range(2**40, 2**40 + 40_000)
        rate = sum(shipped.might_contain(p) for p in probes) / len(probes)
        baseline = sum(reference.might_contain(p) for p in probes) / len(probes)
        assert rate < 1.5 * fpp
        assert rate < 1.5 * baseline + 0.002


class TestLSMIntegration:
    def test_components_carry_filters(self):
        tree = LSMTree("t", SimulatedDisk())
        for i in range(100):
            tree.upsert(i, i)
        component = tree.flush()
        assert component.bloom is not None
        assert component.bloom.num_added == 100

    def test_bloom_disabled(self):
        tree = LSMTree("t", SimulatedDisk(), bloom_fpp=None)
        tree.upsert(1, 1)
        assert tree.flush().bloom is None

    def test_miss_lookups_skip_io(self):
        disk = SimulatedDisk()
        tree = LSMTree("t", disk, memtable_capacity=100)
        for i in range(1000):
            tree.upsert(i * 2, i)  # even keys only
        tree.flush()
        before = disk.stats.snapshot()
        misses = 0
        for probe in range(1, 2000, 20):  # odd keys: all absent
            assert tree.get(probe) is None
            misses += 1
        delta = disk.stats.delta(before)
        # Nearly every miss is answered by the filters without I/O.
        assert delta.pages_read < misses
        negatives = sum(c.bloom_negatives for c in tree.components)
        assert negatives >= misses * 0.9

    def test_lookups_still_correct_with_filters(self):
        tree = LSMTree("t", SimulatedDisk(), memtable_capacity=64)
        for i in range(500):
            tree.upsert(i, f"v{i}")
        for i in range(0, 500, 3):
            tree.delete(i)
        tree.flush()
        for i in range(500):
            expected = None if i % 3 == 0 else f"v{i}"
            assert tree.get(i) == expected


VALUE = Domain(0, 255)
SECONDARY = [
    IndexSpec("value_idx", "value", VALUE),
    CompositeIndexSpec("pair_idx", ("value", "extra"), (VALUE, VALUE)),
]
# R-tree components have no manifest descriptor: spatial indexes live
# only in non-durable datasets.
SPATIAL = SpatialIndexSpec("point_idx", ("value", "extra"), (VALUE, VALUE))


def _filtered_cluster(durable):
    cluster = LSMCluster(
        num_nodes=1,
        partitions_per_node=2,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=16),
        durable=durable,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=SECONDARY if durable else [*SECONDARY, SPATIAL],
        memtable_capacity=16,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    cluster.bulkload("ds", (_doc(pk) for pk in range(100)))
    for pk in range(100, 400):
        cluster.insert("ds", _doc(pk))
    for pk in range(0, 100, 3):
        cluster.delete("ds", pk)
    cluster.flush_all("ds")
    return cluster


def _doc(pk):
    return {"id": pk, "value": (pk * 13) % 256, "extra": (pk * 7) % 256}


def _assert_filters_only_on_primary(cluster):
    for dataset in cluster.datasets_of("ds"):
        for name in dataset._secondary:
            tree = dataset.secondary_tree(name)
            assert tree.components and tree.bloom_fpp is None
            assert all(component.bloom is None for component in tree.components)
        primary = dataset.primary.components
        assert primary and all(c.bloom is not None for c in primary)
        # The arbiter's bloom pool is the primary filters, nothing else.
        bloom = dataset.memory_breakdown()[2]
        assert bloom == sum(c.bloom_bytes() for c in primary) > 0


def _bloom_negatives_grow_on_misses(cluster):
    def negatives():
        return sum(
            component.bloom_negatives
            for dataset in cluster.datasets_of("ds")
            for component in dataset.primary.components
        )

    before = negatives()
    for pk in range(10_000, 10_050):
        assert cluster.get("ds", pk) is None
    assert negatives() > before


class TestFiltersOnlyWhereRead:
    """The one point lookup is the primary tree's (``Dataset.get``);
    secondary, composite and spatial trees are only range-scanned, so
    only the primary builds filters -- on bulkload, flush and merge,
    and again when recovery rebuilds components from the manifest."""

    def test_bulkload_flush_merge_including_rtrees(self):
        cluster = _filtered_cluster(durable=False)
        datasets = list(cluster.datasets_of("ds"))
        assert any(d.primary.merge_count for d in datasets)
        assert any(d.secondary_tree("point_idx").merge_count for d in datasets)
        _assert_filters_only_on_primary(cluster)
        _bloom_negatives_grow_on_misses(cluster)

    def test_restart_recovery(self):
        cluster = _filtered_cluster(durable=True)
        _assert_filters_only_on_primary(cluster)
        cluster.restart_nodes()
        cluster.recover_statistics()
        assert cluster.count_records("ds") == 400 - 34
        _assert_filters_only_on_primary(cluster)
        _bloom_negatives_grow_on_misses(cluster)


class TestBufferCache:
    def test_cache_disabled_by_default(self):
        disk = SimulatedDisk()
        f = disk.create_file()
        f.append_page("a")
        f.read_page(0)
        f.read_page(0)
        assert disk.stats.pages_read == 2
        assert disk.stats.cache_hits == 0

    def test_cache_hit_skips_io(self):
        disk = SimulatedDisk(cache_pages=8)
        f = disk.create_file()
        f.append_page("a")  # enters the cache on write
        assert f.read_page(0) == "a"
        assert disk.stats.cache_hits == 1
        assert disk.stats.pages_read == 0

    def test_lru_eviction(self):
        disk = SimulatedDisk(cache_pages=2)
        f = disk.create_file()
        for i in range(3):
            f.append_page(i)
        # Pages 1 and 2 are cached; page 0 was evicted.
        f.read_page(0)
        assert disk.stats.cache_misses == 1
        assert disk.stats.pages_read == 1

    def test_delete_invalidates_cache(self):
        disk = SimulatedDisk(cache_pages=8)
        f = disk.create_file()
        f.append_page("a")
        f.delete()
        g = disk.create_file()
        g.append_page("b")
        assert g.read_page(0) == "b"

    def test_invalid_cache_size(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            SimulatedDisk(cache_pages=-1)

    def test_cached_tree_reads_less(self):
        cold = SimulatedDisk()
        warm = SimulatedDisk(cache_pages=10_000)
        for disk in (cold, warm):
            tree = LSMTree("t", disk, memtable_capacity=512)
            for i in range(2000):
                tree.upsert(i, i)
            tree.flush()
            for probe in range(0, 2000, 10):
                assert tree.get(probe) == probe
        assert warm.stats.pages_read < cold.stats.pages_read
