"""Tests for the LSM-ified R-tree spatial index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BulkloadError, QueryError
from repro.lsm.dataset import Dataset, SpatialIndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.record import Record
from repro.lsm.rtree import MBR, build_rtree
from repro.lsm.storage import SimulatedDisk
from repro.types import Domain


def _tree(points, leaf_capacity=4, fanout=4):
    disk = SimulatedDisk()
    records = [
        Record.matter((x, y, pk))
        for pk, (x, y) in enumerate(sorted_points(points))
    ]
    return disk, build_rtree(
        disk, records, leaf_capacity=leaf_capacity, fanout=fanout
    )


def sorted_points(points):
    return sorted(points)


class TestMBR:
    def test_of_points(self):
        mbr = MBR.of_points([(1, 5), (3, 2), (2, 8)])
        assert (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y) == (1, 2, 3, 8)

    def test_union(self):
        union = MBR.union([MBR(0, 0, 1, 1), MBR(5, 5, 9, 9)])
        assert (union.min_x, union.max_x) == (0, 9)

    def test_intersects(self):
        mbr = MBR(2, 2, 5, 5)
        assert mbr.intersects(0, 10, 0, 10)
        assert mbr.intersects(5, 9, 5, 9)  # corner touch
        assert not mbr.intersects(6, 9, 0, 10)
        assert not mbr.intersects(0, 10, 6, 9)

    def test_contains_point(self):
        mbr = MBR(2, 2, 5, 5)
        assert mbr.contains_point(2, 5)
        assert not mbr.contains_point(1, 3)


class TestDiskRTree:
    def test_empty(self):
        _disk, tree = _tree([])
        assert len(tree) == 0
        assert list(tree.search(0, 100, 0, 100)) == []
        assert list(tree.scan()) == []
        assert tree.min_key() is None
        assert tree.max_key() is None
        assert tree.mbr is None

    def test_rectangle_search(self):
        points = [(x, y) for x in range(0, 50, 5) for y in range(0, 50, 5)]
        _disk, tree = _tree(points)
        got = sorted((r.key[0], r.key[1]) for r in tree.search(10, 20, 10, 20))
        expected = sorted(
            (x, y) for x, y in points if 10 <= x <= 20 and 10 <= y <= 20
        )
        assert got == expected

    def test_search_prunes_pages(self):
        points = [(x, x) for x in range(512)]  # diagonal
        disk, tree = _tree(points, leaf_capacity=8, fanout=8)
        before = disk.stats.snapshot()
        list(tree.search(0, 7, 0, 7))
        pruned = disk.stats.delta(before).pages_read
        before = disk.stats.snapshot()
        list(tree.scan())
        full = disk.stats.delta(before).pages_read
        assert pruned < full / 4  # MBR descent skips most pages

    def test_ordered_scan(self):
        points = [(x % 7, x % 11) for x in range(100)]
        _disk, tree = _tree(set(points))
        keys = [r.key for r in tree.scan()]
        assert keys == sorted(keys)

    def test_scan_range(self):
        points = [(x, 0) for x in range(20)]
        _disk, tree = _tree(points)
        keys = [r.key[0] for r in tree.scan((5, 0, 0), (9, 99, 99))]
        assert keys == [5, 6, 7, 8, 9]

    def test_lookup(self):
        _disk, tree = _tree([(3, 4), (5, 6)])
        assert tree.lookup((3, 4, 0)) is not None
        assert tree.lookup((3, 4, 99)) is None
        assert tree.lookup((9, 9, 0)) is None

    def test_rejects_unsorted(self):
        disk = SimulatedDisk()
        with pytest.raises(BulkloadError):
            build_rtree(
                disk, [Record.matter((2, 2, 0)), Record.matter((1, 1, 1))]
            )

    def test_rejects_non_tuple_keys(self):
        disk = SimulatedDisk()
        with pytest.raises(BulkloadError):
            build_rtree(disk, [Record.matter(5)])

    def test_min_max_keys(self):
        _disk, tree = _tree([(5, 1), (2, 9), (8, 3)])
        assert tree.min_key() == (2, 9, 0)
        assert tree.max_key() == (8, 3, 2)


X_DOMAIN = Domain(0, 999)
Y_DOMAIN = Domain(0, 999)


def _dataset(**kwargs):
    return Dataset(
        "geo",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 10**6),
        indexes=[
            SpatialIndexSpec("loc_idx", ("x", "y"), (X_DOMAIN, Y_DOMAIN))
        ],
        **kwargs,
    )


def _doc(pk):
    return {"id": pk, "x": (pk * 7) % 1000, "y": (pk * 13) % 1000}


class TestSpatialDataset:
    def test_rectangle_counts(self):
        dataset = _dataset(memtable_capacity=64)
        for pk in range(300):
            dataset.insert(_doc(pk))
        dataset.flush()
        expected = sum(
            1
            for pk in range(300)
            if 100 <= (pk * 7) % 1000 <= 500 and 200 <= (pk * 13) % 1000 <= 700
        )
        assert dataset.count_spatial_range("loc_idx", 100, 500, 200, 700) == expected

    def test_memtable_entries_visible(self):
        dataset = _dataset()
        dataset.insert({"id": 1, "x": 10, "y": 20})
        assert dataset.count_spatial_range("loc_idx", 0, 50, 0, 50) == 1

    def test_sealed_memtable_entries_visible(self):
        dataset = _dataset()
        tree = dataset.secondary_tree("loc_idx")
        dataset.insert({"id": 1, "x": 10, "y": 20})
        dataset.insert({"id": 2, "x": 30, "y": 40})
        assert tree.rotate()  # sealed, not yet flushed
        dataset.delete(2)  # the tombstone lands in the new active memtable
        assert tree.immutable_count == 1
        assert [r.key for r in dataset.search_spatial("loc_idx", 0, 50, 0, 50)] == [
            (10, 20, 1)
        ]

    def test_deletes_cancel_across_components(self):
        dataset = _dataset(memtable_capacity=32)
        for pk in range(100):
            dataset.insert(_doc(pk))
        dataset.flush()
        for pk in range(0, 100, 2):
            dataset.delete(pk)
        dataset.flush()
        assert dataset.count_spatial_range("loc_idx", 0, 999, 0, 999) == 50

    def test_updates_move_points(self):
        dataset = _dataset()
        dataset.insert({"id": 1, "x": 10, "y": 10})
        dataset.flush()
        dataset.update({"id": 1, "x": 900, "y": 900})
        dataset.flush()
        assert dataset.count_spatial_range("loc_idx", 0, 100, 0, 100) == 0
        assert dataset.count_spatial_range("loc_idx", 850, 999, 850, 999) == 1

    def test_merges_preserve_spatial_queries(self):
        dataset = _dataset(
            memtable_capacity=25, merge_policy=ConstantMergePolicy(2)
        )
        for pk in range(200):
            dataset.insert(_doc(pk))
        for pk in range(0, 200, 5):
            dataset.delete(pk)
        dataset.flush()
        expected = sum(1 for pk in range(200) if pk % 5 != 0)
        assert dataset.count_spatial_range("loc_idx", 0, 999, 0, 999) == expected

    def test_wrong_index_kind(self):
        dataset = _dataset()
        with pytest.raises(QueryError):
            list(dataset.search_spatial("nope", 0, 1, 0, 1))


class TestSpatialStatistics:
    def test_2d_stats_ride_rtree_streams(self):
        from repro.core.config import StatisticsConfig
        from repro.core.manager import StatisticsManager
        from repro.synopses.multidim import Synopsis2DType

        dataset = _dataset(memtable_capacity=64)
        manager = StatisticsManager(StatisticsConfig())
        manager.attach_composite(dataset, Synopsis2DType.GROUND_TRUTH, 1)
        for pk in range(400):
            dataset.insert(_doc(pk))
        for pk in range(0, 400, 3):
            dataset.delete(pk)
        dataset.flush()
        for rect in [(0, 999, 0, 999), (100, 400, 500, 800)]:
            true = dataset.count_spatial_range("loc_idx", *rect)
            assert manager.estimate(dataset, "loc_idx", *rect) == pytest.approx(true)


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=120),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
)
def test_search_matches_filter_property(points, a, b, c, d):
    lo_x, hi_x = min(a, b), max(a, b)
    lo_y, hi_y = min(c, d), max(c, d)
    _disk, tree = _tree(points, leaf_capacity=6, fanout=4)
    got = sorted((r.key[0], r.key[1]) for r in tree.search(lo_x, hi_x, lo_y, hi_y))
    expected = sorted(
        (x, y) for x, y in points if lo_x <= x <= hi_x and lo_y <= y <= hi_y
    )
    assert got == expected
