"""Tests for the immutable disk B-tree built by bulkload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BulkloadError
from repro.lsm.btree import build_btree
from repro.lsm.record import Record
from repro.lsm.storage import SimulatedDisk


def _tree(keys, leaf_capacity=4, fanout=4):
    disk = SimulatedDisk()
    tree = build_btree(
        disk,
        (Record.matter(k, f"v{k}") for k in keys),
        leaf_capacity=leaf_capacity,
        fanout=fanout,
    )
    return disk, tree


class TestBuild:
    def test_empty(self):
        _disk, tree = _tree([])
        assert len(tree) == 0
        assert tree.lookup(1) is None
        assert list(tree.scan()) == []
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_single_leaf(self):
        _disk, tree = _tree([1, 2, 3])
        assert tree.height == 0
        assert len(tree) == 3

    def test_multi_level(self):
        _disk, tree = _tree(range(100), leaf_capacity=4, fanout=4)
        assert tree.height >= 2
        assert len(tree) == 100

    def test_rejects_unsorted(self):
        disk = SimulatedDisk()
        with pytest.raises(BulkloadError):
            build_btree(disk, [Record.matter(2), Record.matter(1)])

    def test_rejects_duplicates(self):
        disk = SimulatedDisk()
        with pytest.raises(BulkloadError):
            build_btree(disk, [Record.matter(1), Record.matter(1)])

    def test_rejects_bad_parameters(self):
        disk = SimulatedDisk()
        with pytest.raises(BulkloadError):
            build_btree(disk, [], leaf_capacity=1)


class TestLookup:
    def test_present_and_absent(self):
        _disk, tree = _tree(range(0, 200, 2))
        assert tree.lookup(100).value == "v100"
        assert tree.lookup(101) is None
        assert tree.lookup(-1) is None
        assert tree.lookup(1000) is None

    def test_boundaries(self):
        _disk, tree = _tree(range(0, 64))
        assert tree.lookup(0).key == 0
        assert tree.lookup(63).key == 63
        assert tree.min_key() == 0
        assert tree.max_key() == 63

    def test_lookup_charges_io(self):
        disk, tree = _tree(range(100), leaf_capacity=4, fanout=4)
        before = disk.stats.snapshot()
        tree.lookup(50)
        delta = disk.stats.delta(before)
        assert delta.pages_read == tree.height + 1


    @pytest.mark.parametrize("values", ["some", "none"])
    def test_lookup_equals_scan_on_every_key(self, values):
        # Anti-matter, None payloads and distinct seqnums all survive
        # the single-row path; cold leaves first, then memoized ones.
        records = [
            Record.anti(k, seqnum=k)
            if k % 3 == 0
            else Record.matter(k, f"v{k}" if values == "some" else None, seqnum=k)
            for k in range(0, 300, 2)
        ]
        disk = SimulatedDisk()
        tree = build_btree(disk, records, leaf_capacity=8, fanout=4)
        cold = [tree.lookup(r.key) for r in records]
        scanned = list(tree.scan())
        assert cold == scanned == records
        assert [tree.lookup(r.key) for r in records] == scanned  # memoized
        assert all(tree.lookup(r.key + 1) is None for r in records)


class TestScan:
    def test_full_scan_in_order(self):
        _disk, tree = _tree(range(0, 50))
        assert [r.key for r in tree.scan()] == list(range(50))

    def test_range_scan(self):
        _disk, tree = _tree(range(0, 100, 3))
        keys = [r.key for r in tree.scan(10, 30)]
        assert keys == [12, 15, 18, 21, 24, 27, 30]

    def test_range_scan_empty(self):
        _disk, tree = _tree(range(0, 100, 10))
        assert list(tree.scan(41, 49)) == []

    def test_scan_preserves_antimatter(self):
        disk = SimulatedDisk()
        records = [Record.matter(1), Record.anti(2), Record.matter(3)]
        tree = build_btree(disk, records)
        flags = [(r.key, r.antimatter) for r in tree.scan()]
        assert flags == [(1, False), (2, True), (3, False)]

    def test_destroy_releases_file(self):
        disk, tree = _tree(range(10))
        assert disk.live_files == 1
        tree.destroy()
        assert disk.live_files == 0


@settings(max_examples=40)
@given(
    st.sets(st.integers(-10_000, 10_000), max_size=300),
    st.integers(2, 10),
    st.integers(2, 10),
)
def test_roundtrip_property(keys, leaf_capacity, fanout):
    ordered = sorted(keys)
    _disk, tree = _tree(ordered, leaf_capacity=leaf_capacity, fanout=fanout)
    assert [r.key for r in tree.scan()] == ordered
    for probe in list(ordered)[:20]:
        assert tree.lookup(probe) is not None
    assert tree.lookup(10_001) is None


@settings(max_examples=30)
@given(
    st.sets(st.integers(0, 1000), max_size=200),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
def test_range_scan_property(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    _disk, tree = _tree(sorted(keys), leaf_capacity=8, fanout=8)
    got = [r.key for r in tree.scan(lo, hi)]
    assert got == sorted(k for k in keys if lo <= k <= hi)
