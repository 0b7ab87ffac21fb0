"""Tests for the mutable in-memory component."""

from repro.lsm.memtable import MemTable
from repro.lsm.record import Record


def test_empty():
    m = MemTable()
    assert len(m) == 0
    assert not m
    assert m.get(1) is None
    assert m.seqnum_range is None
    assert list(m.sorted_records()) == []


def test_write_and_get():
    m = MemTable()
    m.write(Record.matter(5, "v5", seqnum=1))
    m.write(Record.matter(3, "v3", seqnum=2))
    assert len(m) == 2
    assert m.get(5).value == "v5"
    assert m.seqnum_range == (1, 2)


def test_newest_write_wins_in_place():
    m = MemTable()
    m.write(Record.matter(1, "old", seqnum=1))
    m.write(Record.matter(1, "new", seqnum=2))
    assert len(m) == 1
    assert m.get(1).value == "new"


def test_delete_replaces_with_antimatter():
    m = MemTable()
    m.write(Record.matter(1, "v", seqnum=1))
    m.write(Record.anti(1, seqnum=2))
    assert len(m) == 1
    assert m.get(1).antimatter
    assert m.antimatter_count == 1


def test_reinsert_after_delete_clears_antimatter_count():
    m = MemTable()
    m.write(Record.anti(1, seqnum=1))
    m.write(Record.matter(1, "back", seqnum=2))
    assert m.antimatter_count == 0
    assert not m.get(1).antimatter


def test_sorted_records_in_key_order():
    m = MemTable()
    for key in [9, 2, 7, 4]:
        m.write(Record.matter(key, seqnum=key))
    assert [r.key for r in m.sorted_records()] == [2, 4, 7, 9]


def test_scan_range():
    m = MemTable()
    for key in range(0, 20, 2):
        m.write(Record.matter(key, seqnum=key))
    assert [r.key for r in m.scan(5, 11)] == [6, 8, 10]


def test_reset():
    m = MemTable()
    m.write(Record.anti(1, seqnum=1))
    m.reset()
    assert len(m) == 0
    assert m.antimatter_count == 0
    assert m.seqnum_range is None


def test_tuple_keys_sort_lexicographically():
    m = MemTable()
    for seqnum, key in enumerate([(2, 1), (1, 9), (2, 0)]):
        m.write(Record.matter(key, seqnum=seqnum))
    assert [r.key for r in m.sorted_records()] == [(1, 9), (2, 0), (2, 1)]
    assert [r.key for r in m.scan((2,), (2, float("inf")))] == [(2, 0), (2, 1)]


def test_overwrite_keeps_the_sorted_keys_and_a_new_key_resorts_them():
    m = MemTable()
    for key in [5, 1, 3]:
        m.write(Record.matter(key, "old", seqnum=key))
    assert [r.key for r in m.scan()] == [1, 3, 5]
    m.write(Record.matter(3, "new", seqnum=6))
    assert [r.value for r in m.scan(3, 3)] == ["new"]
    m.write(Record.anti(2, seqnum=7))
    assert [(r.key, r.antimatter) for r in m.scan(None, 3)] == [
        (1, False),
        (2, True),
        (3, False),
    ]


def _scan_keys(m, lo=None, hi=None):
    return [r.key for r in m.scan(lo, hi)]


class TestScanRange:
    def setup_method(self):
        self.m = MemTable()
        for k in range(0, 100, 2):  # even keys 0..98
            self.m.write(Record.matter(k, seqnum=k))

    def test_closed_range(self):
        assert _scan_keys(self.m, 10, 20) == [10, 12, 14, 16, 18, 20]

    def test_bounds_between_keys(self):
        assert _scan_keys(self.m, 9, 15) == [10, 12, 14]

    def test_open_low(self):
        assert _scan_keys(self.m, None, 4) == [0, 2, 4]

    def test_open_high(self):
        assert _scan_keys(self.m, 94, None) == [94, 96, 98]

    def test_fully_open(self):
        assert len(_scan_keys(self.m)) == 50

    def test_empty_range(self):
        assert _scan_keys(self.m, 200, 300) == []
        assert _scan_keys(self.m, 11, 11) == []


class TestScanBounds:
    """Open/closed bound combinations of ``scan``."""

    def setup_method(self):
        self.m = MemTable()
        for k in range(0, 100, 2):  # even keys 0..98
            self.m.write(Record.matter(k, seqnum=k))

    def test_lo_equals_smallest_key_is_inclusive(self):
        assert _scan_keys(self.m, 0, 4) == [0, 2, 4]

    def test_hi_equals_largest_key_is_inclusive(self):
        assert _scan_keys(self.m, 96, 98) == [96, 98]

    def test_single_key_range(self):
        assert _scan_keys(self.m, 10, 10) == [10]

    def test_inverted_range_is_empty(self):
        assert _scan_keys(self.m, 20, 10) == []

    def test_open_low_with_bound_between_keys(self):
        assert _scan_keys(self.m, None, 5) == [0, 2, 4]

    def test_open_high_with_bound_between_keys(self):
        assert _scan_keys(self.m, 93, None) == [94, 96, 98]

    def test_range_on_empty_memtable(self):
        assert _scan_keys(MemTable()) == []


class TestBasics:
    """Map-level behaviour the memtable keeps: lookup, replace, order, reset."""

    def test_empty_map(self):
        m = MemTable()
        assert len(m) == 0
        assert not m
        assert m.get(1) is None
        assert list(m.sorted_records()) == []

    def test_put_get(self):
        m = MemTable()
        m.write(Record.matter(2, "b", seqnum=1))
        m.write(Record.matter(1, "a", seqnum=2))
        m.write(Record.matter(3, "c", seqnum=3))
        assert len(m) == 3
        assert m.get(1).value == "a"
        assert m.get(2).value == "b"
        assert m.get(3).value == "c"
        assert m.get(4) is None

    def test_put_replaces(self):
        m = MemTable()
        m.write(Record.matter(1, "a", seqnum=1))
        m.write(Record.matter(1, "z", seqnum=2))
        assert len(m) == 1
        assert m.get(1).value == "z"

    def test_clear(self):
        m = MemTable()
        m.write(Record.matter(1, 1, seqnum=1))
        m.reset()
        assert len(m) == 0
        assert list(m.sorted_records()) == []
        assert m.get(1) is None

    def test_items_sorted(self):
        m = MemTable()
        for k in [9, 1, 5, 3, 7]:
            m.write(Record.matter(k, k * 10, seqnum=k))
        assert [(r.key, r.value) for r in m.sorted_records()] == [
            (1, 10),
            (3, 30),
            (5, 50),
            (7, 70),
            (9, 90),
        ]
