"""Model test of the hash memtable against a dict plus ``sorted()``.

The reference keeps the newest record per key in a plain dict and sorts
on every read; the memtable must agree after every write and every
scan, so a sorted-key cache that an insert failed to invalidate (or an
overwrite needlessly rebuilt into a different order) shows up as a
wrong scan.  The nightly lane runs it under ``--hypothesis-profile
nightly``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memory import record_footprint
from repro.lsm.memtable import MemTable
from repro.lsm.record import Record

_KEYS = st.integers(-50, 50)
_BOUNDS = st.one_of(st.none(), st.integers(-60, 60))
_WRITE = st.tuples(
    st.just("write"),
    _KEYS,
    st.booleans(),  # anti-matter
    st.one_of(
        st.none(),
        st.integers(),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    ),
)
_SCAN = st.tuples(st.just("scan"), _BOUNDS, _BOUNDS)
_OPS = st.lists(st.one_of(_WRITE, _WRITE, _SCAN), max_size=120)


def _expected(reference: dict, lo, hi) -> list[Record]:
    return [
        reference[key]
        for key in sorted(reference)
        if (lo is None or key >= lo) and (hi is None or key <= hi)
    ]


def _check_state(m: MemTable, reference: dict, seqnums: list[int]) -> None:
    assert len(m) == len(reference)
    assert bool(m) == bool(reference)
    assert m.antimatter_count == sum(r.antimatter for r in reference.values())
    assert m.memory_bytes() == m.recompute_memory_bytes()
    assert m.memory_bytes() == sum(map(record_footprint, reference.values()))
    assert m.seqnum_range == ((seqnums[0], seqnums[-1]) if seqnums else None)
    for key, record in reference.items():
        assert m.get(key) is record


@given(_OPS)
def test_memtable_matches_a_dict_and_sorted_reference(operations):
    m = MemTable()
    reference: dict[int, Record] = {}
    seqnums: list[int] = []
    for seqnum, (op, a, b, *rest) in enumerate(operations):
        if op == "write":
            key, anti, value = a, b, rest[0]
            record = (
                Record.anti(key, seqnum=seqnum)
                if anti
                else Record.matter(key, value, seqnum=seqnum)
            )
            m.write(record)
            reference[key] = record
            seqnums.append(seqnum)
            _check_state(m, reference, seqnums)
        else:
            assert list(m.scan(a, b)) == _expected(reference, a, b)
    assert list(m.sorted_records()) == _expected(reference, None, None)
    assert m.get(51) is None


@given(_OPS, st.integers(1, 9))
def test_sorted_columnar_chunks_are_the_sorted_records(operations, chunk_size):
    m = MemTable()
    for seqnum, (op, key, anti, *_rest) in enumerate(operations):
        if op == "write":
            m.write(
                Record.anti(key, seqnum=seqnum)
                if anti
                else Record.matter(key, seqnum, seqnum=seqnum)
            )
    m.scan(0, 10)  # a cached key list must not change what a flush reads
    records = list(m.sorted_records())
    chunks = list(m.sorted_columnar_chunks(chunk_size))
    assert [len(chunk) for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    assert all(0 < len(chunk) <= chunk_size for chunk in chunks)
    assert [key for chunk in chunks for key in chunk.keys_list()] == [
        r.key for r in records
    ]
    assert [s for chunk in chunks for s in chunk.seqnums] == [r.seqnum for r in records]
    assert sum(chunk.antimatter_count for chunk in chunks) == m.antimatter_count
    flags = [
        flag
        for chunk in chunks
        for flag in (chunk.anti if chunk.anti is not None else [False] * len(chunk))
    ]
    assert flags == [r.antimatter for r in records]
    values = [
        value
        for chunk in chunks
        for value in (chunk.values if chunk.values is not None else [None] * len(chunk))
    ]
    assert values == [r.value for r in records]


@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers())))
def test_matches_dict_semantics(pairs):
    m = MemTable()
    reference = {}
    for seqnum, (key, value) in enumerate(pairs):
        m.write(Record.matter(key, value, seqnum=seqnum))
        reference[key] = value
    assert len(m) == len(reference)
    assert [(r.key, r.value) for r in m.sorted_records()] == sorted(reference.items())


@settings(max_examples=30)
@given(
    st.sets(st.integers(0, 500)),
    st.integers(0, 500),
    st.integers(0, 500),
)
def test_range_matches_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    m = MemTable()
    for key in keys:
        m.write(Record.matter(key, key, seqnum=key))
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [r.key for r in m.scan(lo, hi)] == expected


@settings(max_examples=40)
@given(
    st.sets(st.integers(0, 200)),
    st.one_of(st.none(), st.integers(-10, 210)),
    st.one_of(st.none(), st.integers(-10, 210)),
)
def test_half_open_ranges_match_filter(keys, lo, hi):
    m = MemTable()
    for key in keys:
        m.write(Record.matter(key, key, seqnum=key))
    expected = sorted(
        k for k in keys if (lo is None or k >= lo) and (hi is None or k <= hi)
    )
    assert [r.key for r in m.scan(lo, hi)] == expected
