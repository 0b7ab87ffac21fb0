"""The columnar chunk representation.

docs/DATAPATH.md is the contract under test: column layout and dtype
rules, the matter/anti split a statistics tap reads (an extractor with
no column twin is a typed error), the columnar B-tree leaf packing
(checked against ``tests/lsm/reference.py``) and the chunk-traffic
instruments.
"""

import pytest

from repro.errors import BulkloadError, ConfigurationError
from repro.lsm.btree import build_btree, build_btree_chunks
from repro.lsm.columnar import (
    ColumnarChunk,
    columnar_chunk_stream,
    split_matter_anti,
)
from repro.lsm.events import EventBus
from repro.lsm.record import Record
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree, _default_key_extractor
from repro.obs.registry import MetricsRegistry, use_registry
from tests.lsm.reference import chunk_records, reference_component


class TestColumnarChunk:
    def test_from_records_columns(self):
        records = [
            Record.matter(3, {"v": 30}, seqnum=7),
            Record.anti(5, seqnum=8),
            Record.matter(9, {"v": 90}, seqnum=9),
        ]
        chunk = ColumnarChunk.from_records(records)
        assert len(chunk) == 3
        assert chunk.keys_list() == [3, 5, 9]
        assert list(chunk.typed_keys) == [3, 5, 9]
        assert chunk.values == [{"v": 30}, None, {"v": 90}]
        assert chunk.anti == [False, True, False]
        assert chunk.antimatter_count == 1
        assert list(chunk.seqnums) == [7, 8, 9]

    def test_pure_matter_chunk_drops_anti_column(self):
        chunk = ColumnarChunk.from_records([Record.matter(1), Record.matter(2)])
        assert chunk.anti is None
        assert chunk.antimatter_count == 0
        assert chunk.values is None  # all-None value column collapses

    def test_non_integer_keys_have_no_typed_column(self):
        strings = ColumnarChunk.from_records([Record.matter("A")])
        tuples = ColumnarChunk.from_columns([(1, 2), (3, 4)])
        huge = ColumnarChunk.from_columns([2**70])
        assert strings.typed_keys is None
        assert tuples.typed_keys is None
        assert huge.typed_keys is None
        assert strings.keys_list() == ["A"]
        assert tuples.keys_list() == [(1, 2), (3, 4)]

    def test_from_columns_defaults(self):
        chunk = ColumnarChunk.from_columns([4, 8])
        assert list(chunk.seqnums) == [0, 0]  # unstamped, like Record's default
        assert chunk_records(chunk) == [Record.matter(4), Record.matter(8)]
        assert chunk.values is None
        assert chunk.anti is None

    def test_payload_column_none_rules(self):
        chunk = ColumnarChunk.from_columns(
            [1, 2, 3], values=[{"a": 10}, {"b": 1}, "not-a-dict"]
        )
        assert chunk.payload_column("a") == [10, None, None]
        no_values = ColumnarChunk.from_columns([1, 2])
        assert no_values.payload_column("a") == [None, None]

    def test_chunk_stream_preserves_order_and_sizes(self):
        records = [Record.matter(k) for k in range(10)]
        chunks = list(columnar_chunk_stream(iter(records), 4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [k for c in chunks for k in c.keys_list()] == list(range(10))


class TestSplitMatterAnti:
    def test_raw_key_fast_path_is_zero_copy(self):
        chunk = ColumnarChunk.from_columns([1, 2, 3])
        matter, anti, skipped = split_matter_anti(chunk, _default_key_extractor)
        assert matter is chunk.typed_keys  # the typed buffer itself
        assert len(anti) == 0 and skipped == 0

    def test_mixed_chunk_splits_in_row_order(self):
        chunk = ColumnarChunk.from_records(
            [Record.matter(1), Record.anti(2), Record.matter(3)]
        )
        matter, anti, skipped = split_matter_anti(
            chunk, _default_key_extractor
        )
        assert list(matter) == [1, 3]
        assert list(anti) == [2]
        assert skipped == 0

    def test_payload_field_extractor_skips_nones(self):
        def extractor(record):
            payload = record.value
            return payload.get("v") if isinstance(payload, dict) else None

        extractor.payload_field = "v"
        chunk = ColumnarChunk.from_columns(
            [1, 2, 3], values=[{"v": 10}, None, {"v": 30}]
        )
        matter, anti, skipped = split_matter_anti(chunk, extractor)
        assert list(matter) == [10, 30]
        assert skipped == 1

    def test_unknown_extractor_is_a_typed_error(self):
        chunk = ColumnarChunk.from_records([Record.matter(1), Record.anti(2)])
        with pytest.raises(ConfigurationError, match="no column twin"):
            split_matter_anti(chunk, lambda r: r.key)


class TestColumnarBTreeBuild:
    def test_columnar_build_matches_per_record(self):
        records = [
            Record.matter(key, {"k": key}, seqnum=key + 7) for key in range(1000)
        ]
        leaves = reference_component(records, 1000, 64, None)[0]
        for build in (
            lambda disk: build_btree(disk, iter(records)),
            lambda disk: build_btree_chunks(
                disk, columnar_chunk_stream(iter(records), 100)
            ),
        ):
            tree = build(SimulatedDisk())
            assert [
                tree._read_page(page_no).records
                for page_no in range(len(leaves))  # leaves are appended first
            ] == leaves
            assert list(tree.scan()) == records
            assert tree.num_records == 1000
            assert tree.lookup(517) == records[517]
            assert tree.lookup(-1) is None

    def test_columnar_unsorted_within_chunk_rejected(self):
        chunk = ColumnarChunk.from_columns([2, 1])
        with pytest.raises(BulkloadError, match="not strictly sorted"):
            build_btree_chunks(SimulatedDisk(), iter([chunk]))

    def test_columnar_unsorted_across_boundary_rejected(self):
        chunks = [
            ColumnarChunk.from_columns([5]),
            ColumnarChunk.from_columns([4]),
        ]
        with pytest.raises(BulkloadError, match="not strictly sorted"):
            build_btree_chunks(SimulatedDisk(), iter(chunks))


class TestColumnarInstruments:
    def test_columnar_instruments_emitted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            tree = LSMTree(
                "t.obs",
                SimulatedDisk(),
                event_bus=EventBus(),
                write_batch_size=32,
                registry=registry,
            )
            tree.bulkload(
                (Record.matter(k) for k in range(100)), expected_records=100
            )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ingest.columnar.chunks"] == 4
        histogram = snapshot["histograms"]["ingest.columnar.chunk_records"]
        assert histogram["count"] == 4
        assert histogram["sum"] == 100
