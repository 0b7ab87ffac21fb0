"""The chunked component-write path at every chunk size.

``write_batch_size`` sets how many records flush/merge/bulkload drain
per columnar chunk.  Whatever the size, every component written (same
leaves, same Bloom bits) and every synopsis published must equal the
naive per-record reference of ``tests/lsm/reference.py`` -- the
statistics piggybacking contract is that chunking changes *cost*,
never *content*.
"""

import pytest

from repro.core.collector import StatisticsCollector
from repro.core.config import StatisticsConfig
from repro.errors import BulkloadError, StorageError, SynopsisError
from repro.lsm.btree import build_btree, build_btree_chunks
from repro.lsm.columnar import ColumnarChunk, columnar_chunk_stream
from repro.lsm.events import ComponentWriteContext, EventBus, LSMEventType
from repro.lsm.record import Record
from repro.lsm.rtree import build_rtree
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree, _default_key_extractor
from repro.synopses.base import SynopsisType
from repro.synopses.factory import create_builder
from repro.types import Domain
from tests.lsm.reference import (
    ReferenceObserver,
    reference_component,
    reference_synopsis_pair,
)

DOMAIN = Domain(0, 4095)
BATCH_SIZES = [512, 7, 1]


def _observed_tree(write_batch_size, **kwargs):
    """A tree whose every component write the reference checks."""
    tree = LSMTree(
        "t.primary",
        SimulatedDisk(),
        event_bus=EventBus(),
        write_batch_size=write_batch_size,
        **kwargs,
    )
    observer = ReferenceObserver([tree])
    observer.collector = StatisticsCollector(
        StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32), observer
    )
    observer.collector.register_index(tree.name, DOMAIN)
    tree.event_bus.subscribe(observer.collector)
    tree.event_bus.subscribe(observer)
    return tree, observer


def _scripted_run(write_batch_size):
    """One full lifecycle: upserts, deletes, flushes, and a merge."""
    tree, observer = _observed_tree(
        write_batch_size, memtable_capacity=4096, auto_flush=False
    )
    for key in range(0, 600, 2):
        tree.upsert(key, {"k": key})
    tree.flush()
    for key in range(100, 300):
        tree.upsert(key, {"k": -key})
    for key in range(0, 100, 4):
        tree.delete(key)
    tree.flush()
    tree.merge(tree.components)
    assert observer.mismatches() == []
    assert tree.observer_failures == 0
    return [(r.key, r.value) for r in tree.scan()]


class TestBatchedEquivalence:
    def test_scripted_lifecycle_identical_across_batch_sizes(self):
        live = {key: {"k": key} for key in range(0, 600, 2)}
        live.update({key: {"k": -key} for key in range(100, 300)})
        for key in range(0, 100, 4):
            del live[key]
        for batch in BATCH_SIZES:
            assert _scripted_run(batch) == sorted(live.items()), batch

    @pytest.mark.parametrize("batch", BATCH_SIZES, ids=str)
    def test_bulkload_synopses_and_scan(self, batch):
        tree, observer = _observed_tree(batch)
        tree.bulkload(
            (Record.matter(key) for key in range(0, 3000, 3)),
            expected_records=1000,
        )
        assert observer.mismatches() == []
        assert len(observer.expected) == 2  # the component + its synopsis pair
        assert [r.key for r in tree.scan()] == list(range(0, 3000, 3))

    def test_write_batch_size_validated(self):
        # A plain int >= 1: there is no per-record mode to select with None.
        for size in (0, None, 2.5):
            with pytest.raises(StorageError, match="write_batch_size"):
                LSMTree("t", SimulatedDisk(), write_batch_size=size)

    def test_unregistered_index_builder_rejected_at_construction(self):
        def build_heap(disk, records, leaf_capacity=64, fanout=64):
            raise AssertionError("never reached")

        with pytest.raises(StorageError, match="no chunk builder registered"):
            LSMTree("t", SimulatedDisk(), index_builder=build_heap)
        LSMTree("t", SimulatedDisk(), index_builder=build_rtree)  # registered


class TestChunkedBTreeBuilder:
    def test_chunked_build_matches_per_record(self):
        records = [Record.matter(key) for key in range(1000)]
        leaves = reference_component(records, 1000, 64, None)[0]
        flat = build_btree(SimulatedDisk(), iter(records))
        chunked = build_btree_chunks(
            SimulatedDisk(), columnar_chunk_stream(iter(records), 100)
        )
        for tree in (flat, chunked):
            assert list(tree.scan()) == records
            assert tree.num_records == 1000
            assert tree.num_pages == len(leaves) + 1  # one root above them
            assert tree.lookup(517).key == 517
            assert tree.lookup(-1) is None

    def test_chunked_build_rejects_unsorted_input(self):
        records = [Record.matter(2), Record.matter(1)]
        with pytest.raises(BulkloadError):
            build_btree_chunks(
                SimulatedDisk(), iter([ColumnarChunk.from_records(records)])
            )

    def test_unsorted_across_chunk_boundary_rejected(self):
        with pytest.raises(BulkloadError):
            build_btree_chunks(
                SimulatedDisk(),
                columnar_chunk_stream([Record.matter(5), Record.matter(4)], 1),
            )


class TestFailedBuildLeaksNoFile:
    def test_bulkload_error_deletes_the_half_built_file(self):
        disk = SimulatedDisk()
        tree = LSMTree("t", disk)
        with pytest.raises(BulkloadError):
            tree.bulkload([Record.matter(2), Record.matter(1)], expected_records=2)
        assert disk.live_file_ids() == set()
        assert tree.components == []

    def test_rtree_build_error_deletes_the_half_built_file(self):
        disk = SimulatedDisk()
        tree = LSMTree("t", disk, index_builder=build_rtree, leaf_capacity=2)
        keys = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (0, 0, 0)]
        with pytest.raises(BulkloadError):
            tree.bulkload(map(Record.matter, keys), expected_records=4)
        assert disk.live_file_ids() == set()


class TestBatchedFaultIsolation:
    def test_failing_batched_sink_dropped_not_fatal(self):
        class _ExplodingObserver:
            def begin_component_write(self, context):
                class _Sink:
                    def accept_many(self, chunk):
                        raise RuntimeError("boom")

                    def finish(self, component):
                        pass

                return _Sink()

        tree = LSMTree(
            "t.primary",
            SimulatedDisk(),
            event_bus=EventBus(),
            auto_flush=False,
            write_batch_size=8,
        )
        tree.event_bus.subscribe(_ExplodingObserver())
        for key in range(100):
            tree.upsert(key)
        tree.flush()
        assert [r.key for r in tree.scan()] == list(range(100))
        assert tree.observer_failures >= 1


class TestAcceptBatch:
    def test_prefers_accept_many(self):
        # The sink protocol is accept_many + finish: a sink that also
        # offers per-record ``accept`` is never driven through it.
        calls = []

        class _Observer:
            def begin_component_write(self, context):
                class _Sink:
                    def accept(self, record):
                        calls.append(("one", record.key))

                    def accept_many(self, chunk):
                        calls.append(("many", len(chunk)))

                    def finish(self, component):
                        calls.append(("finish", component.record_count))

                return _Sink()

        tree = LSMTree("t", SimulatedDisk(), event_bus=EventBus(), write_batch_size=2)
        tree.event_bus.subscribe(_Observer())
        tree.bulkload(map(Record.matter, range(3)), expected_records=3)
        assert calls == [("many", 2), ("many", 1), ("finish", 3)]


class TestCollectorBatchedTap:
    RECORDS = [
        Record.matter(1),
        Record.anti(2),
        Record.matter(3),
        Record.matter(5),
        Record.anti(8),
        Record.matter(9),
    ]

    def _tap(self, expected_records):
        published = {}

        class _Sink:
            def publish(self, key, uid, synopsis, anti_synopsis):
                published[key] = synopsis.to_payload(), anti_synopsis.to_payload()

        collector = StatisticsCollector(
            StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32), _Sink()
        )
        collector.register_index("idx", DOMAIN)
        context = ComponentWriteContext(
            index_name="idx",
            event_type=LSMEventType.FLUSH,
            expected_records=expected_records,
            key_extractor=_default_key_extractor,
        )
        return collector, collector.begin_component_write(context), published

    def test_accept_many_matches_accept(self):
        # ``accept`` is the chunk-of-one adapter onto ``accept_many``;
        # either way the pair equals one ``add`` per record.
        class _Component:
            uid = 0

        for chunked in (True, False):
            collector, tap, published = self._tap(6)
            if chunked:
                tap.accept_many(ColumnarChunk.from_records(self.RECORDS[:3]))
                tap.accept_many(ColumnarChunk.from_records(self.RECORDS[3:]))
            else:
                for record in self.RECORDS:
                    tap.accept(record)
            tap.finish(_Component())
            assert published["idx"] == reference_synopsis_pair(
                self.RECORDS,
                lambda record: record.key,
                lambda: create_builder(SynopsisType.EQUI_WIDTH, DOMAIN, 32, 6),
            )
            assert collector.metrics.matter_records_observed == 4
            assert collector.metrics.antimatter_records_observed == 2

    def test_sorted_family_rejects_unsorted_batch(self):
        _collector, tap, _published = self._tap(2)
        with pytest.raises(SynopsisError):
            tap.accept_many(
                ColumnarChunk.from_records([Record.matter(9), Record.matter(3)])
            )
