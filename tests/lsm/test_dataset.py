"""Tests for the dataset layer (primary + secondary index maintenance)."""

import pytest

from repro.errors import BulkloadError, QueryError, StorageError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.scheduler import SCHEDULER_MODES, make_scheduler
from repro.lsm.storage import SimulatedDisk
from repro.types import Domain


def _dataset(**kwargs):
    return Dataset(
        "tweets",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 2**31 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 999))],
        **kwargs,
    )


def _doc(pk, value):
    return {"id": pk, "value": value, "message": f"m{pk}"}


class TestCrud:
    def test_insert_and_get(self):
        ds = _dataset()
        ds.insert(_doc(1, 10))
        assert ds.get(1)["value"] == 10

    def test_update_existing(self):
        ds = _dataset()
        ds.insert(_doc(1, 10))
        assert ds.update(_doc(1, 20))
        assert ds.get(1)["value"] == 20

    def test_update_missing_returns_false(self):
        ds = _dataset()
        assert not ds.update(_doc(1, 10))

    def test_delete(self):
        ds = _dataset()
        ds.insert(_doc(1, 10))
        assert ds.delete(1)
        assert ds.get(1) is None
        assert not ds.delete(1)

    def test_missing_pk_field(self):
        ds = _dataset()
        with pytest.raises(StorageError):
            ds.insert({"value": 1})


class TestSecondaryMaintenance:
    def test_secondary_scan_reflects_inserts(self):
        ds = _dataset()
        for pk, value in [(1, 100), (2, 50), (3, 100)]:
            ds.insert(_doc(pk, value))
        entries = [(r.key[0], r.key[1]) for r in ds.scan_secondary("value_idx")]
        assert entries == [(50, 2), (100, 1), (100, 3)]

    def test_update_moves_secondary_entry(self):
        ds = _dataset()
        ds.insert(_doc(1, 100))
        ds.flush()  # force the old entry onto disk so anti-matter is needed
        ds.update(_doc(1, 200))
        ds.flush()
        entries = [r.key[0] for r in ds.scan_secondary("value_idx")]
        assert entries == [200]

    def test_update_same_sk_keeps_single_entry(self):
        ds = _dataset()
        ds.insert(_doc(1, 100))
        ds.update(_doc(1, 100))
        entries = [r.key for r in ds.scan_secondary("value_idx")]
        assert entries == [(100, 1)]

    def test_delete_removes_secondary_entry(self):
        ds = _dataset()
        ds.insert(_doc(1, 100))
        ds.insert(_doc(2, 200))
        ds.flush()
        ds.delete(1)
        assert [r.key[0] for r in ds.scan_secondary("value_idx")] == [200]

    def test_count_secondary_range(self):
        ds = _dataset()
        for pk in range(50):
            ds.insert(_doc(pk, pk * 10))
        assert ds.count_secondary_range("value_idx", 100, 200) == 11
        assert ds.count_secondary_range("value_idx", 0, 999) == 50

    def test_unknown_index(self):
        ds = _dataset()
        with pytest.raises(QueryError):
            ds.secondary_tree("nope")


def _component_ids(mode, durable):
    """Every tree's component ids after capacity flushes, merges and a
    forced flush of the remainder, on one scheduler mode."""
    scheduler = make_scheduler(mode)
    try:
        ds = _dataset(
            scheduler=scheduler,
            durable=durable,
            memtable_capacity=8,
            merge_policy=ConstantMergePolicy(max_components=3),
        )
        for pk in range(30):
            ds.insert(_doc(pk, pk % 7))
        for pk in range(0, 30, 4):
            ds.update(_doc(pk, 500 + pk))
        assert ds.flush() is None
        assert all(tree.fully_flushed for tree in ds._all_trees())
        assert ds.flush() is None  # nothing left
        return {
            tree.name: [component.component_id for component in tree.components]
            for tree in ds._all_trees()
        }
    finally:
        scheduler.shutdown()


class TestFlushCoordination:
    def test_capacity_flushes_all_indexes(self):
        ds = _dataset(memtable_capacity=10)
        for pk in range(25):
            ds.insert(_doc(pk, pk))
        assert ds.primary.flush_count == 2
        assert ds.secondary_tree("value_idx").flush_count == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError, match="memtable_capacity"):
            _dataset(memtable_capacity=0)

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    @pytest.mark.parametrize("mode", SCHEDULER_MODES)
    def test_forced_flush(self, mode, durable):
        # One flush body and one merge step serve every mode: the
        # component boundaries are the inline, non-durable ones.
        ids = _component_ids(mode, durable)
        assert ids == _component_ids("sync", False)
        # 38 operations: four capacity flushes of 8, merged into one as
        # the fourth exceeds ConstantMergePolicy(3), then the forced
        # flush of the remaining 6.
        assert [
            (cid.min_seq, cid.max_seq) for cid in ids["tweets.primary"]
        ] == [(32, 37), (0, 31)]


class TestBulkload:
    def test_bulkload_single_components(self):
        ds = _dataset()
        ds.bulkload(_doc(pk, 999 - pk) for pk in range(100))
        assert len(ds.primary.components) == 1
        assert len(ds.secondary_tree("value_idx").components) == 1
        assert ds.count_records() == 100
        # Secondary entries were sorted by (SK, PK).
        sks = [r.key[0] for r in ds.scan_secondary("value_idx")]
        assert sks == sorted(sks)

    def test_bulkload_into_nonempty_rejected(self):
        ds = _dataset()
        ds.insert(_doc(1, 1))
        with pytest.raises(BulkloadError):
            ds.bulkload([_doc(2, 2)])

    def test_refused_bulkload_leaves_nothing_behind(self, interleaved_dataset):
        # A generation rotated but not yet flushed is data too, and the
        # refusal comes before the manifest transaction opens.
        ds, scheduler = interleaved_dataset(memtable_capacity=1, durable=True)
        ds.insert(_doc(1, 1))
        assert ds.primary.immutable_count == 1
        disk = ds.primary.disk
        pages = {fid: disk.num_pages(fid) for fid in ds.live_file_ids()}
        with pytest.raises(BulkloadError):
            ds.bulkload([_doc(2, 2)])
        assert {fid: disk.num_pages(fid) for fid in ds.live_file_ids()} == pages
        scheduler.drain()
        assert ds.count_records() == 1

    def test_queries_after_bulkload(self):
        ds = _dataset()
        ds.bulkload(_doc(pk, pk) for pk in range(200))
        assert ds.get(150)["value"] == 150
        assert ds.count_secondary_range("value_idx", 10, 19) == 10


class TestEndToEnd:
    def test_mixed_workload_ground_truth(self):
        ds = _dataset(memtable_capacity=16)
        live = {}
        for pk in range(200):
            value = (pk * 37) % 1000
            ds.insert(_doc(pk, value))
            live[pk] = value
        for pk in range(0, 200, 3):
            value = (pk * 11) % 1000
            ds.update(_doc(pk, value))
            live[pk] = value
        for pk in range(0, 200, 7):
            ds.delete(pk)
            live.pop(pk, None)
        ds.flush()
        expected = sum(1 for v in live.values() if 100 <= v <= 400)
        assert ds.count_secondary_range("value_idx", 100, 400) == expected
        assert ds.count_records() == len(live)


class TestInsertMany:
    def test_matches_per_document_inserts(self):
        many = _dataset(memtable_capacity=64)
        loop = _dataset(memtable_capacity=64)
        docs = [_doc(pk, pk % 1000) for pk in range(200)]
        assert many.insert_many(docs) == 200
        for doc in docs:
            loop.insert(doc)
        assert many.count_records() == loop.count_records()
        assert many.get(123) == loop.get(123)
        # Same flush cadence: the batched path must honour the
        # memtable-capacity trigger per document, not per batch.
        assert len(many.primary.components) == len(loop.primary.components)
        assert many.count_secondary_range(
            "value_idx", 100, 300
        ) == loop.count_secondary_range("value_idx", 100, 300)

    def test_empty_batch(self):
        assert _dataset().insert_many([]) == 0
