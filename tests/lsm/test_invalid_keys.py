"""An unorderable key is rejected before it reaches the WAL.

Every index key is an ``int`` or a non-NaN ``float``.  A ``None``,
string or NaN primary key or indexed value used to pass the WAL commit
and then fail a memtable comparison half-way through the operation's
index writes: the primary and the secondary disagreed, recovery
replayed the same failure forever, and a feed consumer died on the raw
``TypeError``.  Now the operation is refused, typed, before it takes a
sequence number, and the feed consumer counts the record as invalid.
"""

from __future__ import annotations

import pytest

from repro.cluster.feeds import (
    ChangestreamFeed,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.errors import InvalidKeyError, StorageError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.storage import SimulatedDisk
from repro.types import Domain

INDEX = IndexSpec("v", "v", Domain(0, 100))
BAD_VALUES = [None, "7", float("nan"), (1, 2)]


def _open(disk: SimulatedDisk, recover: bool = False) -> Dataset:
    dataset = Dataset(
        "d",
        disk,
        primary_key="id",
        primary_domain=Domain(0, 100),
        indexes=[INDEX],
        durable=True,
        recover=recover,
    )
    if recover:
        dataset.complete_recovery()
    return dataset


def _state(dataset: Dataset) -> tuple:
    return (
        dataset.sequence.last,
        dataset.count_records(),
        dataset.count_secondary_range("v", 0, 100),
        [dataset.get(pk) for pk in (1, 2, 3)],
    )


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_a_bad_indexed_value_leaves_the_dataset_unchanged(bad):
    disk = SimulatedDisk()
    dataset = _open(disk)
    dataset.insert({"id": 1, "v": 5})
    dataset.insert({"id": 3, "v": 9})
    before = _state(dataset)
    with pytest.raises(InvalidKeyError):
        dataset.insert({"id": 2, "v": bad})
    with pytest.raises(InvalidKeyError):
        dataset.update({"id": 1, "v": bad})
    with pytest.raises(InvalidKeyError):
        dataset.insert({"id": 2})  # the indexed field is missing
    assert _state(dataset) == before
    dataset.flush()
    assert _state(dataset) == before


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_a_bad_primary_key_is_rejected_on_every_operation(bad):
    dataset = _open(SimulatedDisk())
    dataset.insert({"id": 1, "v": 5})
    before = _state(dataset)
    for operation in (
        lambda: dataset.insert({"id": bad, "v": 5}),
        lambda: dataset.update({"id": bad, "v": 5}),
        lambda: dataset.delete(bad),
    ):
        with pytest.raises(InvalidKeyError) as caught:
            operation()
        assert isinstance(caught.value, StorageError)
    assert _state(dataset) == before


def test_recovery_after_a_rejected_insert_succeeds():
    disk = SimulatedDisk()
    dataset = _open(disk)
    dataset.insert({"id": 1, "v": 5})
    with pytest.raises(InvalidKeyError):
        dataset.insert({"id": 2, "v": None})
    dataset.insert({"id": 3, "v": 9})
    before = _state(dataset)
    recovered = _open(disk, recover=True)
    assert _state(recovered) == before
    assert recovered.get(2) is None


def test_bulkload_rejects_a_bad_value_before_its_manifest_transaction():
    disk = SimulatedDisk()
    dataset = _open(disk)
    docs = [{"id": 1, "v": 5}, {"id": 2, "v": None}, {"id": 3, "v": 9}]
    with pytest.raises(InvalidKeyError):
        dataset.bulkload(docs)
    assert dataset.count_records() == 0
    assert not dataset.primary.components
    recovered = _open(disk, recover=True)
    assert recovered.count_records() == 0
    recovered.bulkload([docs[0], docs[2]])
    assert recovered.count_secondary_range("v", 0, 100) == 2


def test_the_feed_consumer_counts_a_bad_record_and_completes():
    disk = SimulatedDisk()
    dataset = _open(disk)
    feed = ChangestreamFeed(
        "changes",
        [
            FeedRecord(FeedOperation.INSERT, {"id": 1, "v": 5}),
            FeedRecord(FeedOperation.INSERT, {"id": 2, "v": None}),
            FeedRecord(FeedOperation.INSERT, {"id": 3, "v": 9}),
            FeedRecord(FeedOperation.UPDATE, {"id": 1, "v": float("nan")}),
            FeedRecord(FeedOperation.DELETE, {"id": "3"}),
            FeedRecord(FeedOperation.UPDATE, {"id": 3, "v": 10}),
        ],
    )
    stats = ResumableFeedConsumer(feed, dataset, FeedCursorStore(disk)).run()
    assert (stats.applied, stats.failed) == (6, 3)
    assert [dataset.get(pk) for pk in (1, 2, 3)] == [
        {"id": 1, "v": 5},
        None,
        {"id": 3, "v": 10},
    ]
    assert dataset.count_secondary_range("v", 0, 100) == 2
