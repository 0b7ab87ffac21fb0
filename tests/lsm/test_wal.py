"""Tests for the per-partition write-ahead log."""

import math

import pytest

from repro.errors import WALError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.record import Record
from repro.lsm.storage import SimulatedDisk
from repro.lsm.wal import WriteAheadLog
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import Domain


def _records(log):
    return [(seq, tree, rec) for seq, tree, rec in log.replay()]


def _log(log, tree, record):
    log.log_op(record.seqnum, [(tree, record)])


def test_append_and_replay_round_trip():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, {"v": 10}, seqnum=0))
    _log(log, "t", Record.anti(1, seqnum=1))
    log.sync()
    replayed = _records(log)
    assert [(seq, tree) for seq, tree, _rec in replayed] == [(0, "t"), (1, "t")]
    assert replayed[0][2].value == {"v": 10}
    assert replayed[1][2].antimatter


def test_op_atomic_entry_spans_trees():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    log.log_op(
        5,
        [
            ("primary", Record.matter(1, {"v": 10}, seqnum=5)),
            ("secondary", Record.matter((10, 1), None, seqnum=5)),
        ],
    )
    log.sync()
    replayed = _records(log)
    assert [(seq, tree) for seq, tree, _rec in replayed] == [
        (5, "primary"),
        (5, "secondary"),
    ]


def test_log_op_buffers_until_sync():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, None, seqnum=0))
    _log(log, "t", Record.matter(2, None, seqnum=1))
    assert log.pending_ops == 2
    assert _records(log) == []  # nothing durable yet
    log.sync()
    assert log.pending_ops == 0
    assert disk.num_pages(log.file_id) == 1  # one small group, one page
    assert len(_records(log)) == 2


def test_sync_flushes_partial_group():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, None, seqnum=0))
    log.sync()
    log.sync()  # nothing buffered: no empty group
    assert log.pending_ops == 0
    assert disk.num_pages(log.file_id) == 1
    assert len(_records(log)) == 1


def test_large_group_is_charged_one_page_per_page_bytes():
    disk = SimulatedDisk(page_bytes=256)
    log = WriteAheadLog(disk, "ds.p0")
    entries = []
    for seqnum in range(40):
        record = Record.matter(seqnum, {"v": "x" * seqnum}, seqnum=seqnum)
        _log(log, "t", record)
        fields = (record.key, record.value, False, seqnum)
        entries.append((seqnum, [("t", fields)]))
    written = disk.stats.pages_written
    log.sync()
    pages = math.ceil(len(repr(entries).encode()) / 256)
    assert disk.stats.pages_written - written == pages > 1
    assert [(seq, rec.value) for seq, _tree, rec in _records(log)] == [
        (seqnum, {"v": "x" * seqnum}) for seqnum in range(40)
    ]


def test_an_entry_larger_than_a_page_is_charged_its_size():
    disk = SimulatedDisk(page_bytes=64)
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, {"v": "y" * 300}, seqnum=0))
    log.sync()
    assert disk.num_pages(log.file_id) >= 300 / 64
    assert [rec.value for _seq, _tree, rec in _records(log)] == [{"v": "y" * 300}]


def test_truncate_starts_fresh_file_and_deletes_old():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, None, seqnum=0))
    log.sync()
    old_file = log.file_id
    log.truncate()
    assert log.file_id != old_file
    assert disk.superblock["wal:ds.p0"] == log.file_id
    assert old_file not in disk.live_file_ids()
    assert _records(log) == []


def test_truncate_refuses_uncommitted_ops():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, None, seqnum=0))
    with pytest.raises(WALError):
        log.truncate()


def test_recover_reopens_superblock_file():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, {"v": 10}, seqnum=0))
    log.sync()
    _log(log, "t", Record.matter(2, {"v": 20}, seqnum=1))  # never synced
    # A new process: only the disk survives.
    reopened = WriteAheadLog(disk, "ds.p0", recover=True)
    assert reopened.file_id == log.file_id
    replayed = _records(reopened)
    assert len(replayed) == 1
    assert replayed[0][2].value == {"v": 10}


def test_recover_without_superblock_entry_starts_fresh():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "other", recover=True)
    assert _records(log) == []


def test_replay_detects_corruption():
    disk = SimulatedDisk()
    log = WriteAheadLog(disk, "ds.p0")
    _log(log, "t", Record.matter(1, None, seqnum=0))
    log.sync()
    page = disk.read_page(log.file_id, 0)
    page["crc"] ^= 1  # bit rot
    with pytest.raises(WALError, match="checksum"):
        _records(log)


def _durable_dataset(disk, recover=False):
    return Dataset(
        "orders",
        disk,
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=20_000,
        durable=True,
        recover=recover,
    )


def test_one_insert_many_call_is_one_group_charged_by_size():
    """10 000 documents into one partition: one commit, at least
    ceil(encoded bytes / 4096) log pages, and a replay that restores
    every document exactly."""
    disk = SimulatedDisk()
    with use_registry(MetricsRegistry()) as registry:
        dataset = _durable_dataset(disk)
        docs = [
            {"id": pk, "value": (pk * 13) % 1024, "pad": "z" * 20}
            for pk in range(10_000)
        ]
        assert dataset.insert_many(docs) == 10_000
    counters = registry.snapshot()["counters"]
    assert counters["wal.appends"] == 10_000
    assert counters["wal.commits"] == 1
    wal = dataset._wal
    assert wal.pending_ops == 0
    encoded = len(repr(_grouped(wal)).encode())
    assert disk.num_pages(wal.file_id) >= math.ceil(encoded / 4096) > 1

    recovered = _durable_dataset(disk, recover=True)
    recovered.complete_recovery()
    assert [r.value for r in recovered.primary.scan()] == docs
    assert [r.key for r in recovered.scan_secondary("value_idx")] == [
        r.key for r in dataset.scan_secondary("value_idx")
    ]


def _grouped(wal):
    """The log's entries regrouped as (seqnum, [(tree, fields)])."""
    ops = {}
    for seqnum, tree, record in wal.replay():
        fields = (record.key, record.value, record.antimatter, record.seqnum)
        ops.setdefault(seqnum, []).append((tree, fields))
    return list(ops.items())
