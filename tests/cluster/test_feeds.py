"""Tests for the paper's three feed kinds: three sources, one consumer."""

import json

import pytest

from repro.cluster import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    FileFeed,
    LSMCluster,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.core import StatisticsConfig
from repro.errors import ClusterError, FeedError
from repro.lsm.dataset import IndexSpec
from repro.synopses import SynopsisType
from repro.types import Domain


def _target(scheduler="sync"):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=1,
        stats_config=StatisticsConfig(SynopsisType.GROUND_TRUTH, budget=64),
        scheduler=scheduler,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 10**6),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 999))],
        memtable_capacity=25,
    )
    return cluster, DatasetFeedAdapter(cluster, "ds")


def _consume(source, cluster, target, **kwargs):
    """Drive one source to its end (final checkpoint and flush included)."""
    return ResumableFeedConsumer(
        source, target, FeedCursorStore(cluster.nodes[0].disk), **kwargs
    ).run()


def _doc(pk, value):
    return {"id": pk, "value": value}


class TestSocketFeed:
    def test_ingests_and_counts_bytes(self):
        cluster, target = _target()
        docs = [_doc(pk, pk % 1000) for pk in range(100)]
        feed = ReplayableStreamFeed("sock", docs)
        assert _consume(feed, cluster, target).applied == 100
        assert feed.bytes_received == sum(
            len(json.dumps(doc, separators=(",", ":"))) for doc in docs
        )
        assert cluster.count_records("ds") == 100


class TestSocketFeedHardening:
    def test_malformed_records_are_skipped_and_counted(self):
        cluster, target = _target()
        records = [
            _doc(0, 0),
            "not a dict",
            _doc(1, 1),
            {"id": 2, "value": object()},  # not JSON-serialisable
            _doc(3, 3),
        ]
        feed = ReplayableStreamFeed("sock", records)
        assert feed.invalid_records == 2
        assert feed.head_seqno == 3  # seqnos count valid records only
        assert feed.append(["still", "not", "a", "dict"]) == 0
        assert feed.append(_doc(4, 4)) == 4
        stats = _consume(feed, cluster, target)
        assert (stats.applied, stats.failed) == (4, 0)
        assert cluster.count_records("ds") == 4


class TestFileFeed:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        count = FileFeed.write_file(path, (_doc(pk, pk) for pk in range(50)))
        assert count == 50
        cluster, target = _target()
        assert _consume(FileFeed([path]), cluster, target).applied == 50
        assert cluster.count_records("ds") == 50

    def test_multiple_files(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"part{i}.jsonl"
            docs = (_doc(pk, pk) for pk in range(i * 10, i * 10 + 10))
            FileFeed.write_file(path, docs)
            paths.append(path)
        cluster, target = _target()
        assert _consume(FileFeed(paths), cluster, target).applied == 30
        assert cluster.count_records("ds") == 30

    def test_missing_file(self, tmp_path):
        cluster, target = _target()
        with pytest.raises(ClusterError):
            _consume(FileFeed([tmp_path / "ghost.jsonl"]), cluster, target)

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(
            '{"id": 0, "value": 0}\n'
            '{"id": 1, "value"\n'  # truncated JSON
            "\x00\x7f garbage bytes\n"
            "[1, 2, 3]\n"  # valid JSON, not an object
            "\n"  # blank line: not a record, not an error
            '{"id": 2, "value": 2}\n'
        )
        cluster, target = _target()
        feed = FileFeed([path])
        assert _consume(feed, cluster, target).applied == 2
        assert feed.invalid_records == 3
        assert cluster.count_records("ds") == 2

    def test_strict_mode_fails_fast_on_corrupt_line(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text('{"id": 0, "value": 0}\nnot json\n')
        cluster, target = _target()
        with pytest.raises(FeedError):
            _consume(FileFeed([path], strict=True), cluster, target)

    def test_cursor_aware_read_resumes_past_position(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        FileFeed.write_file(path, (_doc(pk, pk) for pk in range(10)))
        feed = FileFeed([path])
        tail = list(feed.read(after=7))
        assert [seqno for seqno, _record in tail] == [8, 9, 10]
        assert [record.document["id"] for _seqno, record in tail] == [7, 8, 9]
        assert feed.closed  # finite source: exhausting it ends a tail


class TestChangeableFeed:
    """Section 4.3.4: marked operations, staged by ``flush_every``."""

    def test_mixed_operations(self):
        cluster, target = _target()
        records = [
            FeedRecord(FeedOperation.INSERT, _doc(pk, pk)) for pk in range(60)
        ]
        records += [
            FeedRecord(FeedOperation.UPDATE, _doc(pk, pk + 500))
            for pk in range(0, 60, 2)
        ]
        records += [
            FeedRecord(FeedOperation.DELETE, _doc(pk, 0)) for pk in range(0, 60, 3)
        ]
        stats = _consume(
            ChangestreamFeed("changes", records), cluster, target, flush_every=20
        )
        assert (stats.applied, stats.failed) == (110, 0)
        assert cluster.count_records("ds") == 40
        assert cluster.get("ds", 2)["value"] == 502  # updated, not deleted
        assert cluster.get("ds", 6) is None  # updated, then deleted

    def test_staged_flushes_generate_antimatter(self):
        cluster, target = _target()
        records = [FeedRecord(FeedOperation.INSERT, _doc(pk, pk)) for pk in range(40)]
        records += [FeedRecord(FeedOperation.DELETE, _doc(pk, 0)) for pk in range(20)]
        _consume(ChangestreamFeed("changes", records), cluster, target, flush_every=40)
        # The deletes arrived after a forced flush, so they must appear
        # as anti-matter in some disk component.
        anti_total = 0
        for node in cluster.nodes:
            for partition_id in node.partition_ids:
                tree = node.dataset("ds", partition_id).secondary_tree("value_idx")
                anti_total += sum(c.antimatter_count for c in tree.components)
        assert anti_total == 20
        # And statistics still reconcile exactly (ground-truth type).
        true = cluster.count_secondary_range("ds", "value_idx", 0, 999)
        assert cluster.estimate("ds", "value_idx", 0, 999) == pytest.approx(true)

    def test_update_delete_of_missing_records_fail_softly(self):
        cluster, target = _target()
        records = [
            FeedRecord(FeedOperation.UPDATE, _doc(1, 5)),
            FeedRecord(FeedOperation.DELETE, _doc(2, 0)),
            FeedRecord(FeedOperation.INSERT, _doc(3, 7)),
        ]
        stats = _consume(
            ChangestreamFeed("changes", records), cluster, target, flush_every=10
        )
        assert stats.failed == 2
        assert stats.applied == 3  # every position is passed, failed or not
        assert cluster.count_records("ds") == 1


class TestThreadsScheduler:
    """The feeds against real background flushes and merges."""

    def test_adapter_ingest_under_threads_scheduler(self):
        cluster, target = _target(scheduler="threads")
        try:
            feed = ReplayableStreamFeed(
                "sock", (_doc(pk, pk % 1000) for pk in range(200))
            )
            assert _consume(feed, cluster, target).applied == 200
            cluster.drain_maintenance()
            assert cluster.count_records("ds") == 200
        finally:
            cluster.shutdown()

    def test_changeable_feed_under_threads_scheduler(self):
        cluster, target = _target(scheduler="threads")
        try:
            records = [
                FeedRecord(FeedOperation.INSERT, _doc(pk, pk)) for pk in range(80)
            ]
            records += [
                FeedRecord(FeedOperation.DELETE, _doc(pk, 0))
                for pk in range(0, 80, 4)
            ]
            stats = _consume(
                ChangestreamFeed("changes", records), cluster, target, flush_every=25
            )
            cluster.drain_maintenance()
            assert (stats.applied, stats.failed) == (100, 0)
            assert cluster.count_records("ds") == 60
            # The estimate only sees flushed components, so it may be
            # off by the handful of ops resolved inside a memtable --
            # identical to what the sync scheduler reports for this
            # workload; the point here is no divergence under threads.
            true = cluster.count_secondary_range("ds", "value_idx", 0, 999)
            assert abs(cluster.estimate("ds", "value_idx", 0, 999) - true) <= 2
        finally:
            cluster.shutdown()
