"""Tests for durable cursors and the crash-resumable feed consumer."""

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FeedFaultPlan, FeedFaults
from repro.cluster.feeds import (
    ChangestreamFeed,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    FileFeed,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.errors import FeedDisconnectedError, FeedError
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.util.retry import RetryPolicy


class DictTarget:
    """Minimal ingest target: a dict of rows, exact and comparable."""

    def __init__(self):
        self.rows = {}
        self.flushes = 0

    def insert(self, document):
        self.rows[document["id"]] = dict(document)

    def update(self, document):
        if document["id"] not in self.rows:
            return False
        self.rows[document["id"]] = dict(document)
        return True

    def delete(self, pk):
        return self.rows.pop(pk, None) is not None

    def flush(self):
        self.flushes += 1


class DeadSource:
    """A feed whose transport is always down."""

    feed_id = "dead"
    head_seqno = 0
    closed = False

    def read(self, after=0):
        raise FeedDisconnectedError("transport down")

    def reconnect(self):
        pass


def _inserts(count, base=0):
    return [
        FeedRecord(FeedOperation.INSERT, {"id": base + i, "value": i * 7})
        for i in range(count)
    ]


def _consumer(source, target, store, checkpoint_every=8, **kwargs):
    kwargs.setdefault("retry_policy", RetryPolicy.immediate(max_attempts=3))
    return ResumableFeedConsumer(
        source, target, store, checkpoint_every=checkpoint_every, **kwargs
    )


class TestFeedCursorStore:
    def test_defaults_to_zero(self):
        store = FeedCursorStore(SimulatedDisk())
        assert store.cursor("f") == 0
        assert store.applied("f") == 0

    def test_roundtrip_and_isolation(self):
        store = FeedCursorStore(SimulatedDisk())
        store.checkpoint("a", 17)
        store.mark_applied("a", 23)
        store.checkpoint("b", 5)
        assert (store.cursor("a"), store.applied("a")) == (17, 23)
        assert (store.cursor("b"), store.applied("b")) == (5, 0)

    def test_cursor_lives_in_the_superblock(self):
        disk = SimulatedDisk()
        FeedCursorStore(disk).checkpoint("f", 9)
        assert disk.superblock_get("feed.f.cursor") == 9


class TestCheckpointCadence:
    def test_checkpoints_every_n_applied_plus_final(self):
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        stats = _consumer(
            ChangestreamFeed("f", _inserts(10)), target, store, checkpoint_every=4
        ).run()
        # at 4, at 8, and the final checkpoint on clean exit
        assert stats.checkpoints == 3
        assert store.cursor("f") == 10
        assert store.applied("f") == 10
        assert stats.applied == 10
        assert target.flushes == 1  # the clean-exit flush

    def test_flush_every_fires_at_log_positions(self):
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        _consumer(
            ChangestreamFeed("f", _inserts(10)),
            target,
            store,
            flush_every=3,
        ).run()
        # positions 3, 6, 9 plus the clean-exit flush
        assert target.flushes == 4

    def test_validation(self):
        store = FeedCursorStore(SimulatedDisk())
        with pytest.raises(FeedError):
            _consumer(ChangestreamFeed("f"), DictTarget(), store, checkpoint_every=0)
        with pytest.raises(FeedError):
            _consumer(ChangestreamFeed("f"), DictTarget(), store, flush_every=0)


class TestCrashResume:
    def test_crash_skips_final_checkpoint_then_resume_replays_gap(self):
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        records = _inserts(20)
        crashed = _consumer(
            ChangestreamFeed("f", records), target, store
        ).run(stop_after=13)
        assert crashed.applied == 13
        assert store.cursor("f") == 8  # last cadence checkpoint, not 13
        assert store.applied("f") == 13  # per-apply high-water mark
        resumed = _consumer(ChangestreamFeed("f", records), target, store).run()
        assert resumed.replayed == 5  # seqnos 9..13: re-read, not re-applied
        assert resumed.applied == 7  # seqnos 14..20
        assert crashed.applied + resumed.applied == 20
        assert sorted(target.rows) == list(range(20))

    def test_resume_after_completion_is_a_noop(self):
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        records = _inserts(12)
        _consumer(ChangestreamFeed("f", records), target, store).run()
        again = _consumer(ChangestreamFeed("f", records), target, store).run()
        assert again.applied == 0
        assert again.replayed == 0  # cursor is at the tail already
        assert sorted(target.rows) == list(range(12))

    def test_replayed_deletes_are_not_reapplied(self):
        # A replayed DELETE against an already-deleted row must be
        # skipped by the applied floor, not counted as a failure.
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        records = _inserts(10) + [
            FeedRecord(FeedOperation.DELETE, {"id": 3}),
            FeedRecord(FeedOperation.UPDATE, {"id": 4, "value": 99}),
        ]
        _consumer(
            ChangestreamFeed("f", records), target, store, checkpoint_every=5
        ).run(stop_after=12)
        resumed = _consumer(ChangestreamFeed("f", records), target, store).run()
        assert resumed.replayed == 2  # seqnos 11..12
        assert resumed.failed == 0
        assert 3 not in target.rows
        assert target.rows[4]["value"] == 99


class TestFeedFaults:
    def test_duplicate_deliveries_are_deduplicated(self):
        plan = FeedFaultPlan(seed=1, faults=FeedFaults(duplicate=1.0))
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        source = ChangestreamFeed("f", _inserts(15), fault_plan=plan)
        stats = _consumer(source, target, store).run()
        assert source.duplicates_delivered == 15
        assert stats.applied == 15
        assert stats.deduplicated == 15
        assert sorted(target.rows) == list(range(15))

    def test_disconnect_after_every_record_still_completes(self):
        plan = FeedFaultPlan(seed=2, faults=FeedFaults(disconnect=1.0))
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        source = ChangestreamFeed("f", _inserts(10), fault_plan=plan, batch_size=4)
        stats = _consumer(source, target, store).run()
        # every delivery is followed by a cut; progress resets the
        # attempt budget, so the run completes anyway
        assert stats.disconnects == 10
        assert stats.reconnects == 10
        assert stats.applied == 10
        assert source.partial_batches > 0
        assert sorted(target.rows) == list(range(10))

    def test_reconnect_budget_exhaustion_raises_typed_error(self):
        stats_store = FeedCursorStore(SimulatedDisk())
        consumer = _consumer(
            DeadSource(),
            DictTarget(),
            stats_store,
            retry_policy=RetryPolicy.immediate(max_attempts=3),
        )
        with pytest.raises(FeedError, match="reconnect budget exhausted"):
            consumer.run()

    def test_reconnect_time_budget_bounds_the_backoff(self):
        """``RetryPolicy.timeout`` caps the cumulative reconnect backoff,
        as it caps the statistics sink's: two 0.1 s pauses fit a 0.25 s
        budget, a third would not, although 9 attempts remain."""
        slept = []
        policy = RetryPolicy(
            max_attempts=10,
            base_backoff=0.1,
            max_backoff=0.1,
            jitter=0.0,
            timeout=0.25,
            sleep=slept.append,
        )
        consumer = _consumer(
            DeadSource(),
            DictTarget(),
            FeedCursorStore(SimulatedDisk()),
            retry_policy=policy,
        )
        with pytest.raises(FeedError, match="reconnect budget exhausted"):
            consumer.run()
        assert slept == pytest.approx([0.1, 0.1])

    def test_seeded_plans_are_reproducible_and_namespaced(self):
        decisions = [
            [FeedFaultPlan(seed=5, faults=FeedFaults(0.3, 0.3)).decide()
             for _ in range(20)]
            for _ in range(2)
        ]
        assert decisions[0] == decisions[1]


class TestBackfillThenTail:
    def test_tail_applies_live_appends_until_close(self):
        store = FeedCursorStore(SimulatedDisk())
        target = DictTarget()
        source = ReplayableStreamFeed(
            "live", ({"id": i, "value": i} for i in range(10))
        )
        consumer = _consumer(source, target, store, checkpoint_every=4)
        done: list = []

        def run():
            done.append(consumer.run(tail=True))

        thread = threading.Thread(target=run)
        thread.start()
        for i in range(10, 20):
            source.append({"id": i, "value": i})
        source.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "tail consumer failed to stop on close"
        stats = done[0]
        assert stats.applied == 20
        assert stats.backfilled == 10  # at or below head at start
        assert stats.tailed == 10  # appended while tailing
        assert sorted(target.rows) == list(range(20))

    def test_closed_feed_rejects_appends(self):
        source = ReplayableStreamFeed("done")
        source.close()
        with pytest.raises(FeedError):
            source.append({"id": 1})


def _ops(seed, count):
    """A deterministic mixed op stream keyed off a small seed."""
    records = []
    live = []
    for i in range(count):
        roll = (seed + i * 2654435761) % 100
        if roll < 70 or not live:
            live.append(i)
            records.append(
                FeedRecord(FeedOperation.INSERT, {"id": i, "value": roll})
            )
        elif roll < 85:
            records.append(
                FeedRecord(
                    FeedOperation.UPDATE, {"id": live[roll % len(live)], "value": i}
                )
            )
        else:
            records.append(
                FeedRecord(
                    FeedOperation.DELETE, {"id": live.pop(roll % len(live))}
                )
            )
    return records


FEED_KINDS = ["changestream", "socket", "file"]


def _source(kind, records, directory):
    """``records`` as one of the paper's three feed kinds.  The socket
    and file kinds carry bare documents, so there every operation
    arrives as an insert of its document."""
    if kind == "changestream":
        return ChangestreamFeed("f", records)
    documents = [record.document for record in records]
    if kind == "socket":
        return ReplayableStreamFeed("f", documents)
    path = Path(directory) / "feed.jsonl"
    if not path.exists():
        FileFeed.write_file(path, documents)
    return FileFeed([path], feed_id="f")


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(FEED_KINDS),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 60),
    first_kill=st.integers(0, 60),
    second_kill=st.integers(1, 60),
)
def test_resume_from_any_prefix_converges_bit_identical(
    kind, seed, count, first_kill, second_kill
):
    """Crash twice at arbitrary points; the resumed run must converge
    to the exact rows of an uninterrupted run."""
    records = _ops(seed, count)
    with tempfile.TemporaryDirectory() as directory:
        oracle = DictTarget()
        _consumer(
            _source(kind, records, directory), oracle, FeedCursorStore(SimulatedDisk())
        ).run()

        target = DictTarget()
        store = FeedCursorStore(SimulatedDisk())
        for stop_after in (min(first_kill, count), second_kill, None):
            final = _consumer(
                _source(kind, records, directory), target, store, checkpoint_every=7
            ).run(stop_after=stop_after)
    assert target.rows == oracle.rows
    assert final.deduplicated == 0  # replay floor absorbed every re-read


GOOD = [{"id": i, "value": i * 7} for i in range(4)]
PK_LESS = {"value": 5}


def _dirty_source(kind, directory):
    """Good records with every kind of bad one between them; returns
    ``(source, records skipped at the source edge, pk-less records the
    consumer must pass over)``."""
    if kind == "changestream":
        records = [
            FeedRecord(FeedOperation.INSERT, GOOD[0]),
            FeedRecord(FeedOperation.INSERT, PK_LESS),
            FeedRecord(FeedOperation.INSERT, GOOD[1]),
            FeedRecord(FeedOperation.DELETE, PK_LESS),
            FeedRecord(FeedOperation.INSERT, "not a dict"),
            FeedRecord(FeedOperation.INSERT, GOOD[2]),
            FeedRecord(FeedOperation.UPDATE, PK_LESS),
            FeedRecord(FeedOperation.INSERT, GOOD[3]),
        ]
        return ChangestreamFeed("f", records), 1, 3
    if kind == "socket":
        documents = [
            GOOD[0],
            PK_LESS,
            GOOD[1],
            {"id": 9, "value": object()},  # not JSON-serialisable
            "not a dict",
            GOOD[2],
            GOOD[3],
        ]
        return ReplayableStreamFeed("f", documents), 2, 1
    path = Path(directory) / "dirty.jsonl"
    path.write_text(
        '{"id": 0, "value": 0}\n'
        '{"value": 5}\n'
        '{"id": 1, "value": 7}\n'
        '{"id": 9, "value"\n'  # truncated JSON
        "[1, 2, 3]\n"  # valid JSON, not an object
        '{"id": 2, "value": 14}\n'
        '{"id": 3, "value": 21}\n'
    )
    return FileFeed([path], feed_id="f"), 2, 1


class TestInvalidRecords:
    """One bad record is counted and passed over; it never kills the
    feed, and a resumed run neither re-delivers nor re-counts it."""

    @pytest.mark.parametrize("kind", FEED_KINDS)
    def test_bad_records_are_counted_not_fatal(self, kind, tmp_path):
        source, skipped, pk_less = _dirty_source(kind, tmp_path)
        target = DictTarget()
        stats = _consumer(source, target, FeedCursorStore(SimulatedDisk())).run()
        assert source.invalid_records == skipped
        assert stats.failed == pk_less
        assert stats.applied == len(GOOD) + pk_less  # every valid position
        assert list(target.rows.values()) == GOOD

    @pytest.mark.parametrize("kind", FEED_KINDS)
    @pytest.mark.parametrize("kill_at", range(1, 7))
    def test_kill_and_resume_match_the_uninterrupted_run(
        self, kind, kill_at, tmp_path
    ):
        oracle = DictTarget()
        source, skipped, pk_less = _dirty_source(kind, tmp_path)
        whole = _consumer(source, oracle, FeedCursorStore(SimulatedDisk())).run()

        target = DictTarget()
        store = FeedCursorStore(SimulatedDisk())
        with use_registry(MetricsRegistry()) as registry:
            source, _skipped, _pk_less = _dirty_source(kind, tmp_path)
            crashed = _consumer(source, target, store, checkpoint_every=2).run(
                stop_after=kill_at
            )
            resumed = _consumer(source, target, store, checkpoint_every=2).run()
            invalid = registry.snapshot()["counters"]["feed.records.invalid"]
        assert target.rows == oracle.rows
        assert crashed.applied + resumed.applied == whole.applied
        assert crashed.failed + resumed.failed == whole.failed == pk_less
        assert store.applied("f") == store.cursor("f") == whole.applied
        # A re-read file counts only the bad lines past its cursor.
        assert invalid == skipped + pk_less
        assert source.invalid_records == skipped
