"""Data feeds: continuous ingestion channels (paper Sections 4.1, 4.3.4).

AsterixDB's *data feeds* stream external records into a dataset,
triggering the full LSM lifecycle.  Here a feed is one stack: a
cursor-aware *source* that delivers ``(seqno, record)`` pairs starting
*after* a given position, and the one :class:`ResumableFeedConsumer`
that applies them to an :class:`IngestTarget`.  The paper's three feed
kinds are three sources of it:

* socket feed -- :class:`ReplayableStreamFeed`: push model, records are
  byte-counted per delivery as from a Twitter-Firehose-style TCP
  source, replayable from any sequence number, optionally
  fault-injected, appendable while a consumer tails;
* file feed -- :class:`FileFeed`: pull model, records are read back
  from local JSON-lines files;
* changeable feed (Section 4.3.4) -- :class:`ChangestreamFeed`: a
  replayable log of records *marked* as insert/update/delete.  The
  paper breaks its ingestion into stages with a forced flush after
  each, so that later updates/deletes generate anti-matter against
  already-persisted components instead of being silently resolved in
  memory; the stage size is the consumer's ``flush_every``.

Outside input is checked in two places, each stated once.  The record
*format* is validated at the source edge: a malformed line
(:meth:`FileFeed.read`) or a document that is not a JSON-serialisable
dict (:meth:`ReplayableStreamFeed.append`; a changestream checks the
dict only, it serialises nothing) is skipped and counted
(``invalid_records`` / ``feed.records.invalid``) and takes no sequence
number, so cursors count valid records only.  The *primary key* is
validated at the consumer, the only place that knows ``pk_field``: a
record without it, or with a key or indexed value the target cannot
order, is counted (``feed.records.invalid`` and ``failed``) and passed
over like any other applied position.

:class:`FeedCursorStore` keeps durable per-feed cursors in the node
superblock (:class:`~repro.lsm.storage.SimulatedDisk`), so a crash loses
at most the uncheckpointed tail.  The durability model: ``mark_applied``
runs once per applied record, standing in for the sequence number
riding the operation's WAL entry (group commit of one => an acked
record is a durable record), while the *cursor* is the cheaper
read-resume hint flushed every ``checkpoint_every`` records.  After a
crash the consumer re-reads from the cursor and skips everything at or
below the applied high-water mark -- replayed, not re-applied -- which
is what makes recovery converge bit-identically with an uninterrupted
run.
"""

from __future__ import annotations

import enum
import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol

from repro.cluster.faults import FeedFaultPlan
from repro.errors import FeedDisconnectedError, FeedError, InvalidKeyError
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import get_registry, sanitize_segment
from repro.util.retry import RetryPolicy

__all__ = [
    "FeedOperation",
    "FeedRecord",
    "IngestTarget",
    "DatasetFeedAdapter",
    "FileFeed",
    "FeedCursorStore",
    "ReplayableStreamFeed",
    "ChangestreamFeed",
    "FeedConsumerStats",
    "ResumableFeedConsumer",
]


class FeedOperation(enum.Enum):
    """The operation marker on a changeable-feed record."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class FeedRecord:
    """One marked record flowing through a changeable feed."""

    operation: FeedOperation
    document: dict[str, Any]


class IngestTarget(Protocol):
    """What a feed needs from its destination (a dataset or cluster).

    ``name`` parameters are dataset names; :class:`~repro.lsm.dataset.
    Dataset` does not take them, so the cluster facade and the
    single-dataset adapter below both satisfy this protocol instead.
    """

    def insert(self, document: dict[str, Any]) -> None: ...

    def update(self, document: dict[str, Any]) -> bool: ...

    def delete(self, pk: Any) -> bool: ...

    def flush(self) -> None: ...


class DatasetFeedAdapter:
    """Adapts an :class:`LSMCluster` dataset to the ingest protocol."""

    def __init__(self, cluster: Any, dataset_name: str) -> None:
        self._cluster = cluster
        self._name = dataset_name

    def insert(self, document: dict[str, Any]) -> None:
        self._cluster.insert(self._name, document)

    def update(self, document: dict[str, Any]) -> bool:
        return self._cluster.update(self._name, document)

    def delete(self, pk: Any) -> bool:
        return self._cluster.delete(self._name, pk)

    def flush(self) -> None:
        self._cluster.flush_all(self._name)


class FileFeed:
    """The paper's file feed: a pull-based source reading JSON-lines
    files from local storage.

    Malformed lines (truncated JSON, garbage bytes, non-object values)
    are skipped and counted (``invalid_records`` /
    ``feed.records.invalid``) so one corrupt line cannot abort a
    multi-gigabyte backfill; ``strict=True`` restores fail-fast
    behaviour via :class:`~repro.errors.FeedError`.  A missing file is
    always an error -- that is a misconfiguration, not dirty data.
    """

    def __init__(
        self,
        paths: Iterable[str | Path],
        feed_id: str | None = None,
        strict: bool = False,
    ) -> None:
        self.paths = [Path(p) for p in paths]
        self.feed_id = feed_id or "file_" + sanitize_segment(
            self.paths[0].stem if self.paths else "empty"
        )
        self.strict = strict
        self.invalid_records = 0
        self._m_invalid = get_registry().counter("feed.records.invalid")

    @staticmethod
    def write_file(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
        """Materialise records as a JSON-lines feed file; returns count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for document in records:
                handle.write(json.dumps(document, separators=(",", ":")))
                handle.write("\n")
                count += 1
        return count

    @property
    def head_seqno(self) -> None:
        """Unknown until the files are read (finite source)."""
        return None

    @property
    def closed(self) -> bool:
        """File feeds are finite: exhausting them ends a tail."""
        return True

    def read(self, after: int = 0) -> Iterator[tuple[int, FeedRecord]]:
        """Yield ``(seqno, record)`` for every valid line past ``after``.

        Sequence numbers are 1-based positions among the *valid*
        records across all files, so a cursor taken from one run
        resumes correctly in the next as long as the files are
        immutable (the contract of a feed file).  A malformed line is
        counted only when it lies past ``after``, i.e. after the
        ``after``-th valid record: the lines before the cursor were
        counted by the run that read them first.  Lines
        between the cursor and a crash are read by both runs and
        counted twice, like the records the consumer replays there.
        """
        seqno = 0
        for path in self.paths:
            if not path.exists():
                raise FeedError(f"feed file {path} does not exist")
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        document = json.loads(line)
                        if not isinstance(document, dict):
                            raise ValueError(
                                f"expected object, got {type(document).__name__}"
                            )
                    except ValueError as exc:
                        if self.strict:
                            raise FeedError(
                                f"malformed feed line in {path}: {exc}"
                            ) from exc
                        if seqno >= after:
                            self.invalid_records += 1
                            self._m_invalid.inc()
                        continue
                    seqno += 1
                    if seqno > after:
                        yield seqno, FeedRecord(FeedOperation.INSERT, document)


class FeedCursorStore:
    """Durable per-feed cursors in a node's superblock.

    Two keys per feed, with deliberately different write cadences:

    * ``feed.<id>.applied`` -- the high-water mark of applied sequence
      numbers, advanced on *every* apply.  It models the seqno riding
      the operation's WAL entry (group commit of one: acked == durable),
      so it survives a crash exactly as far as the data does and is the
      idempotence floor for replay.
    * ``feed.<id>.cursor`` -- the read-resume position, flushed only
      every ``checkpoint_every`` records.  A crash re-reads from here;
      everything between cursor and applied is replayed and skipped.
    """

    def __init__(self, disk: SimulatedDisk) -> None:
        self._disk = disk

    @staticmethod
    def _key(feed_id: str, kind: str) -> str:
        return f"feed.{feed_id}.{kind}"

    def cursor(self, feed_id: str) -> int:
        """The durable read-resume position (0 = start of feed)."""
        return int(self._disk.superblock_get(self._key(feed_id, "cursor"), 0))

    def applied(self, feed_id: str) -> int:
        """The durable applied high-water mark (0 = nothing applied)."""
        return int(self._disk.superblock_get(self._key(feed_id, "applied"), 0))

    def checkpoint(self, feed_id: str, seqno: int) -> None:
        """Persist the read-resume cursor."""
        self._disk.superblock_put(self._key(feed_id, "cursor"), int(seqno))

    def mark_applied(self, feed_id: str, seqno: int) -> None:
        """Persist the applied high-water mark (per-apply)."""
        self._disk.superblock_put(self._key(feed_id, "applied"), int(seqno))


class _ReplayableLog:
    """Shared machinery of the replayable stream sources.

    An append-only in-memory log of records with 1-based contiguous
    sequence numbers.  ``read(after)`` re-delivers any suffix, which is
    what lets a consumer resume from a durable cursor; an optional
    :class:`~repro.cluster.faults.FeedFaultPlan` injects duplicate
    deliveries and mid-batch disconnects on the way out.  A record
    whose document is not a dict never enters the log: it is skipped
    and counted (``invalid_records`` / ``feed.records.invalid``).
    ``bytes_received`` charges every delivered copy the wire size its
    record was logged with (0 on a changestream, which serialises
    nothing).
    """

    def __init__(
        self,
        feed_id: str,
        fault_plan: FeedFaultPlan | None = None,
        batch_size: int = 32,
    ) -> None:
        if batch_size < 1:
            raise FeedError(f"batch_size must be >= 1, got {batch_size}")
        self.feed_id = feed_id
        self.batch_size = batch_size
        self._plan = fault_plan
        self._log: list[tuple[FeedRecord, int]] = []
        self._cond = threading.Condition()
        self._closed = False
        self._connected = True
        self.bytes_received = 0
        self.invalid_records = 0
        self.duplicates_delivered = 0
        self.partial_batches = 0
        obs = get_registry()
        self._m_invalid = obs.counter("feed.records.invalid")
        self._m_partial = obs.counter("feed.batches.partial")

    @property
    def head_seqno(self) -> int:
        """Sequence number of the newest appended record (0 if empty)."""
        with self._cond:
            return len(self._log)

    @property
    def closed(self) -> bool:
        """Whether the producer declared the stream finished."""
        with self._cond:
            return self._closed

    def close(self) -> None:
        """Producer side: no more records will be appended."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reconnect(self) -> None:
        """Re-establish the transport after a disconnect."""
        with self._cond:
            self._connected = True

    def wait_for(self, after: int, timeout: float = 0.05) -> None:
        """Block until a record past ``after`` exists or the stream
        closes (bounded by ``timeout``) -- the tail consumer's poll."""
        with self._cond:
            if len(self._log) > after or self._closed:
                return
            self._cond.wait(timeout)

    def _skip_invalid(self) -> int:
        """Skip and count one malformed record; it takes no seqno."""
        with self._cond:
            self.invalid_records += 1
        self._m_invalid.inc()
        return 0

    def _append_record(self, record: FeedRecord, wire_bytes: int = 0) -> int:
        """Log one record (``wire_bytes`` is charged per delivered
        copy); returns its seqno, or 0 for a skipped malformed one."""
        if not isinstance(record.document, dict):
            return self._skip_invalid()
        with self._cond:
            if self._closed:
                raise FeedError(f"feed {self.feed_id} is closed")
            self._log.append((record, wire_bytes))
            self._cond.notify_all()
            return len(self._log)

    def read(self, after: int = 0) -> Iterator[tuple[int, FeedRecord]]:
        """Deliver records past ``after``, batch by batch.

        Raises :class:`~repro.errors.FeedDisconnectedError` when the
        fault plan cuts the transport (losing the rest of the batch) or
        when called while disconnected; the consumer reconnects and
        re-reads from its position.
        """
        with self._cond:
            if not self._connected:
                raise FeedDisconnectedError(
                    f"feed {self.feed_id} is disconnected"
                )
        position = max(0, after)
        in_batch = 0
        while True:
            with self._cond:
                if position >= len(self._log):
                    return
                record, wire_bytes = self._log[position]
            seqno = position + 1
            position += 1
            in_batch += 1
            decision = self._plan.decide() if self._plan is not None else None
            self.bytes_received += wire_bytes
            yield seqno, record
            if decision is not None and decision.duplicate:
                self.duplicates_delivered += 1
                self.bytes_received += wire_bytes
                yield seqno, record
            if decision is not None and decision.disconnect_after:
                with self._cond:
                    self._connected = False
                if in_batch < self.batch_size:
                    self.partial_batches += 1
                    self._m_partial.inc()
                raise FeedDisconnectedError(
                    f"feed {self.feed_id} disconnected after record {seqno}"
                )
            if in_batch >= self.batch_size:
                in_batch = 0


class ReplayableStreamFeed(_ReplayableLog):
    """Socket-style push feed that can replay any suffix of its log.

    The paper's socket feed: each document is serialised once as it is
    received -- which is also the format check, a document JSON cannot
    carry is skipped and counted -- and ``bytes_received`` is the
    channel volume, charged per (re)delivered copy.  A producer thread
    can keep :meth:`append`-ing while a consumer tails, and an optional
    fault plan injects duplicates and partial-batch disconnects.
    """

    def __init__(
        self,
        feed_id: str,
        records: Iterable[dict[str, Any]] = (),
        fault_plan: FeedFaultPlan | None = None,
        batch_size: int = 32,
    ) -> None:
        super().__init__(feed_id, fault_plan, batch_size)
        for document in records:
            self.append(document)

    def append(self, document: dict[str, Any]) -> int:
        """Producer side: publish one document; returns its seqno, or
        0 for a malformed one (skipped and counted)."""
        try:
            payload = json.dumps(document, separators=(",", ":")).encode()
        except (TypeError, ValueError):
            return self._skip_invalid()
        return self._append_record(
            FeedRecord(FeedOperation.INSERT, document), len(payload)
        )


class ChangestreamFeed(_ReplayableLog):
    """A replayable log of *marked* insert/update/delete operations.

    The paper's changeable feed (Section 4.3.4): the log carries
    :class:`FeedRecord` operations, so replaying a suffix after a crash
    re-delivers updates and deletes (which the consumer then
    deduplicates against its applied high-water mark).  Its staging --
    a forced flush after each stage of operations, so later updates
    and deletes meet persisted records and leave anti-matter -- is the
    consumer's ``flush_every``.
    """

    def __init__(
        self,
        feed_id: str,
        records: Iterable[FeedRecord] = (),
        fault_plan: FeedFaultPlan | None = None,
        batch_size: int = 32,
    ) -> None:
        super().__init__(feed_id, fault_plan, batch_size)
        for record in records:
            self.append(record)

    def append(self, record: FeedRecord) -> int:
        """Producer side: publish one operation; returns its seqno."""
        return self._append_record(record)


@dataclass(frozen=True)
class FeedConsumerStats:
    """What one :meth:`ResumableFeedConsumer.run` call did."""

    applied: int
    replayed: int
    deduplicated: int
    failed: int
    backfilled: int
    tailed: int
    checkpoints: int
    disconnects: int
    reconnects: int


class ResumableFeedConsumer:
    """Drives a cursor-aware source into a target, crash-resumably.

    One consumer owns one feed: it reads ``(seqno, record)`` pairs from
    the source starting after the durable cursor, applies them to the
    target with idempotent dedup keyed by ``(feed_id, seqno)``, and
    checkpoints the cursor every ``checkpoint_every`` applied records.
    Injected disconnects are retried with the shared
    :class:`~repro.util.retry.RetryPolicy` (attempt and time budgets
    reset on progress, backoff jitter drawn from a feed-seeded RNG);
    exhausting either budget raises :class:`~repro.errors.FeedError`.

    ``run(stop_after=N)`` models a crash: the consumer stops mid-feed
    *without* the final checkpoint, exactly as a killed process would.
    A later consumer over the same cursor store resumes from the last
    checkpoint, replays the gap (counted as ``feed.resume.replayed``)
    and converges bit-identically with an uninterrupted run.

    ``flush_every`` forces a target flush at fixed *log positions*
    (multiples of the applied high-water mark), so an interrupted-and-
    resumed run produces the same disk-component boundaries as an
    uninterrupted one -- the property the ``repro servecheck`` harness
    verifies.  It is also the changeable feed's stage size (Section
    4.3.4): operations after a forced flush meet persisted records and
    leave anti-matter.

    A record without ``pk_field`` cannot be routed, and one whose key
    or indexed value the target rejects (:class:`~repro.errors.
    InvalidKeyError`) cannot be ordered: either is counted
    (``feed.records.invalid``, ``failed``) and its position is marked
    applied like any other, so a resumed run skips it too.
    """

    def __init__(
        self,
        source: Any,
        target: IngestTarget,
        cursor_store: FeedCursorStore,
        checkpoint_every: int = 64,
        retry_policy: RetryPolicy | None = None,
        pk_field: str = "id",
        flush_every: int | None = None,
        poll_interval: float = 0.002,
    ) -> None:
        if checkpoint_every < 1:
            raise FeedError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if flush_every is not None and flush_every < 1:
            raise FeedError(f"flush_every must be >= 1, got {flush_every}")
        self._source = source
        self._target = target
        self._cursor_store = cursor_store
        self.feed_id: str = source.feed_id
        self.checkpoint_every = checkpoint_every
        self.retry_policy = retry_policy or RetryPolicy()
        self.pk_field = pk_field
        self.flush_every = flush_every
        self.poll_interval = poll_interval
        self._rng = random.Random(f"consumer:{self.feed_id}")
        obs = get_registry()
        self._m_applied = obs.counter("feed.records.applied")
        self._m_invalid = obs.counter("feed.records.invalid")
        self._m_replayed = obs.counter("feed.resume.replayed")
        self._m_dedup = obs.counter("feed.records.deduplicated")
        self._m_checkpoints = obs.counter("feed.cursor.checkpoints")
        self._m_disconnects = obs.counter("feed.source.disconnects")
        self._m_reconnects = obs.counter("feed.source.reconnects")

    def _apply(self, record: FeedRecord) -> bool:
        """Apply one record; False when it changed nothing (``failed``)."""
        document = record.document
        if self.pk_field not in document:
            # Sources vouch for the format; only here is the key known.
            self._m_invalid.inc()
            return False
        try:
            if record.operation is FeedOperation.INSERT:
                self._target.insert(document)
                return True
            if record.operation is FeedOperation.UPDATE:
                return self._target.update(document)
            return self._target.delete(document[self.pk_field])
        except InvalidKeyError:
            # A key no index can order: the target rejected the
            # operation before logging it, so it is passed over too.
            self._m_invalid.inc()
            return False

    def run(
        self, tail: bool = False, stop_after: int | None = None
    ) -> FeedConsumerStats:
        """Consume the feed from the durable cursor.

        Args:
            tail: After exhausting the backlog, keep waiting for newly
                appended records until the source is closed
                (backfill-then-tail mode).  Finite sources (files)
                report ``closed`` and end the tail naturally.
            stop_after: Stop after applying this many records *without*
                writing the final checkpoint -- the simulated
                mid-feed crash used by the servecheck harness.
        """
        position = self._cursor_store.cursor(self.feed_id)
        resume_floor = self._cursor_store.applied(self.feed_id)
        applied_mark = resume_floor
        backfill_head = self._source.head_seqno
        applied = replayed = deduplicated = failed = 0
        backfilled = tailed = checkpoints = disconnects = reconnects = 0
        since_checkpoint = 0
        pauses = None  # the retry budget of the current disconnect streak

        def stats() -> FeedConsumerStats:
            return FeedConsumerStats(
                applied,
                replayed,
                deduplicated,
                failed,
                backfilled,
                tailed,
                checkpoints,
                disconnects,
                reconnects,
            )

        while True:
            try:
                for seqno, record in self._source.read(after=position):
                    pauses = None
                    position = max(position, seqno)
                    if seqno <= resume_floor:
                        replayed += 1
                        self._m_replayed.inc()
                        continue
                    if seqno <= applied_mark:
                        deduplicated += 1
                        self._m_dedup.inc()
                        continue
                    if not self._apply(record):
                        failed += 1
                    applied_mark = seqno
                    self._cursor_store.mark_applied(self.feed_id, seqno)
                    applied += 1
                    self._m_applied.inc()
                    since_checkpoint += 1
                    if backfill_head is not None and seqno > backfill_head:
                        tailed += 1
                    else:
                        backfilled += 1
                    if (
                        self.flush_every is not None
                        and applied_mark % self.flush_every == 0
                    ):
                        self._target.flush()
                    if since_checkpoint >= self.checkpoint_every:
                        self._cursor_store.checkpoint(self.feed_id, applied_mark)
                        checkpoints += 1
                        self._m_checkpoints.inc()
                        since_checkpoint = 0
                    if stop_after is not None and applied >= stop_after:
                        # Simulated crash: no final checkpoint, no flush.
                        return stats()
            except FeedDisconnectedError:
                disconnects += 1
                self._m_disconnects.inc()
                if pauses is None:
                    pauses = self.retry_policy.pauses(self._rng)
                pause = next(pauses, None)
                if pause is None:
                    raise FeedError(
                        f"feed {self.feed_id}: reconnect budget exhausted"
                    ) from None
                self.retry_policy.sleep(pause)
                reconnect = getattr(self._source, "reconnect", None)
                if reconnect is not None:
                    reconnect()
                reconnects += 1
                self._m_reconnects.inc()
                continue
            if tail and not self._source.closed:
                wait = getattr(self._source, "wait_for", None)
                if wait is not None:
                    wait(position, self.poll_interval)
                else:
                    time.sleep(self.poll_interval)
                continue
            break

        self._cursor_store.checkpoint(self.feed_id, applied_mark)
        checkpoints += 1
        self._m_checkpoints.inc()
        self._target.flush()
        return stats()
