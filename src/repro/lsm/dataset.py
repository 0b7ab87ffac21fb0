"""Datasets: a primary LSM index plus LSM-ified secondary indexes.

Mirrors AsterixDB's storage design (paper Section 3): the dataset's
records live in a primary LSM B-tree keyed by the primary key (PK), and
each secondary index is its own LSM B-tree whose entries are
``(SK, PK)`` pairs -- or ``(SK1, SK2, PK)`` triples for composite-key
indexes (the paper's Section 5 future work, served by the 2-D synopses
in :mod:`repro.synopses.multidim`).  Updates and deletes write
anti-matter into the secondary indexes to cancel the entries of older
record versions, so a reconciled secondary scan always reflects the
live data.

All indexes of a dataset share one sequence generator and one event bus
and are flushed together, which keeps their component boundaries (and
therefore per-component statistics) aligned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import (
    BulkloadError,
    InvalidKeyError,
    QueryError,
    RecoveryError,
    StorageError,
)
from repro.lsm.columnar import register_summary_extractor
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.events import EventBus
from repro.lsm.manifest import Manifest
from repro.lsm.memory import MemoryArbiter
from repro.lsm.merge_policy import MergePolicy, NoMergePolicy
from repro.lsm.pacing import MergePacer
from repro.lsm.record import Record
from repro.lsm.scheduler import MaintenanceScheduler, SyncScheduler
from repro.lsm.tree import LSMTree, SequenceGenerator
from repro.lsm.storage import SimulatedDisk
from repro.lsm.wal import WriteAheadLog
from repro.obs.registry import get_registry
from repro.types import Domain

__all__ = [
    "IndexSpec",
    "CompositeIndexSpec",
    "SpatialIndexSpec",
    "Dataset",
    "secondary_index_name",
    "DEFAULT_MEMTABLE_CAPACITY",
    "DEFAULT_MAX_PENDING_FLUSHES",
]

DEFAULT_MEMTABLE_CAPACITY = 4096
"""Operations a dataset buffers in its active memtables before it
closes the generation and flushes every tree (:meth:`Dataset._flush_due`)."""

DEFAULT_MAX_PENDING_FLUSHES = 4
"""Rotated-but-unflushed memtable generations a dataset holds at most
(per tree): a writer whose rotation reaches it stalls on backpressure
until a flush drains one.  Each further writer thread that rotates
before that wait returns can seal one generation more."""

_NEG = float("-inf")
_POS = float("inf")


@dataclass(frozen=True)
class IndexSpec:
    """Declaration of one single-field secondary B-tree index.

    Attributes:
        name: Index name (unique within the dataset).
        field: Record field the index is built on (an integer field).
        domain: Value domain of the field, used by synopsis builders.
    """

    name: str
    field: str
    domain: Domain

    @property
    def fields(self) -> tuple[str, ...]:
        """Indexed fields (length 1)."""
        return (self.field,)

    def key_of(self, document: dict[str, Any]) -> tuple[Any, ...]:
        """The secondary-key part of this index's entry for a record."""
        return (document[self.field],)


@dataclass(frozen=True)
class CompositeIndexSpec:
    """Declaration of a two-field composite-key B-tree index.

    Entries are ordered lexicographically by ``(field_1, field_2, PK)``,
    which is exactly the order the 2-D synopsis builders require.
    """

    name: str
    fields: tuple[str, str]
    domains: tuple[Domain, Domain]

    def __post_init__(self) -> None:
        if len(self.fields) != 2 or len(self.domains) != 2:
            raise StorageError(
                "composite indexes support exactly two fields"
            )

    def key_of(self, document: dict[str, Any]) -> tuple[Any, ...]:
        """The secondary-key part of this index's entry for a record."""
        return (document[self.fields[0]], document[self.fields[1]])


@dataclass(frozen=True)
class SpatialIndexSpec:
    """Declaration of an LSM-ified R-tree index over two point fields.

    Entries are ``(x, y, PK)`` triples; components are
    :class:`~repro.lsm.rtree.DiskRTree` structures, so rectangle
    queries descend MBRs while the LSM merge machinery still sees the
    lexicographically ordered stream it requires (the paper's Section 5
    R-tree future work).
    """

    name: str
    fields: tuple[str, str]
    domains: tuple[Domain, Domain]

    def __post_init__(self) -> None:
        if len(self.fields) != 2 or len(self.domains) != 2:
            raise StorageError("spatial indexes support exactly two fields")

    def key_of(self, document: dict[str, Any]) -> tuple[Any, ...]:
        """The (x, y) part of this index's entry for a record."""
        return (document[self.fields[0]], document[self.fields[1]])


def _check_key(value: Any, what: str) -> None:
    """Reject a key no LSM component can order: every key is an ``int``
    or a non-NaN ``float`` (each :class:`Domain` is an integer range).
    Checked before an operation takes its sequence number, so a
    rejected operation leaves no trace in the WAL or any memtable."""
    if isinstance(value, (int, float)) and value == value:
        return
    raise InvalidKeyError(f"{what} {value!r} is not an int or a non-NaN float")


def secondary_index_name(dataset_name: str, index_name: str) -> str:
    """Fully qualified LSM index name used on event contexts."""
    return f"{dataset_name}.{index_name}"


def _single_key_extractor(record: Record) -> Any:
    """Synopsis value of a (SK, PK) entry: the SK."""
    return record.key[0]


def _composite_key_extractor(record: Record) -> Any:
    """Synopsis value of a (SK1, SK2, PK) entry: the (SK1, SK2) pair."""
    return (record.key[0], record.key[1])


# Column twins so the collector's columnar tap never materialises
# Record objects for secondary-index statistics (docs/DATAPATH.md).
register_summary_extractor(
    _single_key_extractor,
    lambda chunk: [key[0] for key in chunk.keys_list()],
)
register_summary_extractor(
    _composite_key_extractor,
    lambda chunk: [(key[0], key[1]) for key in chunk.keys_list()],
)


class _GroupCommit:
    """The DML lock around one WAL group: whatever the body logged is
    committed before the lock is released -- also when the body raises
    an ordinary exception, so the operations applied before it stay
    durable.  A :class:`~repro.lsm.crashpoints.SimulatedCrash` is
    process death and commits nothing.  (A class rather than a
    generator context manager: it wraps every DML call.)"""

    __slots__ = ("_lock", "_wal")

    def __init__(self, lock: threading.RLock, wal: WriteAheadLog | None) -> None:
        self._lock = lock
        self._wal = wal

    def __enter__(self) -> None:
        self._lock.acquire()

    def __exit__(self, exc_type: Any, _exc: Any, _tb: Any) -> None:
        try:
            if self._wal is not None and (
                exc_type is None or issubclass(exc_type, Exception)
            ):
                self._wal.sync()
        finally:
            self._lock.release()


class Dataset:
    """A collection of records with a primary and secondary indexes."""

    def __init__(
        self,
        name: str,
        disk: SimulatedDisk,
        primary_key: str,
        primary_domain: Domain,
        indexes: Iterable[IndexSpec | CompositeIndexSpec | SpatialIndexSpec] = (),
        memtable_capacity: int = DEFAULT_MEMTABLE_CAPACITY,
        merge_policy: MergePolicy | None = None,
        durable: bool = False,
        wal_enabled: bool = True,
        durability_namespace: str | None = None,
        crash_injector: CrashInjector | None = None,
        recover: bool = False,
        scheduler: MaintenanceScheduler | None = None,
        maintenance_lane: str | None = None,
        merge_pacer: MergePacer | None = None,
        memory_arbiter: MemoryArbiter | None = None,
    ) -> None:
        if memtable_capacity < 1:
            raise StorageError(
                f"memtable_capacity must be >= 1, got {memtable_capacity}"
            )
        self.name = name
        self.primary_key = primary_key
        self.primary_domain = primary_domain
        self.event_bus = EventBus()
        self.memtable_capacity = memtable_capacity
        self._pending_writes = 0
        # WAL operations staged by _recover_from, applied (and flushed
        # at the normal cadence) by complete_recovery.
        self._replay_ops: list[list[tuple[LSMTree, Record]]] = []
        # Maintenance scheduling.  The default is a fresh SyncScheduler
        # (constructed here so it binds the *current* registry), on which
        # flush and merges run inline with the triggering write.  With a
        # concurrent scheduler, all of this dataset's maintenance shares
        # one FIFO lane: tasks for one dataset never run concurrently or
        # out of order, which is what makes the concurrent end state
        # bit-identical to the sync run.
        self._scheduler = scheduler if scheduler is not None else SyncScheduler()
        # Lane names must be deterministic (the virtual scheduler picks
        # among lanes by seeded choice over their sorted names); callers
        # sharing one scheduler across datasets pass a distinct lane per
        # dataset instance (e.g. the node's "<dataset>.p<partition>").
        self._lane = (
            maintenance_lane if maintenance_lane is not None else f"maint:{name}"
        )
        # Merge pacing (repro.lsm.pacing).  The pause is armed only
        # under real worker threads: sleeping inside the sync or virtual
        # schedulers has no writer to yield to and would only slow the
        # deterministic oracles down.  Token accounting always runs, so
        # paced and unpaced runs stay byte-identical.
        self.merge_pacer = merge_pacer
        if merge_pacer is not None:
            merge_pacer.set_blocking(self._scheduler.mode == "threads")
        # Memory arbitration (repro.lsm.memory).  The dataset registers
        # under its lane name (unique per node/partition) and publishes
        # pool breakdowns at write/flush/merge boundaries; the arbiter's
        # early-flush allowance is consulted on the DML thread only, so
        # arbitration replays identically under every scheduler mode
        # (docs/MEMORY.md).
        self._memory_arbiter = memory_arbiter
        if memory_arbiter is not None:
            memory_arbiter.register_dataset(self._lane)
        # Per-operation ingest latency (docs/OBSERVABILITY.md): the
        # wall-clock time a writer spends inside one DML call, stalls
        # and inline maintenance included -- the tail of this histogram
        # is exactly what merge pacing is meant to flatten.
        self._h_ingest_op = get_registry().histogram("ingest.op.seconds")
        # Serialises multi-index DML (and the rotation step of a
        # scheduled flush) so one operation's records always land in the
        # same memtable generation across all trees; one hold is one WAL
        # group (_GroupCommit).  Maintenance tasks take it only for the
        # WAL-truncation decision (a quick check, never during a flush
        # or merge build), so writers never wait out background I/O.
        # The scheduler refuses to wait on a thread that holds it.
        self._dml_lock = threading.RLock()
        self._scheduler.witness_lock(self._dml_lock)
        merge_policy = merge_policy if merge_policy is not None else NoMergePolicy()

        # Durability: a manifest makes every flush/merge/bulkload
        # two-phase and recoverable; the WAL makes individual operations
        # durable between flushes.  ``wal_enabled=False`` keeps the
        # manifest but drops the log -- the negative control that shows
        # what a crash costs without one.  All of it is opt-in so the
        # non-durable fast path is byte-for-byte the PR 3 hot path.
        self._injector = crash_injector
        self._manifest: Manifest | None = None
        self._wal: WriteAheadLog | None = None
        replayed: list[tuple[int, str, Record]] = []
        state = None
        if durable:
            namespace = (
                durability_namespace if durability_namespace is not None else name
            )
            self._manifest = Manifest(
                disk, namespace, recover=recover, crash_injector=crash_injector
            )
            if wal_enabled:
                self._wal = WriteAheadLog(
                    disk,
                    namespace,
                    recover=recover,
                    crash_injector=crash_injector,
                )
            self._m_replayed_ops = get_registry().counter("recovery.replayed.ops")
            if recover:
                state = self._manifest.replay()
                if self._wal is not None:
                    replayed = list(self._wal.replay())
        elif recover:
            raise RecoveryError(
                f"dataset {name!r} cannot recover without durable=True"
            )
        self._group_commit = _GroupCommit(self._dml_lock, self._wal)

        # Resume sequence numbers past everything that survived the
        # crash so replayed and new operations never collide.
        max_seen = -1
        if state is not None:
            for descriptors in state.components.values():
                for descriptor in descriptors:
                    max_seen = max(max_seen, descriptor.max_seq)
        for _seqnum, _tree, record in replayed:
            max_seen = max(max_seen, record.seqnum)
        self.sequence = SequenceGenerator(max_seen + 1)

        self.primary = LSMTree(
            name=secondary_index_name(name, "primary"),
            disk=disk,
            merge_policy=merge_policy,
            event_bus=self.event_bus,
            sequence=self.sequence,
            manifest=self._manifest,
            crash_injector=crash_injector,
            merge_pacer=merge_pacer,
        )
        self.indexes: dict[str, IndexSpec] = {}
        self.composite_indexes: dict[str, CompositeIndexSpec] = {}
        self.spatial_indexes: dict[str, SpatialIndexSpec] = {}
        self._secondary: dict[str, LSMTree] = {}
        for spec in indexes:
            if spec.name in self._secondary:
                raise StorageError(f"duplicate index name {spec.name!r}")
            index_builder = None
            if isinstance(spec, SpatialIndexSpec):
                from repro.lsm.rtree import build_rtree

                self.spatial_indexes[spec.name] = spec
                extractor = _composite_key_extractor
                index_builder = build_rtree
            elif isinstance(spec, CompositeIndexSpec):
                self.composite_indexes[spec.name] = spec
                extractor = _composite_key_extractor
            else:
                self.indexes[spec.name] = spec
                extractor = _single_key_extractor
            # No Bloom filter: the only point lookup is the primary
            # tree's; secondary, composite and spatial indexes are only
            # range-scanned, so a filter here would never be probed.
            self._secondary[spec.name] = LSMTree(
                name=secondary_index_name(name, spec.name),
                disk=disk,
                merge_policy=merge_policy,
                event_bus=self.event_bus,
                sequence=self.sequence,
                key_extractor=extractor,
                bloom_fpp=None,
                index_builder=index_builder,
                manifest=self._manifest,
                crash_injector=crash_injector,
                merge_pacer=merge_pacer,
            )
        if recover and state is not None:
            self._recover_from(state, replayed)
        # Fair dispatch: let the thread-pool scheduler see when this
        # dataset's writers are one rotation away from stalling, so its
        # flush lane jumps ahead of other datasets' merge lanes.
        if not self._scheduler.inline:
            self._scheduler.add_pressure_probe(
                lambda: self.primary.immutable_count
                >= DEFAULT_MAX_PENDING_FLUSHES - 1
            )

    def _all_specs(
        self,
    ) -> Iterator[IndexSpec | CompositeIndexSpec | SpatialIndexSpec]:
        yield from self.indexes.values()
        yield from self.composite_indexes.values()
        yield from self.spatial_indexes.values()

    # -- recovery ---------------------------------------------------------

    def _recover_from(
        self, state: Any, replayed: list[tuple[int, str, Record]]
    ) -> None:
        """Reinstate disk components from the manifest and stage the
        WAL's operations for replay (invoked from ``__init__``)."""
        trees = {tree.name: tree for tree in self._all_trees()}
        unknown = set(state.components) - set(trees)
        if unknown:
            raise RecoveryError(
                f"manifest for dataset {self.name!r} names unknown trees: "
                f"{', '.join(sorted(unknown))}"
            )
        for tree in self._all_trees():
            tree.install_recovered(state.components.get(tree.name, []))
        # Group the log's records back into operations (one seqnum, one
        # record per tree), in log order; they are applied in
        # complete_recovery so observers can subscribe first.
        ops: dict[int, list[tuple[LSMTree, Record]]] = {}
        order: list[int] = []
        for seqnum, tree_name, record in replayed:
            tree = trees.get(tree_name)
            if tree is None:
                raise RecoveryError(
                    f"WAL for dataset {self.name!r} names unknown tree "
                    f"{tree_name!r}"
                )
            if record.seqnum <= tree.max_flushed_seqnum:
                continue  # already durable in a flushed component
            if seqnum not in ops:
                ops[seqnum] = []
                order.append(seqnum)
            ops[seqnum].append((tree, record))
        self._replay_ops = [ops[seqnum] for seqnum in order]

    def complete_recovery(self) -> None:
        """Finish a ``recover=True`` construction: let observers
        re-derive per-component state, then restore the flush/merge
        invariants the crash may have interrupted.

        Split from ``__init__`` so the caller can subscribe observers
        (the statistics collector) to the event bus first.
        """
        if self._manifest is None:
            raise RecoveryError(
                f"complete_recovery on non-durable dataset {self.name!r}"
            )
        with self.event_bus.group():
            for tree in self._all_trees():
                components = tree.components  # newest first
                if components:
                    self.event_bus.notify_recovered(
                        tree.name, list(reversed(components)), tree.key_extractor
                    )
        # Replay the logged operations through the live write path's
        # flush decision, so the recovered component boundaries (and
        # their statistics) match a run that never crashed -- even when
        # the crash caught several rotated generations still queued on
        # the background scheduler.  ``flush()`` is the barrier (it
        # drains a non-inline scheduler) ahead of the merges below.
        replay = self._replay_ops
        self._replay_ops = []
        for writes in replay:
            for tree, record in writes:
                tree.memtable.write(record)
            self._m_replayed_ops.inc()
            if self._flush_due():
                self.flush()
        while self._merge_step():
            pass
        self._publish_memory()

    def live_file_ids(self) -> set[int]:
        """Disk files this dataset still references (components plus
        its manifest and WAL) -- everything else of its files is
        post-crash garbage."""
        # R-tree components have no backing file id (they are rebuilt
        # in memory); only B-tree components pin disk files.
        ids = {
            file_id
            for tree in self._all_trees()
            for component in tree.components
            if (file_id := getattr(component.btree, "file_id", None)) is not None
        }
        if self._manifest is not None:
            ids.add(self._manifest.file_id)
        if self._wal is not None:
            ids.add(self._wal.file_id)
        return ids

    # -- write path -------------------------------------------------------

    def insert(self, document: dict[str, Any]) -> None:
        """Insert a new record (the caller guarantees PK uniqueness)."""
        self.insert_many((document,))

    def insert_many(self, documents: Iterable[dict[str, Any]]) -> int:
        """Insert a batch of new records; returns the number inserted.

        Each document is one operation -- its own sequence number, WAL
        entry and flush decision, so component boundaries do not depend
        on how documents are batched -- but the call takes the DML lock
        once per *segment* and commits one WAL group per segment.  A
        segment ends where a rotation was queued to a background
        scheduler: the lock is released for :meth:`_await_flush_capacity`
        and the next segment resumes after it.  When the call returns,
        every document is durable; if it raises, the documents applied
        before the failure are.
        """
        started = time.perf_counter()
        documents = iter(documents)
        inserted = 0
        queued = True
        while queued:
            queued = False
            with self._group_commit:
                for document in documents:
                    pk = self._pk_of(document)
                    keys = self._index_keys(document)
                    seqnum = self.sequence.next()
                    writes = [
                        (self.primary, Record.matter(pk, document, seqnum=seqnum))
                    ]
                    for spec, key in keys:
                        writes.append(
                            (
                                self._secondary[spec.name],
                                Record.matter((*key, pk), seqnum=seqnum),
                            )
                        )
                    queued = self._apply(seqnum, writes)
                    inserted += 1
                    if queued:
                        break
            if queued:
                self._await_flush_capacity()
        self._h_ingest_op.observe(time.perf_counter() - started)
        return inserted

    def update(self, document: dict[str, Any]) -> bool:
        """Replace the record with the same PK; returns False when the
        PK does not exist (AsterixDB enforces existence on updates)."""
        started = time.perf_counter()
        with self._group_commit:
            pk = self._pk_of(document)
            keys = self._index_keys(document)
            old = self.primary.get(pk)
            if old is None:
                return False
            seqnum = self.sequence.next()
            writes = [(self.primary, Record.matter(pk, document, seqnum=seqnum))]
            for spec, new_sk in keys:
                old_sk = spec.key_of(old)
                if old_sk == new_sk:
                    # The existing secondary entry still points at the
                    # live record; touching it would double-count the
                    # record in per-component statistics.
                    continue
                tree = self._secondary[spec.name]
                writes.append((tree, Record.anti((*old_sk, pk), seqnum=seqnum)))
                writes.append((tree, Record.matter((*new_sk, pk), seqnum=seqnum)))
            queued = self._apply(seqnum, writes)
        if queued:
            self._await_flush_capacity()
        self._h_ingest_op.observe(time.perf_counter() - started)
        return True

    def delete(self, pk: Any) -> bool:
        """Delete by PK; returns False when the PK does not exist."""
        started = time.perf_counter()
        _check_key(pk, "primary key")
        with self._group_commit:
            old = self.primary.get(pk)
            if old is None:
                return False
            seqnum = self.sequence.next()
            writes = [(self.primary, Record.anti(pk, seqnum=seqnum))]
            for spec in self._all_specs():
                writes.append(
                    (
                        self._secondary[spec.name],
                        Record.anti((*spec.key_of(old), pk), seqnum=seqnum),
                    )
                )
            queued = self._apply(seqnum, writes)
        if queued:
            self._await_flush_capacity()
        self._h_ingest_op.observe(time.perf_counter() - started)
        return True

    def bulkload(self, documents: Iterable[dict[str, Any]]) -> None:
        """Initial load of PK-sorted documents into an empty dataset.

        The primary component is built directly from the stream; each
        secondary index is built from its entries sorted in memory
        (standing in for the sort operator the paper mentions at the
        bottom of AsterixDB's load plan).
        """
        # Emptiness and every key are checked before the manifest
        # transaction opens: a rejected load leaves nothing behind.  A
        # generation rotated but not yet flushed counts as data.
        if not all(tree.empty for tree in self._all_trees()):
            raise BulkloadError(f"bulkload into non-empty dataset {self.name!r}")
        # Materialise: in AsterixDB the sort operator at the bottom of the
        # load plan has the full input, so the record count is known.
        documents = list(documents)
        pks = [self._pk_of(document) for document in documents]
        secondary_entries: dict[str, list[tuple[Any, ...]]] = {
            spec.name: [] for spec in self._all_specs()
        }
        for document, pk in zip(documents, pks):
            for spec, key in self._index_keys(document):
                secondary_entries[spec.name].append((*key, pk))
        txn = None
        if self._manifest is not None:
            txn = self._manifest.begin_txn()
        with self.event_bus.group():
            self.primary.bulkload(
                map(Record.matter, pks, documents),
                expected_records=len(documents),
                txn=txn,
            )
            for name, entries in secondary_entries.items():
                entries.sort()
                self._secondary[name].bulkload(
                    (Record.matter(key) for key in entries),
                    expected_records=len(entries),
                    txn=txn,
                )
            if self._manifest is not None:
                assert txn is not None
                self._manifest.commit_txn(txn)
        self._publish_memory()

    def flush(self) -> None:
        """Force-flush all indexes of the dataset together.

        Closes the active generation (:meth:`_close_generation`), then
        drains the scheduler: inline, the flush and every merge it
        warrants ran before this returns; under a concurrent scheduler
        this is the barrier that blocks until all background maintenance
        (follow-up merges included) completed.
        """
        self._close_generation()
        self._scheduler.drain()

    # -- maintenance --------------------------------------------------------

    @property
    def scheduler(self) -> MaintenanceScheduler:
        """The maintenance scheduler this dataset submits to."""
        return self._scheduler

    def _close_generation(self) -> bool:
        """Rotate every tree's memtable and persist the rotated
        generation: on an inline scheduler :meth:`_flush_rotated` then
        :meth:`_merge_step` until no policy wants a merge, on a
        concurrent one a queued :meth:`_flush_task`.  The rotation runs
        under the DML lock on the calling thread, so a background flush
        never holds up new writes, which land in fresh memtables.

        Returns True when it queued a flush: the caller then owes
        :meth:`_await_flush_capacity` once it released the DML lock.
        """
        with self._dml_lock:
            # Rotation cuts the log's coverage: everything the closing
            # generation holds must be committed before it is sealed.
            if self._wal is not None:
                self._wal.sync()
            self._pending_writes = 0
            rotated = False
            for tree in self._all_trees():
                rotated = tree.rotate() or rotated
            if not rotated:
                return False
            if not self._scheduler.inline:
                self._scheduler.submit(
                    self._flush_task, lane=self._lane, kind="flush"
                )
                return True
            self._flush_rotated()
            while self._merge_step():
                pass
            return False

    def _await_flush_capacity(self) -> None:
        """Backpressure after a rotation, entered with the DML lock
        released: the flush task it waits for takes that lock for its
        WAL-truncation check, so waiting while holding it deadlocks.
        Both waits are timing-only -- they change when the writer
        proceeds, never where a rotation cut -- and in steady state
        return immediately."""
        # Bound the rotated-but-unflushed queue so a stalled flush lane
        # cannot buffer unbounded memory: leaving with a free place keeps
        # this writer's next rotation within the bound.  The wait is the
        # measured `scheduler.stall`.
        self._scheduler.wait(
            lambda: self.primary.immutable_count < DEFAULT_MAX_PENDING_FLUSHES
        )
        # Arbiter backpressure: when sealed memtables -- the generation
        # just sealed included -- overflow the immutable pool, wait for
        # background flushes to drain it.  Progress is guaranteed:
        # queued flush tasks shrink the pool, and the wait returns as
        # soon as no background work is pending.
        arbiter = self._memory_arbiter
        if arbiter is not None and not arbiter.immutable_within_pool():
            arbiter.note_pressure_stall()
            self._scheduler.wait(arbiter.immutable_within_pool)

    def _flush_rotated(self) -> None:
        """The one flush body: persist the oldest rotated generation
        across all trees.

        Durable, the multi-tree flush is one manifest transaction: each
        tree's component commit is stamped with the transaction id and
        none takes effect until the ``txn.commit`` entry is durable, so
        a crash mid-flush can never install the primary's component
        without its secondaries'.  It is one event group too: observers
        forward every tree's new component together.
        """
        trees = list(self._all_trees())
        txn = None
        if self._manifest is not None:
            txn = self._manifest.begin_txn()
        with self.event_bus.group():
            for tree in trees:
                if tree.immutable_count:
                    tree.flush_one_immutable(txn)
            if self._manifest is not None and txn is not None:
                self._manifest.commit_txn(txn)
        # The shared WAL may only truncate once *every* acknowledged
        # write is on disk; with writes still buffered (or more rotated
        # generations queued) replay still needs the log.  Deferral
        # costs log space, never correctness: replay skips records
        # already covered by flushed components.  The check and the
        # truncate hold the DML lock together -- otherwise a concurrent
        # operation could log its entry between them and have it
        # deleted while its records are still memory-only.
        if self._wal is not None:
            with self._dml_lock:
                if all(tree.fully_flushed for tree in trees):
                    self._wal.truncate()
        self._publish_memory()

    def _merge_step(self) -> bool:
        """The one merge decision: run at most one merge, for the first
        tree (in order) whose policy wants one; returns whether it
        merged."""
        for tree in self._all_trees():
            if tree.merge_once() is not None:
                self._publish_memory()
                return True
        return False

    def _flush_task(self) -> None:
        """Lane task: :meth:`_flush_rotated`, then chain into merge
        decisions.  Lane FIFO guarantees generation k is installed
        before generation k+1, preserving the inline component order."""
        self._flush_rotated()
        # Merges continue at the *front* of the lane so the merge
        # decisions triggered by this flush happen before the next
        # queued flush installs -- the inline decision sequence.
        self._scheduler.submit(
            self._merge_continuation, lane=self._lane, front=True, kind="merge"
        )

    def _merge_continuation(self) -> None:
        """Lane task: one :meth:`_merge_step`, requeued while it merged.
        One merge per task keeps lanes responsive: other datasets' tasks
        interleave between merges."""
        if self._merge_step():
            self._scheduler.submit(
                self._merge_continuation, lane=self._lane, front=True, kind="merge"
            )

    def drain_maintenance(self) -> None:
        """Block until all scheduled background maintenance completed
        (re-raising failures captured off-thread)."""
        self._scheduler.drain()

    def _apply(
        self, seqnum: int, writes: "list[tuple[LSMTree, Record]]"
    ) -> bool:
        """Apply one operation's records to the memtables -- after, with
        a WAL attached, logging them (all trees, one seqnum, one atomic
        WAL entry, committed by the caller's :class:`_GroupCommit`).
        Returns :meth:`_after_write`'s answer."""
        if self._wal is not None:
            self._wal.log_op(
                seqnum, [(tree.name, record) for tree, record in writes]
            )
        for tree, record in writes:
            tree.write_record(record)
        return self._after_write()

    def _flush_due(self) -> bool:
        """Count one applied operation; True when the active generation
        closes here (capacity reached, or the arbiter's allowance
        exceeded).  Live writes and WAL replay share this one decision,
        and it reads DML-stream state only, so every scheduler mode and
        a replay after a crash rotate at the identical record
        (docs/MEMORY.md determinism contract)."""
        self._pending_writes += 1
        if self._pending_writes >= self.memtable_capacity:
            return True
        arbiter = self._memory_arbiter
        if arbiter is None:
            return False
        active = sum(tree.memtable.memory_bytes() for tree in self._all_trees())
        if arbiter.should_early_flush(active):
            arbiter.note_early_flush()
            return True
        return False

    def _after_write(self) -> bool:
        """The flush decision of one applied operation, under the DML
        lock.  Returns :meth:`_close_generation`'s answer: True when the
        caller owes :meth:`_await_flush_capacity` once the lock is
        released."""
        queued = self._flush_due() and self._close_generation()
        if self._memory_arbiter is not None:
            self._publish_memory()
        return queued

    def _publish_memory(self) -> None:
        """Push this dataset's pool breakdown to the arbiter (called at
        write/flush/merge/recovery boundaries, from any thread)."""
        arbiter = self._memory_arbiter
        if arbiter is not None:
            arbiter.update_usage(self._lane, *self.memory_breakdown())

    def memory_breakdown(self) -> tuple[int, int, int, int]:
        """Accounted bytes as ``(active, immutable, bloom, resident)``
        summed over every index tree."""
        per_tree = [tree.memory_breakdown() for tree in self._all_trees()]
        return tuple(map(sum, zip(*per_tree)))  # type: ignore[return-value]

    def memory_bytes(self) -> int:
        """Total accounted footprint of this dataset."""
        return sum(self.memory_breakdown())

    # -- read path ----------------------------------------------------------

    def get(self, pk: Any) -> dict[str, Any] | None:
        """Fetch the live record stored under ``pk``."""
        return self.primary.get(pk)

    def secondary_tree(self, index_name: str) -> LSMTree:
        """The LSM tree backing a secondary index (any arity)."""
        try:
            return self._secondary[index_name]
        except KeyError:
            raise QueryError(
                f"dataset {self.name!r} has no index {index_name!r}"
            ) from None

    def scan_secondary(
        self, index_name: str, lo: Any = None, hi: Any = None
    ) -> Iterator[Record]:
        """Live (SK, PK) entries with ``lo <= SK <= hi``, reconciled."""
        if index_name not in self.indexes:
            raise QueryError(
                f"{index_name!r} is not a single-field index of "
                f"{self.name!r}; use scan_composite for composite indexes"
            )
        tree = self.secondary_tree(index_name)
        lo_key = None if lo is None else (lo, _NEG)
        hi_key = None if hi is None else (hi, _POS)
        return tree.scan(lo_key, hi_key)

    def count_secondary_range(self, index_name: str, lo: Any, hi: Any) -> int:
        """True cardinality of ``lo <= SK <= hi`` (ground truth)."""
        return sum(1 for _record in self.scan_secondary(index_name, lo, hi))

    def scan_composite(
        self,
        index_name: str,
        lo_1: Any,
        hi_1: Any,
        lo_2: Any = None,
        hi_2: Any = None,
    ) -> Iterator[Record]:
        """Live composite entries inside the rectangle.

        The B-tree range scan covers the first key component; the
        second component is filtered -- exactly how a composite-key
        index serves rectangle predicates.
        """
        if index_name not in self.composite_indexes:
            raise QueryError(
                f"{index_name!r} is not a composite index of {self.name!r}"
            )
        tree = self.secondary_tree(index_name)
        lo_key = None if lo_1 is None else (lo_1, _NEG, _NEG)
        hi_key = None if hi_1 is None else (hi_1, _POS, _POS)
        for record in tree.scan(lo_key, hi_key):
            second = record.key[1]
            if lo_2 is not None and second < lo_2:
                continue
            if hi_2 is not None and second > hi_2:
                continue
            yield record

    def count_composite_range(
        self, index_name: str, lo_1: Any, hi_1: Any, lo_2: Any, hi_2: Any
    ) -> int:
        """True cardinality of a rectangle predicate (ground truth)."""
        return sum(
            1
            for _record in self.scan_composite(index_name, lo_1, hi_1, lo_2, hi_2)
        )

    def search_spatial(
        self, index_name: str, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> Iterator[Record]:
        """Live R-tree entries inside the rectangle, reconciled.

        Rectangle candidates are gathered MBR-first from every disk
        component plus the active and sealed memtables, then reconciled
        newest-wins with anti-matter cancellation (an entry and its
        tombstone share the same (x, y, PK) key, hence the same rectangle
        membership).
        """
        if index_name not in self.spatial_indexes:
            raise QueryError(
                f"{index_name!r} is not a spatial index of {self.name!r}"
            )
        tree = self.secondary_tree(index_name)
        best: dict[Any, Record] = {}

        def offer(record: Record) -> None:
            current = best.get(record.key)
            if current is None or record.seqnum > current.seqnum:
                best[record.key] = record

        for run in tree.memory_runs():
            for record in run:
                x, y = record.key[0], record.key[1]
                if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
                    offer(record)
        for component in tree.components:
            for record in component.btree.search(lo_x, hi_x, lo_y, hi_y):
                offer(record)
        for key in sorted(best):
            record = best[key]
            if not record.antimatter:
                yield record

    def count_spatial_range(
        self, index_name: str, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> int:
        """True cardinality of a rectangle predicate on an R-tree index."""
        return sum(
            1
            for _record in self.search_spatial(index_name, lo_x, hi_x, lo_y, hi_y)
        )

    def count_records(self) -> int:
        """Number of live records in the dataset."""
        return self.primary.count_range()

    def _all_trees(self) -> Iterator[LSMTree]:
        yield self.primary
        yield from self._secondary.values()

    def _pk_of(self, document: dict[str, Any]) -> Any:
        try:
            pk = document[self.primary_key]
        except KeyError:
            raise InvalidKeyError(
                f"document missing primary key field {self.primary_key!r}"
            ) from None
        _check_key(pk, "primary key")
        return pk

    def _index_keys(
        self, document: dict[str, Any]
    ) -> list[tuple[Any, tuple[Any, ...]]]:
        """Each index spec with its (checked) key part of ``document``."""
        keys = []
        for spec in self._all_specs():
            try:
                key = spec.key_of(document)
            except KeyError as exc:
                raise InvalidKeyError(
                    f"document missing indexed field {exc.args[0]!r}"
                ) from None
            for value in key:
                _check_key(value, f"index {spec.name!r} value")
            keys.append((spec, key))
        return keys
