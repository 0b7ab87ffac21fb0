"""The LSM-tree: one LSM-ified index.

Ties together the mutable in-memory component, the immutable disk
components, the merge policy and the event bus.  All three component-
creating operations -- flush, merge and initial bulkload -- funnel
through one ``_write_component`` routine that consumes a key-sorted
stream of columnar chunks (docs/DATAPATH.md), which is exactly the
paper's unified ``bulkload()`` abstraction (Section 3.1) and the single
place where statistics observers tap the data flow.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator

from repro.errors import BulkloadError, RecoveryError, StorageError
from repro.lsm.bloom import BloomFilter
from repro.lsm.btree import (
    DEFAULT_FANOUT,
    DEFAULT_LEAF_CAPACITY,
    btree_from_descriptor,
    build_btree,
    build_btree_chunks,
)
from repro.lsm.columnar import (
    ColumnarChunk,
    columnar_chunk_stream,
    register_summary_extractor,
)
from repro.lsm.component import ComponentId, DiskComponent
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.cursor import merge_streams, reconcile
from repro.lsm.events import (
    ComponentWriteContext,
    EventBus,
    LSMEventType,
    RecordSink,
)
from repro.lsm.manifest import ComponentDescriptor, Manifest
from repro.lsm.memtable import MemTable
from repro.lsm.merge_policy import MergePolicy, NoMergePolicy
from repro.lsm.pacing import MergePacer
from repro.lsm.record import Record
from repro.lsm.rtree import build_rtree, build_rtree_chunks
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, get_registry, sanitize_segment
from repro.obs.tracing import span

__all__ = [
    "LSMTree",
    "SequenceGenerator",
    "DEFAULT_MEMTABLE_CAPACITY",
    "DEFAULT_WRITE_BATCH_SIZE",
]

DEFAULT_MEMTABLE_CAPACITY = 4096
"""Records buffered in memory before an automatic flush."""

DEFAULT_WRITE_BATCH_SIZE = 512
"""Records per columnar chunk on the component-write path."""

_CHUNK_INDEX_BUILDERS: dict[Any, Callable[..., Any]] = {
    build_btree: build_btree_chunks,
    build_rtree: build_rtree_chunks,
}
"""The chunk-consuming builder behind each ``index_builder`` a tree may
name.  The component-write path only ever builds from columnar chunks,
so a structure joins the LSM lifecycle by registering its chunk builder
here; an unregistered ``index_builder`` is rejected at construction."""


class SequenceGenerator:
    """Monotonic sequence numbers, shareable across a dataset's indexes.

    Thread-safe: the DML path and background maintenance may both need
    numbers (e.g. concurrent writers behind the dataset's DML lock on
    different datasets sharing a partition sequence)."""

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._last = start - 1
        self._lock = threading.Lock()

    def next(self) -> int:
        """The next sequence number."""
        with self._lock:
            value = self._next
            self._next = value + 1
            self._last = value
            return value

    def reserve(self, count: int) -> range:
        """Atomically claim ``count`` consecutive sequence numbers.

        Bulkload stamps a whole chunk with one reservation instead of
        ``count`` lock round-trips; the numbers issued are exactly
        those ``count`` successive :meth:`next` calls would produce.
        """
        if count < 0:
            raise ValueError(f"reserve of negative count {count}")
        with self._lock:
            first = self._next
            self._next = first + count
            if count:
                self._last = self._next - 1
            return range(first, first + count)

    @property
    def last(self) -> int:
        """The most recently issued sequence number."""
        return self._last


def _default_key_extractor(record: Record) -> Any:
    """Primary indexes summarise the key itself."""
    return record.key


# The raw-key registration unlocks the collector's zero-copy typed-key
# fast path for every primary index (docs/DATAPATH.md).
register_summary_extractor(_default_key_extractor, raw_key=True)


class LSMTree:
    """A single LSM index (primary or secondary)."""

    def __init__(
        self,
        name: str,
        disk: SimulatedDisk,
        memtable_capacity: int = DEFAULT_MEMTABLE_CAPACITY,
        merge_policy: MergePolicy | None = None,
        event_bus: EventBus | None = None,
        sequence: SequenceGenerator | None = None,
        key_extractor: Callable[[Record], Any] | None = None,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        fanout: int = DEFAULT_FANOUT,
        auto_flush: bool = True,
        bloom_fpp: float | None = 0.01,
        index_builder: Callable[..., Any] | None = None,
        registry: MetricsRegistry | None = None,
        write_batch_size: int = DEFAULT_WRITE_BATCH_SIZE,
        manifest: Manifest | None = None,
        crash_injector: CrashInjector | None = None,
        merge_pacer: "MergePacer | None" = None,
    ) -> None:
        if memtable_capacity < 1:
            raise StorageError(
                f"memtable_capacity must be >= 1, got {memtable_capacity}"
            )
        if not isinstance(write_batch_size, int) or write_batch_size < 1:
            raise StorageError(
                f"write_batch_size must be an int >= 1, got {write_batch_size!r}"
            )
        self.name = name
        self.disk = disk
        self.memtable = MemTable()
        self.memtable_capacity = memtable_capacity
        self.merge_policy = (
            merge_policy if merge_policy is not None else NoMergePolicy()
        )
        self.event_bus = event_bus if event_bus is not None else EventBus()
        self.sequence = sequence if sequence is not None else SequenceGenerator()
        self.key_extractor = (
            key_extractor
            if key_extractor is not None
            else _default_key_extractor
        )
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.auto_flush = auto_flush
        self.bloom_fpp = bloom_fpp
        # The physical structure of disk components: defaults to the
        # B-tree; LSM-ified R-trees name build_rtree here.  The name
        # selects a registered chunk builder, called as (disk, chunks,
        # leaf_capacity, fanout) and returning the DiskBTree
        # scan/lookup interface.
        self.index_builder = index_builder if index_builder is not None else build_btree
        try:
            self._index_chunk_builder = _CHUNK_INDEX_BUILDERS[self.index_builder]
        except KeyError:
            raise StorageError(
                f"LSM tree {name!r}: index_builder {self.index_builder!r} has "
                "no chunk builder registered in _CHUNK_INDEX_BUILDERS"
            ) from None
        # Durability hooks.  With a manifest, every component-creating
        # operation becomes two-phase (begin/commit entries) so recovery
        # can tell installed components from half-built orphans.  The
        # WAL is the dataset's: it logs each op atomically across its
        # indexes before any tree's memtable accepts it.
        if manifest is not None and self.index_builder is not build_btree:
            raise StorageError(
                f"durable LSM tree {name!r} requires the B-tree index "
                "builder (custom structures have no manifest descriptor)"
            )
        self._manifest = manifest
        self._injector = crash_injector
        # Optional merge rate limit (repro.lsm.pacing).  Only the merge
        # build path consults it -- flushes and bulkloads are what the
        # pacer protects, so they always run unthrottled.
        self.merge_pacer = merge_pacer
        self.write_batch_size = write_batch_size
        # Newest first, matching lookup order.
        self._components: list[DiskComponent] = []
        # Rotated memtables awaiting a background flush, oldest first.
        # The tree lock covers every mutation of the in-memory state a
        # reader snapshots: active-memtable writes, rotation, and the
        # component-list install/splice.  Maintenance runs its builds
        # outside the lock, so writers never wait out a flush or merge.
        self._immutables: list[MemTable] = []
        self._lock = threading.RLock()
        self.flush_count = 0
        self.merge_count = 0
        # Observer taps are fault-isolated: a crashing statistics sink
        # must never fail ingestion (the framework is a passenger, not
        # a driver).  Failures are counted here and the sink is dropped
        # for the remainder of that component write.
        self.observer_failures = 0
        # Instruments bind once at construction (docs/OBSERVABILITY.md);
        # record counts are added in bulk when a component seals.
        self._obs = registry if registry is not None else get_registry()
        self._m_flush = self._obs.counter("lsm.flush.count")
        self._m_merge = self._obs.counter("lsm.merge.count")
        self._m_bulkload = self._obs.counter("lsm.bulkload.count")
        self._m_matter = self._obs.counter("lsm.records.matter")
        self._m_anti = self._obs.counter("lsm.records.antimatter")
        self._m_observer_failures = self._obs.counter("lsm.observer.failures")
        self._m_recovered = self._obs.counter("recovery.components")
        self._g_components = self._obs.gauge(
            f"lsm.components.{sanitize_segment(name)}"
        )
        # Columnar data-path instruments (docs/DATAPATH.md): chunk
        # traffic and the chunk-size distribution.
        self._m_col_chunks = self._obs.counter("ingest.columnar.chunks")
        self._h_col_chunk_records = self._obs.histogram(
            "ingest.columnar.chunk_records",
            buckets=(1.0, 8.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0),
        )

    def _fire(self, point: str) -> None:
        if self._injector is not None:
            self._injector.reached(point)

    # -- write path ------------------------------------------------------

    def upsert(self, key: Any, value: Any = None) -> None:
        """Insert ``key`` or replace its current version."""
        self._write(Record.matter(key, value, seqnum=self.sequence.next()))

    insert = upsert

    def delete(self, key: Any) -> None:
        """Delete ``key`` by writing an anti-matter record."""
        self._write(Record.anti(key, seqnum=self.sequence.next()))

    def write_record(self, record: Record) -> None:
        """Apply a pre-built record (used by the dataset layer, which
        assigns one sequence number to all index entries of an op)."""
        self._write(record)

    def _write(self, record: Record) -> None:
        with self._lock:
            self.memtable.write(record)
            full = len(self.memtable) >= self.memtable_capacity
        if self.auto_flush and full:
            self.flush()

    # -- lifecycle events --------------------------------------------------

    def rotate(self) -> bool:
        """Seal the active memtable into the immutable queue and start a
        fresh one, so subsequent writes never wait on the flush that will
        persist the sealed records.  Returns False when the memtable was
        empty (nothing to rotate).

        Rotation is pure in-memory state: a crash here loses exactly the
        same acknowledged-but-unflushed records as a crash before the
        flush, and WAL replay restores them either way.
        """
        with self._lock:
            if not self.memtable:
                return False
            self._immutables.append(self.memtable)
            self.memtable = MemTable()
        self._fire("flush.rotate")
        return True

    @property
    def immutable_count(self) -> int:
        """Rotated memtables not yet flushed to disk."""
        with self._lock:
            return len(self._immutables)

    def memory_breakdown(self) -> tuple[int, int, int, int]:
        """Accounted bytes as ``(active, immutable, bloom, resident)``
        (docs/MEMORY.md pools).  Memtable bytes are incremental counters
        and the component list is policy-bounded, so this is a handful
        of int reads under the tree lock -- cheap enough for the write
        path to publish after every operation."""
        with self._lock:
            active = self.memtable.memory_bytes()
            immutable = sum(m.memory_bytes() for m in self._immutables)
            bloom = 0
            resident = 0
            for component in self._components:
                component_bloom = component.bloom_bytes()
                bloom += component_bloom
                resident += component.memory_bytes() - component_bloom
        return active, immutable, bloom, resident

    def memory_bytes(self) -> int:
        """Total accounted footprint across every pool."""
        return sum(self.memory_breakdown())

    @property
    def fully_flushed(self) -> bool:
        """True when every acknowledged write is in a disk component
        (no active-memtable records, no rotated memtables pending) --
        the condition under which a shared WAL may truncate."""
        with self._lock:
            return not self.memtable and not self._immutables

    def flush(
        self, txn: int | None = None, run_merge: bool = True
    ) -> DiskComponent | None:
        """Persist the in-memory component(s); returns the newest disk
        component built, or ``None`` when there was nothing to flush.

        Rotates the active memtable, then drains the immutable queue
        inline -- so on the default synchronous scheduler this is the
        same one-memtable-one-component operation it always was, while
        under a background scheduler it doubles as the drain-everything
        barrier.  With a manifest attached each flush is two-phase: a
        begin entry precedes the build (so a half-built file is
        recognisably an orphan) and the commit entry installs the sealed
        component.  ``txn`` stamps the commit with a dataset flush
        transaction; ``run_merge=False`` defers merge-policy evaluation
        so the dataset can commit the transaction across all its trees
        first.
        """
        self.rotate()
        component: DiskComponent | None = None
        while self.immutable_count:
            component = self.flush_one_immutable(txn)
        if run_merge:
            self._maybe_merge()
        return component

    def flush_one_immutable(self, txn: int | None = None) -> DiskComponent:
        """Build and install a disk component from the oldest rotated
        memtable (the background flush task body; also the inline drain
        step of :meth:`flush`)."""
        with self._lock:
            if not self._immutables:
                raise StorageError(
                    f"no immutable memtable to flush in LSM tree {self.name!r}"
                )
            memtable = self._immutables[0]
        seq_range = memtable.seqnum_range
        assert seq_range is not None
        if self._manifest is not None:
            self._manifest.begin("flush", self.name, txn=txn)
        with span("lsm.flush", self._obs):
            component = self._write_component(
                LSMEventType.FLUSH,
                ComponentId(*seq_range),
                memtable.sorted_columnar_chunks(self.write_batch_size),
                expected_records=len(memtable),
            )
            self._fire("flush.build")
            if self._manifest is not None:
                self._manifest.commit(
                    "flush", self.name, self._descriptor(component), txn=txn
                )
            with self._lock:
                self._immutables.pop(0)
                self._components.insert(0, component)
            self.flush_count += 1
            self._m_flush.inc()
            self._g_components.set(len(self._components))
        return component

    def bulkload(
        self,
        records: Iterable[Record],
        expected_records: int,
        txn: int | None = None,
    ) -> DiskComponent:
        """Initial load of a sorted matter-record stream into an empty tree.

        The stream must be strictly sorted by key and free of
        anti-matter (there is nothing on disk to cancel yet).
        """
        if self._components or self.memtable or self._immutables:
            raise BulkloadError(
                f"bulkload into non-empty LSM tree {self.name!r}"
            )
        batch = self.write_batch_size

        def stamped_chunks() -> Iterator[ColumnarChunk]:
            # The input records are read once into key/value columns
            # and the whole chunk is stamped with one seqnum
            # reservation -- no per-row Record is ever allocated.
            iterator = iter(records)
            while True:
                keys: list[Any] = []
                values: list[Any] = []
                for record in itertools.islice(iterator, batch):
                    if record.antimatter:
                        raise BulkloadError(
                            "bulkload stream contains anti-matter"
                        )
                    keys.append(record.key)
                    values.append(record.value)
                if not keys:
                    return
                yield ColumnarChunk.from_columns(
                    keys, values, seqnums=self.sequence.reserve(len(keys))
                )

        start_seq = self.sequence.last + 1
        if self._manifest is not None:
            self._manifest.begin("bulkload", self.name, txn=txn)
        with span("lsm.bulkload", self._obs):
            component = self._write_component(
                LSMEventType.BULKLOAD,
                # Placeholder id; fixed below once seqnums are known.
                None,
                stamped_chunks(),
                expected_records=expected_records,
            )
            end_seq = self.sequence.last
            if end_seq < start_seq:  # empty load
                end_seq = start_seq
            component.component_id = ComponentId(start_seq, end_seq)
            self._fire("bulkload.build")
            if self._manifest is not None:
                self._manifest.commit(
                    "bulkload", self.name, self._descriptor(component), txn=txn
                )
            with self._lock:
                self._components.insert(0, component)
            self._m_bulkload.inc()
            self._g_components.set(len(self._components))
        return component

    def merge(self, components: list[DiskComponent]) -> DiskComponent:
        """Merge a contiguous (in recency) run of disk components.

        Anti-matter reconciles away only when the run includes the
        oldest component; otherwise tombstones are carried into the
        merged component because still-older components may contain the
        records they cancel.
        """
        if not components:
            raise StorageError("merge of zero components")
        with self._lock:
            indices = sorted(self._components.index(c) for c in components)
            if indices != list(range(indices[0], indices[-1] + 1)):
                raise StorageError(
                    "merged components must be contiguous in recency"
                )
            includes_oldest = indices[-1] == len(self._components) - 1
            ordered = [self._components[i] for i in indices]  # newest first

        # The merge cursor is inherently per-record; it is re-chunked
        # here, at the edge, so the writer below sees only chunks.
        merged_chunks = columnar_chunk_stream(
            reconcile(
                merge_streams([c.scan() for c in ordered]),
                keep_antimatter=not includes_oldest,
            ),
            self.write_batch_size,
        )
        replaced_files: tuple[int, ...] = ()
        if self._manifest is not None:
            replaced_files = tuple(c.btree.file_id for c in ordered)
            self._manifest.begin(
                "merge", self.name, payload={"inputs": list(replaced_files)}
            )
        with span("lsm.merge", self._obs):
            component = self._write_component(
                LSMEventType.MERGE,
                ComponentId.merged([c.component_id for c in ordered]),
                merged_chunks,
                expected_records=sum(c.record_count for c in ordered),
                merged_components=tuple(ordered),
                pacer=self.merge_pacer,
            )
            self._fire("merge.build")
            if self._manifest is not None:
                self._manifest.commit(
                    "merge",
                    self.name,
                    self._descriptor(component),
                    replaces=replaced_files,
                )
            # The replacement is durable; a crash before the in-memory
            # splice must recover the merged component from the manifest.
            self._fire("merge.splice")
            # Splice the new component in place of the merged run --
            # atomically under the tree lock, so a concurrent reader
            # pinning a snapshot sees either the full run or its
            # replacement, never a half-spliced list.  Indices are
            # recomputed: a background flush may have installed newer
            # components at the head since selection.
            with self._lock:
                start = self._components.index(ordered[0])
                self._components[start : start + len(ordered)] = [component]
            for old in ordered:
                old.mark_merged()
            self.event_bus.notify_replaced(self.name, tuple(ordered), component)
            # The commit made the replacement durable; the old files are
            # garbage either way, so a crash here leaves orphans for
            # recovery to GC rather than dangling live components.
            self._fire("merge.cleanup")
            for old in ordered:
                old.destroy()
            self.merge_count += 1
            self._m_merge.inc()
            self._g_components.set(len(self._components))
        return component

    def _maybe_merge(self) -> None:
        while self.merge_once():
            pass

    def merge_once(self) -> DiskComponent | None:
        """Ask the policy for one merge (through its in-flight slot
        accounting) and run it; returns the merged component or ``None``
        when no merge is warranted.  The background merge continuation
        calls this once per task so other lanes interleave between
        merges."""
        selected = self.merge_policy.acquire_merge(self.components)
        if not selected:
            return None
        try:
            return self.merge(selected)
        finally:
            self.merge_policy.release_merge(selected)

    def run_pending_merges(self) -> None:
        """Evaluate the merge policy now (used after a dataset flush
        transaction commits, where per-tree flushes deferred merging)."""
        self._maybe_merge()

    def _descriptor(self, component: DiskComponent) -> ComponentDescriptor:
        return ComponentDescriptor(
            tree=self.name,
            min_seq=component.component_id.min_seq,
            max_seq=component.component_id.max_seq,
            matter_count=component.matter_count,
            antimatter_count=component.antimatter_count,
            expected_records=component.expected_records,
            btree=component.btree.describe(),
            ordinal=-1,  # assigned by manifest replay, unused on write
        )

    # -- recovery ----------------------------------------------------------

    @property
    def max_flushed_seqnum(self) -> int:
        """Largest sequence number durable in a disk component (``-1``
        when the tree has none); WAL replay skips older entries."""
        if not self._components:
            return -1
        return max(c.component_id.max_seq for c in self._components)

    def install_recovered(
        self, descriptors: "list[ComponentDescriptor]"
    ) -> None:
        """Reinstate disk components from manifest descriptors
        (given newest first, as :class:`~repro.lsm.manifest.ManifestState`
        keeps them) after a crash.

        Components are *constructed* in manifest-ordinal order so the
        fresh uids they draw preserve the creation-order ranking the
        crashed process had -- the statistics catalog is compared by uid
        rank within an index/partition, never by raw uid.  Bloom filters
        are rebuilt by scanning, sized with the same ``expected_records``
        the original build used.
        """
        if self._components or self.memtable or self._immutables:
            raise RecoveryError(
                f"install_recovered on non-empty LSM tree {self.name!r}"
            )
        built: dict[int, DiskComponent] = {}
        for descriptor in sorted(descriptors, key=lambda d: d.ordinal):
            if descriptor.tree != self.name:
                raise RecoveryError(
                    f"descriptor for tree {descriptor.tree!r} handed to "
                    f"LSM tree {self.name!r}"
                )
            btree = btree_from_descriptor(self.disk, descriptor.btree)
            bloom = None
            if self.bloom_fpp is not None:
                bloom = BloomFilter.for_capacity(
                    max(1, descriptor.expected_records), self.bloom_fpp
                )
                bloom.add_all(record.key for record in btree.iter_all())
            built[descriptor.ordinal] = DiskComponent(
                ComponentId(descriptor.min_seq, descriptor.max_seq),
                btree,
                matter_count=descriptor.matter_count,
                antimatter_count=descriptor.antimatter_count,
                bloom=bloom,
                expected_records=descriptor.expected_records,
            )
            self._m_recovered.inc()
        self._components = [built[d.ordinal] for d in descriptors]
        self._g_components.set(len(self._components))

    def _write_component(
        self,
        event_type: LSMEventType,
        component_id: ComponentId | None,
        chunks: Iterable[ColumnarChunk],
        expected_records: int,
        merged_components: tuple[DiskComponent, ...] = (),
        pacer: MergePacer | None = None,
    ) -> DiskComponent:
        """The paper's unified ``bulkload()``: build one disk component
        from a key-sorted stream of columnar chunks.  The Bloom filter
        and every observer sink see each chunk on its way into the
        index builder, which packs leaves by slicing columns.  Observer
        fault isolation is at chunk granularity: a sink that raises is
        dropped for the rest of the write and never finished."""
        context = ComponentWriteContext(
            event_type=event_type,
            index_name=self.name,
            expected_records=expected_records,
            key_extractor=self.key_extractor,
            merged_components=merged_components,
        )
        live_sinks = self.event_bus.open_sinks(context)
        bloom = (
            BloomFilter.for_capacity(max(1, expected_records), self.bloom_fpp)
            if self.bloom_fpp is not None
            else None
        )
        total = 0
        anti = 0

        def tapped() -> Iterator[ColumnarChunk]:
            nonlocal total, anti
            for chunk in chunks:
                # Pacing happens at chunk boundaries: the merge yields
                # the worker (and the GIL) here while it sleeps off its
                # token deficit, never mid-chunk.  Bytes are unaffected.
                if pacer is not None:
                    pacer.pace(len(chunk))
                self._m_col_chunks.inc()
                self._h_col_chunk_records.observe(len(chunk))
                total += len(chunk)
                anti += chunk.antimatter_count
                if bloom is not None:
                    bloom.add_all(chunk.keys_list())
                for sink in list(live_sinks):
                    try:
                        sink.accept_many(chunk)
                    except Exception:
                        live_sinks.remove(sink)
                        self.observer_failures += 1
                        self._m_observer_failures.inc()
                yield chunk

        btree = self._index_chunk_builder(
            self.disk,
            tapped(),
            leaf_capacity=self.leaf_capacity,
            fanout=self.fanout,
        )
        component = DiskComponent(
            component_id if component_id is not None else ComponentId(0, 0),
            btree,
            matter_count=total - anti,
            antimatter_count=anti,
            bloom=bloom,
            expected_records=expected_records,
        )
        self._m_matter.inc(total - anti)
        self._m_anti.inc(anti)
        self._finish_sinks(live_sinks, component)
        return component

    def _finish_sinks(
        self, sinks: list[RecordSink], component: DiskComponent
    ) -> None:
        for sink in sinks:
            try:
                sink.finish(component)
            except Exception:
                self.observer_failures += 1
                self._m_observer_failures.inc()

    # -- read path ---------------------------------------------------------

    @property
    def components(self) -> list[DiskComponent]:
        """Live disk components, newest first (copy; do not mutate)."""
        with self._lock:
            return list(self._components)

    def get(self, key: Any) -> Any | None:
        """Point lookup of the live value under ``key`` (None if absent
        or deleted).

        Memory components are probed under the tree lock; the disk
        components of the snapshot are pinned so a concurrent merge can
        mark them superseded but never delete their pages mid-lookup.
        """
        with self._lock:
            record = self.memtable.get(key)
            if record is None:
                for immutable in reversed(self._immutables):  # newest first
                    record = immutable.get(key)
                    if record is not None:
                        break
            snapshot: list[DiskComponent] = []
            if record is None:
                snapshot = list(self._components)
                for component in snapshot:
                    component.pin()
        if record is None:
            try:
                for component in snapshot:
                    record = component.lookup(key)
                    if record is not None:
                        break
            finally:
                for component in snapshot:
                    component.unpin()
        if record is None or record.antimatter:
            return None
        return record.value

    def scan(self, lo: Any = None, hi: Any = None) -> Iterator[Record]:
        """Live records with keys in ``[lo, hi]``, reconciled across all
        components (anti-matter cancels).

        The snapshot is consistent: memory-component ranges materialise
        under the tree lock (the AVL map is not safe under a concurrent
        writer) and disk components stay pinned until the scan finishes.
        """
        with self._lock:
            memory_runs: list[list[Record]] = [list(self.memtable.scan(lo, hi))]
            for immutable in reversed(self._immutables):  # newest first
                memory_runs.append(list(immutable.scan(lo, hi)))
            snapshot = list(self._components)
            for component in snapshot:
                component.pin()

        def iterate() -> Iterator[Record]:
            try:
                streams: list[Iterator[Record]] = [
                    iter(run) for run in memory_runs
                ]
                streams.extend(c.scan(lo, hi) for c in snapshot)
                yield from reconcile(
                    merge_streams(streams), keep_antimatter=False
                )
            finally:
                for component in snapshot:
                    component.unpin()

        return iterate()

    def count_range(self, lo: Any = None, hi: Any = None) -> int:
        """True cardinality of a range (the evaluation ground truth)."""
        return sum(1 for _record in self.scan(lo, hi))

    def __len__(self) -> int:
        return self.count_range()
