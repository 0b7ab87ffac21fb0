"""Storage nodes of the simulated shared-nothing cluster.

Each node owns a set of data partitions; each partition holds an
independent :class:`~repro.lsm.dataset.Dataset` instance (its own
memtables, disk components and merge policy), exactly like AsterixDB's
node controllers with two data partitions per machine.  Statistics
built on a node are shipped to the cluster controller through the
network channel rather than written into a local catalog.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any, Callable, Iterable

from repro.core.collector import StatisticsCollector, StatisticsUpdate
from repro.core.config import StatisticsConfig
from repro.cluster import wire
from repro.cluster.network import Network
from repro.errors import ClusterError, NetworkUnavailableError
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.dataset import DEFAULT_MEMTABLE_CAPACITY, Dataset, IndexSpec
from repro.lsm.memory import MemoryArbiter
from repro.lsm.merge_policy import MergePolicy
from repro.lsm.pacing import MergePacer
from repro.lsm.scheduler import MaintenanceScheduler
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import get_registry
from repro.types import Domain
from repro.util.retry import RetryPolicy

__all__ = ["NetworkStatisticsSink", "StorageNode"]


DEFAULT_OUTBOX_LIMIT = 1024


class NetworkStatisticsSink:
    """Statistics sink that ships synopses to the master over the wire.

    Delivery is at-least-once: every message is stamped with a
    ``(node, partition, sequence)`` identity (the sequence is unique per
    node/partition pair, shared across the partition's datasets),
    encoded once into an immutable :mod:`~repro.cluster.wire` frame,
    sent through a bounded FIFO outbox of those frames, and retried --
    the same bytes every attempt -- with exponential backoff
    and jitter when the wire misbehaves.  Ingestion never blocks on the
    master: when delivery keeps failing the message stays parked in the
    outbox -- the collector keeps building synopses -- and the backlog
    is flushed by later traffic or an explicit :meth:`flush_outbox`
    once the master recovers.  When the outbox overflows, the *oldest*
    message is dropped (counted in ``sink.outbox.dropped``); the
    master-side idempotency layer tolerates the resulting gaps.
    """

    def __init__(
        self,
        network: Network,
        node_id: str,
        master_id: str,
        partition_id: int,
        retry_policy: RetryPolicy | None = None,
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
        sequence_source: Callable[[], int] | None = None,
        epoch: int = 0,
    ) -> None:
        if outbox_limit < 1:
            raise ClusterError(f"outbox_limit must be >= 1, got {outbox_limit}")
        self._network = network
        self._node_id = node_id
        self._master_id = master_id
        self._partition_id = partition_id
        self._epoch = epoch
        self._policy = retry_policy if retry_policy is not None else RetryPolicy()
        # Publishes arrive from background maintenance threads (flush
        # and merge notifications) while the application thread may be
        # flushing the backlog; enqueue+pump must be atomic or two
        # pumps could pop the same head / double-send it.
        self._mutex = threading.RLock()
        self._outbox: deque[bytes] = deque()
        self._outbox_limit = outbox_limit
        self._sequence = 0
        self._next_sequence = (
            sequence_source if sequence_source is not None else self._own_sequence
        )
        # Deterministic jitter: seeded from the sink's identity.
        self._rng = random.Random(f"{node_id}:{partition_id}")
        obs = get_registry()
        self._m_shipped = obs.counter("cluster.synopses.shipped")
        self._m_retractions = obs.counter("cluster.retractions.sent")
        self._m_retries = obs.counter("sink.retries")
        self._m_send_failures = obs.counter("sink.send.failures")
        self._m_outbox_dropped = obs.counter("sink.outbox.dropped")
        self._g_outbox_depth = obs.gauge("sink.outbox.depth")

    def _own_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    @property
    def outbox_depth(self) -> int:
        """Messages awaiting (re-)delivery."""
        return len(self._outbox)

    def publish(self, update: StatisticsUpdate) -> None:
        """Ship one lifecycle event's statistics as one ``stats.apply``
        frame: every entry as ``[key, uid, payload, anti payload or
        None]``, then every retraction as ``[key, uids]``."""
        with self._mutex:
            self._enqueue(
                {
                    "kind": "stats.apply",
                    "partition": self._partition_id,
                    "seq": self._next_sequence(),
                    "epoch": self._epoch,
                    "entries": [
                        [
                            key,
                            uid,
                            synopsis.to_payload(),
                            None if anti is None else anti.to_payload(),
                        ]
                        for key, uid, synopsis, anti in update.entries
                    ],
                    "retracts": [[key, list(uids)] for key, uids in update.retracts],
                }
            )
            # Regular + anti-matter twin per entry, shipped or implied.
            self._m_shipped.inc(2 * len(update.entries))
            self._m_retractions.inc(len(update.retracts))
            self._pump()

    def retract(self, index_name: str, component_uids: list[int]) -> None:
        # A retract-only update.  Kept as a method because the benchmark's
        # tracer (e2ebench/trace.py TABLE) names it.
        self.publish(StatisticsUpdate(retracts=((index_name, tuple(component_uids)),)))

    def reset(self, index_name: str) -> None:
        """Tell the master to drop this partition's statistics from
        epochs before this sink's.

        A recovered node enqueues one reset per registered index
        *before* its re-derived publishes; the FIFO outbox guarantees
        the master applies them in that order.
        """
        with self._mutex:
            self._enqueue(
                {
                    "kind": "stats.reset",
                    "index": index_name,
                    "partition": self._partition_id,
                    "seq": self._next_sequence(),
                    "epoch": self._epoch,
                }
            )
            self._pump()

    def flush_outbox(self) -> int:
        """Retry the parked backlog; returns the remaining depth."""
        with self._mutex:
            self._pump()
            return len(self._outbox)

    # -- internals -----------------------------------------------------------

    def _enqueue(self, message: dict[str, Any]) -> None:
        # The depth gauge is maintained additively so it aggregates the
        # total backlog across every sink sharing the registry.
        if len(self._outbox) >= self._outbox_limit:
            self._outbox.popleft()  # shed the oldest, keep ingesting
            self._m_outbox_dropped.inc()
            self._g_outbox_depth.inc(-1)
        self._outbox.append(wire.encode(message))
        self._g_outbox_depth.inc(1)

    def _pump(self) -> None:
        """Send from the head of the outbox until it empties or a
        message exhausts its retry budget (FIFO order is preserved --
        no message overtakes an undelivered predecessor)."""
        while self._outbox:
            if not self._try_send(self._outbox[0]):
                break
            self._outbox.popleft()
            self._g_outbox_depth.inc(-1)

    def _try_send(self, frame: bytes) -> bool:
        policy = self._policy
        pauses = policy.pauses(self._rng)
        while True:
            try:
                self._network.send(self._node_id, self._master_id, frame)
                return True
            except NetworkUnavailableError:
                pause = next(pauses, None)
                if pause is None:
                    break  # send budget exhausted; park the message
                self._m_retries.inc()
                policy.sleep(pause)
        self._m_send_failures.inc()
        return False


class StorageNode:
    """One slave node: local disks, datasets and statistics collectors."""

    def __init__(
        self,
        node_id: str,
        network: Network,
        master_id: str,
        partition_ids: Iterable[int],
        stats_config: StatisticsConfig,
        retry_policy: RetryPolicy | None = None,
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
        durable: bool = False,
        wal_enabled: bool = True,
        crash_injector: CrashInjector | None = None,
        scheduler_factory: Callable[[], MaintenanceScheduler] | None = None,
        merge_pacer: MergePacer | None = None,
        memory_arbiter: MemoryArbiter | None = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.master_id = master_id
        self.partition_ids = list(partition_ids)
        if not self.partition_ids:
            raise ClusterError(f"node {node_id!r} owns no partitions")
        self.stats_config = stats_config
        self.retry_policy = retry_policy
        self.outbox_limit = outbox_limit
        self.durable = durable
        self.wal_enabled = wal_enabled
        self.crash_injector = crash_injector
        # Per-node maintenance scheduler: every local dataset partition
        # submits into it on its own lane.  A factory (not an instance)
        # because restart() discards the pre-crash scheduler -- pending
        # background work is in-memory state and dies with the process
        # -- and builds a fresh one for the new incarnation.
        self._scheduler_factory = scheduler_factory
        self.scheduler: MaintenanceScheduler | None = (
            scheduler_factory() if scheduler_factory is not None else None
        )
        # One pacer per node, shared by every partition's merges: the
        # merge budget models a node-level resource.  It survives
        # restart() -- rate limits are configuration, not state.
        self.merge_pacer = merge_pacer
        # One memory arbiter per node, shared by every partition's
        # datasets: the byte budget models node RAM.  Like the pacer it
        # is configuration and survives restart(); per-incarnation
        # usage is replaced when the rebuilt datasets re-register under
        # their (stable) lane names.
        self.memory_arbiter = memory_arbiter
        self.disk = SimulatedDisk()
        # Restart epoch: bumped (and persisted in the superblock) by
        # every restart so the master can fence out the crashed
        # incarnation's straggler messages.
        self.epoch = int(self.disk.superblock.get("node.epoch", 0))
        # dataset name -> partition id -> Dataset
        self._datasets: dict[str, dict[int, Dataset]] = {}
        # dataset name -> creation arguments, kept so restart() can
        # rebuild every partition from its on-disk state.
        self._schemas: dict[str, dict[str, Any]] = {}
        # Message sequences are unique per (node, partition) -- shared
        # across that partition's datasets -- so the master can
        # deduplicate at-least-once deliveries by (node, partition, seq)
        # within one epoch.
        self._sequences: dict[int, int] = {p: 0 for p in self.partition_ids}
        # A partition's sequence is shared across its datasets, whose
        # maintenance lanes may run on different worker threads.
        self._seq_lock = threading.Lock()
        self._sinks: list[NetworkStatisticsSink] = []
        obs = get_registry()
        self._m_orphans = obs.counter("recovery.orphans.deleted")
        network.register(node_id, self._on_message)

    def _sequence_source(self, partition_id: int) -> Callable[[], int]:
        def next_sequence() -> int:
            with self._seq_lock:
                self._sequences[partition_id] += 1
                return self._sequences[partition_id]

        return next_sequence

    def create_dataset(
        self,
        name: str,
        primary_key: str,
        primary_domain: Domain,
        indexes: Iterable[IndexSpec] = (),
        memtable_capacity: int = DEFAULT_MEMTABLE_CAPACITY,
        merge_policy_factory: Callable[[], MergePolicy] | None = None,
    ) -> None:
        """Instantiate the dataset on every partition this node owns."""
        if name in self._datasets:
            raise ClusterError(f"dataset {name!r} already exists on {self.node_id}")
        schema = {
            "primary_key": primary_key,
            "primary_domain": primary_domain,
            "indexes": list(indexes),
            "memtable_capacity": memtable_capacity,
            "merge_policy_factory": merge_policy_factory,
        }
        self._schemas[name] = schema
        self._datasets[name] = {
            partition_id: self._build_partition(name, schema, partition_id)
            for partition_id in self.partition_ids
        }

    def _build_partition(
        self,
        name: str,
        schema: dict[str, Any],
        partition_id: int,
        recover: bool = False,
        reset_stats: bool = False,
    ) -> Dataset:
        """Instantiate one partition's dataset plus its statistics
        plumbing (sink, collector, event subscription).

        With ``recover`` the dataset rebuilds itself from the manifest
        and WAL; with ``reset_stats`` the sink first disowns the
        pre-restart catalog entries (enqueued before any re-derived
        publish, so FIFO ordering keeps the master coherent).

        Statistics are registered for the primary key and the
        single-field secondary indexes (what ``StatisticsManager.attach``
        does); composite-key and spatial indexes are maintained and
        queryable but ship no 2-D statistics -- the wire has no 2-D
        payload.
        """
        merge_policy_factory = schema["merge_policy_factory"]
        dataset = Dataset(
            name,
            self.disk,
            primary_key=schema["primary_key"],
            primary_domain=schema["primary_domain"],
            indexes=schema["indexes"],
            memtable_capacity=schema["memtable_capacity"],
            merge_policy=(
                merge_policy_factory() if merge_policy_factory else None
            ),
            durable=self.durable,
            wal_enabled=self.wal_enabled,
            durability_namespace=f"{name}.p{partition_id}",
            crash_injector=self.crash_injector,
            recover=recover,
            scheduler=self.scheduler,
            maintenance_lane=f"{self.node_id}:{name}.p{partition_id}",
            merge_pacer=self.merge_pacer,
            memory_arbiter=self.memory_arbiter,
        )
        if self.stats_config.enabled:
            sink = NetworkStatisticsSink(
                self.network,
                self.node_id,
                self.master_id,
                partition_id,
                retry_policy=self.retry_policy,
                outbox_limit=self.outbox_limit,
                sequence_source=self._sequence_source(partition_id),
                epoch=self.epoch,
            )
            self._sinks.append(sink)
            collector = StatisticsCollector(self.stats_config, sink)
            collector.register_index(
                dataset.primary.name, schema["primary_domain"]
            )
            for spec in dataset.indexes.values():
                collector.register_index(
                    dataset.secondary_tree(spec.name).name, spec.domain
                )
            if reset_stats:
                # One reset per registered statistics key -- including
                # the NDV sketch lane's ``#ndv`` twins -- enqueued
                # before recovery republishes anything (FIFO outbox).
                for key in collector.registered_keys():
                    sink.reset(key)
            dataset.event_bus.subscribe(collector)
        if recover:
            dataset.complete_recovery()
        return dataset

    def restart(self) -> list[int]:
        """Simulate a crash-restart: drop every in-memory structure and
        rebuild the node from its disk.

        Bumps (and persists) the restart epoch, rebuilds each
        partition's dataset -- from manifest and WAL when the node is
        durable, empty otherwise -- re-derives and republishes
        per-component statistics under the new epoch, and finally GCs
        the orphan files half-finished lifecycle operations left
        behind.  Returns the orphaned file ids that were deleted.
        """
        self.epoch += 1
        self.disk.superblock["node.epoch"] = self.epoch
        # The crashed incarnation's scheduler dies with it: pending
        # background flushes/merges were in-memory work and are
        # discarded, exactly like memtables.  The new incarnation gets a
        # fresh scheduler from the same factory.
        if self.scheduler is not None:
            self.scheduler.shutdown()
            assert self._scheduler_factory is not None
            self.scheduler = self._scheduler_factory()
        self._sequences = {p: 0 for p in self.partition_ids}
        self._sinks = []
        self._datasets = {}
        for name, schema in self._schemas.items():
            self._datasets[name] = {
                partition_id: self._build_partition(
                    name,
                    schema,
                    partition_id,
                    recover=self.durable,
                    reset_stats=self.stats_config.enabled,
                )
                for partition_id in self.partition_ids
            }
        live: set[int] = set()
        for per_partition in self._datasets.values():
            for dataset in per_partition.values():
                live.update(dataset.live_file_ids())
        orphans = self.disk.delete_files_except(live)
        if orphans:
            self._m_orphans.inc(len(orphans))
        return orphans

    def dataset(self, name: str, partition_id: int) -> Dataset:
        """The dataset instance of one local partition."""
        try:
            return self._datasets[name][partition_id]
        except KeyError:
            raise ClusterError(
                f"no dataset {name!r} partition {partition_id} on {self.node_id}"
            ) from None

    # -- operations routed from the cluster facade --------------------------

    def insert(self, name: str, partition_id: int, document: dict[str, Any]) -> None:
        self.dataset(name, partition_id).insert(document)

    def insert_many(
        self, name: str, partition_id: int, documents: Iterable[dict[str, Any]]
    ) -> int:
        """Batched ingest into one local partition (the hot path the
        feed adaptors use once the router has grouped documents by
        partition); returns the number of documents inserted."""
        return self.dataset(name, partition_id).insert_many(documents)

    def update(self, name: str, partition_id: int, document: dict[str, Any]) -> bool:
        return self.dataset(name, partition_id).update(document)

    def delete(self, name: str, partition_id: int, pk: Any) -> bool:
        return self.dataset(name, partition_id).delete(pk)

    def bulkload(
        self, name: str, partition_id: int, documents: list[dict[str, Any]]
    ) -> None:
        self.dataset(name, partition_id).bulkload(documents)

    def flush(self, name: str) -> None:
        """Force-flush the dataset on all local partitions."""
        for dataset in self._datasets.get(name, {}).values():
            dataset.flush()

    def count_secondary_range(
        self, name: str, index_name: str, lo: Any, hi: Any
    ) -> int:
        """Local ground-truth contribution to a cluster-wide count."""
        return sum(
            dataset.count_secondary_range(index_name, lo, hi)
            for dataset in self._datasets.get(name, {}).values()
        )

    def count_records(self, name: str) -> int:
        """Local live record count."""
        return sum(
            dataset.count_records()
            for dataset in self._datasets.get(name, {}).values()
        )

    def component_count(self, name: str, index_name: str) -> int:
        """Total live components across local partitions of one index."""
        return sum(
            len(dataset.secondary_tree(index_name).components)
            for dataset in self._datasets.get(name, {}).values()
        )

    def drain_maintenance(self) -> None:
        """Block until every scheduled background flush/merge on this
        node completed (failures captured off-thread re-raise here)."""
        if self.scheduler is not None:
            self.scheduler.drain()

    def shutdown(self) -> None:
        """Release the node's maintenance workers (drains first so no
        acknowledged maintenance is silently discarded)."""
        if self.scheduler is not None:
            self.scheduler.drain()
            self.scheduler.shutdown()

    def flush_statistics_outboxes(self) -> int:
        """Retry every sink's parked backlog; returns the remaining
        total depth (0 means the node has fully caught up)."""
        return sum(sink.flush_outbox() for sink in self._sinks)

    def statistics_backlog(self) -> int:
        """Messages currently parked across this node's sinks."""
        return sum(sink.outbox_depth for sink in self._sinks)

    def _on_message(self, source: str, frame: bytes) -> None:
        raise ClusterError(
            f"storage node {self.node_id} received an unexpected "
            f"{len(frame)}-byte message from {source}"
        )
