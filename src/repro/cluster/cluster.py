"""The cluster facade: the paper's 4+1-node testbed in miniature.

``LSMCluster`` wires a master (:class:`ClusterController`) to a set of
storage nodes over the simulated network, hash-partitions records by
primary key, and exposes dataset DDL/DML plus both ground-truth counts
(fanned out to every partition) and statistics-based estimates
(answered from the master's catalog alone -- the whole point of the
framework is that estimation touches no data nodes).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.config import StatisticsConfig
from repro.cluster.faults import FaultPlan
from repro.cluster.master import ClusterController
from repro.cluster.network import Network
from repro.cluster.node import DEFAULT_OUTBOX_LIMIT, StorageNode
from repro.cluster.partitioner import HashPartitioner
from repro.core.estimator import EstimateResult, NDVEstimate
from repro.errors import ClusterError
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.dataset import (
    DEFAULT_MEMTABLE_CAPACITY,
    IndexSpec,
    secondary_index_name,
)
from repro.lsm.memory import MemoryArbiter
from repro.lsm.merge_policy import MergePolicy
from repro.lsm.pacing import MergePacer
from repro.lsm.scheduler import make_scheduler
from repro.types import Domain
from repro.util.retry import RetryPolicy

__all__ = ["LSMCluster"]


class LSMCluster:
    """A shared-nothing cluster of storage nodes plus one master.

    Defaults mirror the paper's setup: 4 slave nodes with 2 data
    partitions each (8 partitions total) and one master.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        partitions_per_node: int = 2,
        stats_config: StatisticsConfig | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
        durable: bool = False,
        wal_enabled: bool = True,
        crash_injector: CrashInjector | None = None,
        scheduler: str = "sync",
        scheduler_seed: int = 0,
        merge_pacing_rate: float | None = None,
        memory_budget: int | None = None,
    ) -> None:
        if num_nodes < 1 or partitions_per_node < 1:
            raise ClusterError("cluster needs at least one node and partition")
        if memory_budget is not None and memory_budget < num_nodes:
            raise ClusterError(
                f"memory budget of {memory_budget} bytes cannot be split "
                f"across {num_nodes} nodes"
            )
        self.scheduler_mode = scheduler
        self.stats_config = (
            stats_config if stats_config is not None else StatisticsConfig()
        )
        self.network = Network(fault_plan=fault_plan)
        self.master = ClusterController(
            self.network, cache_merged=self.stats_config.cache_merged
        )
        self.nodes: list[StorageNode] = []
        self.memory_arbiters: list[MemoryArbiter] = []
        self._partition_owner: dict[int, StorageNode] = {}
        partition_id = 0
        for node_index in range(num_nodes):
            partition_ids = list(
                range(partition_id, partition_id + partitions_per_node)
            )
            partition_id += partitions_per_node
            node_id = f"nc{node_index + 1}"
            # One scheduler per node, rebuilt by the factory on restart.
            # Virtual mode derives a per-node seed so each node draws an
            # independent -- but replayable -- interleaving.
            scheduler_factory = (
                None
                if scheduler == "sync"
                else (
                    lambda node_id=node_id: make_scheduler(
                        scheduler,
                        seed=f"{scheduler_seed}:{node_id}",
                    )
                )
            )
            # Merge pacing is per node (the budget models a node-level
            # resource); each dataset arms the pause for its scheduler.
            merge_pacer = (
                MergePacer(merge_pacing_rate)
                if merge_pacing_rate is not None
                else None
            )
            # The node-level budget slice (a per-node resource, like
            # pacing): each node arbitrates its own write arena and
            # immutable pool, while the master cache's capacity is the
            # sum of every node's cache share (refreshed below and on
            # the estimate path).
            memory_arbiter = (
                MemoryArbiter(memory_budget // num_nodes)
                if memory_budget is not None
                else None
            )
            if memory_arbiter is not None:
                self.memory_arbiters.append(memory_arbiter)
            node = StorageNode(
                node_id,
                self.network,
                self.master.node_id,
                partition_ids,
                self.stats_config,
                retry_policy=retry_policy,
                outbox_limit=outbox_limit,
                durable=durable,
                wal_enabled=wal_enabled,
                crash_injector=crash_injector,
                scheduler_factory=scheduler_factory,
                merge_pacer=merge_pacer,
                memory_arbiter=memory_arbiter,
            )
            self.nodes.append(node)
            for owned in partition_ids:
                self._partition_owner[owned] = node
        self.partitioner = HashPartitioner(len(self._partition_owner))
        self._dataset_names: set[str] = set()
        self._primary_keys: dict[str, str] = {}
        self._refresh_cache_capacity()

    @property
    def num_partitions(self) -> int:
        """Total data partitions across all nodes."""
        return len(self._partition_owner)

    # -- DDL -----------------------------------------------------------------

    def create_dataset(
        self,
        name: str,
        primary_key: str,
        primary_domain: Domain,
        indexes: Iterable[IndexSpec] = (),
        memtable_capacity: int = DEFAULT_MEMTABLE_CAPACITY,
        merge_policy_factory: Callable[[], MergePolicy] | None = None,
    ) -> None:
        """Create the dataset on every partition of every node."""
        if name in self._dataset_names:
            raise ClusterError(f"dataset {name!r} already exists")
        index_specs = list(indexes)
        for node in self.nodes:
            node.create_dataset(
                name,
                primary_key,
                primary_domain,
                index_specs,
                memtable_capacity=memtable_capacity,
                merge_policy_factory=merge_policy_factory,
            )
        self._dataset_names.add(name)
        self._primary_keys[name] = primary_key

    # -- DML (routed by primary key hash) ------------------------------------

    def insert(self, name: str, document: dict[str, Any]) -> None:
        node, partition_id = self._route(name, document)
        node.insert(name, partition_id, document)

    def insert_many(self, name: str, documents: Iterable[dict[str, Any]]) -> int:
        """Batched routed ingest: documents are grouped by owning
        partition first, then each group takes one batched hop into the
        node (preserving per-partition arrival order), so routing and
        dispatch costs are paid per group instead of per document."""
        self._check_dataset(name)
        pk_field = self._primary_keys[name]
        partition_of = self.partitioner.partition_of
        groups: dict[int, list[dict[str, Any]]] = {}
        for document in documents:
            groups.setdefault(partition_of(document[pk_field]), []).append(
                document
            )
        inserted = 0
        for partition_id, group in groups.items():
            inserted += self._partition_owner[partition_id].insert_many(
                name, partition_id, group
            )
        return inserted

    def update(self, name: str, document: dict[str, Any]) -> bool:
        node, partition_id = self._route(name, document)
        return node.update(name, partition_id, document)

    def delete(self, name: str, pk: Any) -> bool:
        partition_id = self.partitioner.partition_of(pk)
        return self._partition_owner[partition_id].delete(name, partition_id, pk)

    def get(self, name: str, pk: Any) -> dict[str, Any] | None:
        """Point lookup routed to the owning partition."""
        self._check_dataset(name)
        partition_id = self.partitioner.partition_of(pk)
        node = self._partition_owner[partition_id]
        return node.dataset(name, partition_id).get(pk)

    def bulkload(self, name: str, documents: Iterable[dict[str, Any]]) -> None:
        """Partitioned parallel load: split by PK hash, one bulkload per
        partition, each producing a single disk component."""
        self._check_dataset(name)
        pk_field = self._primary_keys[name]
        batches: dict[int, list[dict[str, Any]]] = {
            p: [] for p in self._partition_owner
        }
        for document in documents:
            batches[self.partitioner.partition_of(document[pk_field])].append(
                document
            )
        for partition_id, batch in batches.items():
            batch.sort(key=lambda doc: doc[pk_field])
            self._partition_owner[partition_id].bulkload(name, partition_id, batch)

    def flush_all(self, name: str) -> None:
        """Force a coordinated flush of the dataset on every partition."""
        self._check_dataset(name)
        for node in self.nodes:
            node.flush(name)

    def drain_maintenance(self) -> None:
        """Barrier: wait for all scheduled background flushes/merges.

        Re-raises the first background task failure on this thread, so
        callers see maintenance errors they would otherwise miss."""
        for node in self.nodes:
            node.drain_maintenance()
        # A write-heavy phase may have shrunk the cache share; apply the
        # new split at the quiescent point.
        self._refresh_cache_capacity()

    def shutdown(self) -> None:
        """Drain outstanding maintenance and stop the worker pools."""
        for node in self.nodes:
            node.shutdown()

    # -- queries --------------------------------------------------------------

    def count_secondary_range(
        self, name: str, index_name: str, lo: Any, hi: Any
    ) -> int:
        """Ground truth: fan the count out to every node and sum."""
        self._check_dataset(name)
        return sum(
            node.count_secondary_range(name, index_name, lo, hi)
            for node in self.nodes
        )

    def count_records(self, name: str) -> int:
        """Cluster-wide live record count."""
        self._check_dataset(name)
        return sum(node.count_records(name) for node in self.nodes)

    def estimate(self, name: str, index_name: str, lo: int, hi: int) -> float:
        """Statistics-based estimate, answered by the master alone."""
        return self.estimate_detailed(name, index_name, lo, hi).estimate

    def estimate_detailed(
        self, name: str, index_name: str, lo: int, hi: int
    ) -> EstimateResult:
        """Estimate with overhead/caching diagnostics."""
        self._check_dataset(name)
        full_name = (
            secondary_index_name(name, "primary")
            if index_name == "primary"
            else secondary_index_name(name, index_name)
        )
        # Bloom overflow squeezes the cache pool: re-read it here.
        self._refresh_cache_capacity()
        return self.master.estimate_detailed(full_name, lo, hi)

    def estimate_ndv(self, name: str, index_name: str = "primary") -> float:
        """Cluster-wide distinct-value estimate, answered by the master
        alone from the lazily unioned ``#ndv`` sketches."""
        return self.estimate_ndv_detailed(name, index_name).ndv

    def estimate_ndv_detailed(
        self, name: str, index_name: str = "primary"
    ) -> NDVEstimate:
        """NDV estimate with the anti-matter interval and diagnostics."""
        self._check_dataset(name)
        full_name = secondary_index_name(name, index_name)
        self._refresh_cache_capacity()
        return self.master.estimate_ndv_detailed(full_name)

    def estimate_degraded(
        self, name: str, index_name: str, lo: int, hi: int
    ) -> EstimateResult | None:
        """A degraded (possibly-stale) estimate served under overload.

        Answers from the master's cached merged synopsis regardless of
        staleness (``None`` when nothing is cached).
        """
        self._check_dataset(name)
        full_name = (
            secondary_index_name(name, "primary")
            if index_name == "primary"
            else secondary_index_name(name, index_name)
        )
        return self.master.estimate_degraded(full_name, lo, hi)

    def datasets_of(self, name: str):
        """Every partition's dataset instance (for physical execution)."""
        self._check_dataset(name)
        for node in self.nodes:
            for partition_id in node.partition_ids:
                yield node.dataset(name, partition_id)

    def component_count(self, name: str, index_name: str) -> int:
        """Live disk components of one index across the cluster."""
        self._check_dataset(name)
        return sum(node.component_count(name, index_name) for node in self.nodes)

    # -- fault recovery -------------------------------------------------------

    def restart_nodes(self) -> int:
        """Crash-restart every storage node (the cluster-wide power
        failure); returns the total number of orphan files GC'd.

        Durable nodes rebuild their partitions from manifest and WAL
        and republish re-derived statistics under a fresh epoch; call
        :meth:`recover_statistics` afterwards to drain the republished
        backlog into the master's catalog.
        """
        return sum(len(node.restart()) for node in self.nodes)

    def statistics_backlog(self) -> int:
        """Statistics messages parked in node outboxes, cluster-wide."""
        return sum(node.statistics_backlog() for node in self.nodes)

    def recover_statistics(self, max_rounds: int = 1000) -> int:
        """Drain the wire and flush every node's statistics backlog.

        The graceful-degradation loop: ingestion may have parked
        messages while the master was unreachable, and a faulty wire
        may still hold reordered/delayed traffic.  Alternating drain
        and flush rounds until both are empty converges the catalog to
        the state a perfect wire would have produced (retries advance
        the fault plan's tick clock, so unavailability windows pass).

        Returns the number of rounds used; raises
        :class:`~repro.errors.ClusterError` when the backlog has not
        cleared after ``max_rounds`` (a fault plan so hostile that
        delivery never succeeds).
        """
        for round_number in range(1, max_rounds + 1):
            self.network.drain()
            remaining = sum(
                node.flush_statistics_outboxes() for node in self.nodes
            )
            if remaining == 0 and self.network.pending_count == 0:
                return round_number
        backlog = ", ".join(
            f"{node.node_id}={node.statistics_backlog()}" for node in self.nodes
        )
        raise ClusterError(
            f"statistics backlog did not clear within {max_rounds} recovery "
            f"rounds ({self.statistics_backlog()} messages still parked: "
            f"{backlog})"
        )

    # -- memory arbitration ---------------------------------------------------

    def _refresh_cache_capacity(self) -> None:
        """Point the master cache at the sum of per-node cache shares."""
        if self.memory_arbiters:
            self.master.set_cache_capacity(
                sum(a.cache_pool_bytes() for a in self.memory_arbiters)
            )

    # -- internals --------------------------------------------------------------

    def _route(self, name: str, document: dict[str, Any]) -> tuple[StorageNode, int]:
        self._check_dataset(name)
        pk = document[self._primary_keys[name]]
        partition_id = self.partitioner.partition_of(pk)
        return self._partition_owner[partition_id], partition_id

    def _check_dataset(self, name: str) -> None:
        if name not in self._dataset_names:
            raise ClusterError(f"unknown dataset {name!r}")
