"""The convergence harness behind the four ``repro *check`` commands.

The repo's correctness argument is the bit-identity oracle: run one
scripted workload undisturbed, run it again with the lifecycle
perturbed (a lossy wire, a crash, background maintenance, a tight
memory budget, a killed feed), and demand the two clusters end in the
*same image*.  This module owns everything those runs share, once:

* the canonical cluster (:func:`build_cluster`) -- 2 nodes x 2
  partitions, immediate retries, one dataset with a primary key and a
  ``value_idx`` secondary, small memtables and an eager merge policy so
  a few hundred records pass every lifecycle event many times;
* the op script (:func:`ops`) with its direct form (:func:`apply`,
  :func:`retry`, :func:`run_script`) and its feed form
  (:func:`feed_records`, :func:`feed_consumer`);
* the image (:func:`image`) and its diff (:func:`compare`);
* :func:`observe`, which runs one scenario under a fresh metrics
  registry and hands back image, counters and a parked-backlog verdict.

A perturbation is a keyword argument of
:class:`~repro.cluster.cluster.LSMCluster` passed through
:func:`build_cluster`; composing two perturbations is passing two
keywords.  ``faultcheck``, ``crashcheck``, ``racecheck`` and
``servecheck`` (``repro.cluster.*check``) keep only what is theirs: the
perturbation, the vacuity guards that prove it actually bit, and the
report.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.cluster.cluster import LSMCluster
from repro.cluster.feeds import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.core.config import StatisticsConfig
from repro.lsm.crashpoints import SimulatedCrash
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.types import Domain
from repro.util.retry import RetryPolicy

__all__ = [
    "DATASET",
    "Observed",
    "BATCH",
    "apply",
    "build_cluster",
    "compare",
    "doc",
    "feed_consumer",
    "feed_records",
    "image",
    "observe",
    "ops",
    "retry",
    "run_script",
]

DATASET = "verify"
_INDEX = "value_idx"
_BULKLOAD_COUNT = 64
BATCH = 8
"""Documents per ``insert_many`` op in the second half of the script."""

Op = tuple[str, Any]


def doc(pk: int) -> dict[str, Any]:
    return {"id": pk, "value": (pk * 13) % 1024}


def build_cluster(**perturbations: Any) -> LSMCluster:
    """The canonical check cluster with its one dataset created.

    ``perturbations`` are the :class:`LSMCluster` arguments a check
    varies -- ``fault_plan``, ``crash_injector``, ``wal_enabled``,
    ``durable``, ``scheduler``, ``scheduler_seed``,
    ``merge_pacing_rate``, ``memory_budget``, ``stats_config`` -- and
    go through unchanged.  The cluster is durable unless told otherwise
    (restarts and feed cursors need the disk to survive).
    """
    perturbations.setdefault(
        "stats_config", StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32)
    )
    perturbations.setdefault("durable", True)
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        **perturbations,
    )
    cluster.create_dataset(
        DATASET,
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec(_INDEX, "value", Domain(0, 1023))],
        memtable_capacity=32,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    return cluster


# -- the op script -------------------------------------------------------------


def ops(records: int) -> list[Op]:
    """The scripted workload: an initial bulkload, inserts with one
    explicit flush in their midst (it exercises the drain barrier while
    merge continuations may still be queued behind it) -- one document
    per call before it, :data:`BATCH` per ``insert_many`` call after
    it -- a delete of every 17th key (anti-matter) and a final flush:
    enough lifecycle traffic to pass every registered crash point
    several times."""
    script: list[Op] = [("bulkload", tuple(range(_BULKLOAD_COUNT)))]
    middle = _BULKLOAD_COUNT + records // 2
    for pk in range(_BULKLOAD_COUNT, min(middle + 1, records)):
        script.append(("insert", pk))
    if middle < records:
        script.append(("flush", None))
        for start in range(middle + 1, records, BATCH):
            script.append(
                ("insert_many", tuple(range(start, min(start + BATCH, records))))
            )
    script.extend(("delete", pk) for pk in range(0, records, 17))
    script.append(("flush", None))
    return script


def apply(cluster: LSMCluster, op: str, arg: Any) -> None:
    if op == "bulkload":
        cluster.bulkload(DATASET, [doc(pk) for pk in arg])
    elif op == "insert":
        cluster.insert(DATASET, doc(arg))
    elif op == "insert_many":
        cluster.insert_many(DATASET, [doc(pk) for pk in arg])
    elif op == "delete":
        cluster.delete(DATASET, arg)
    else:
        cluster.flush_all(DATASET)


def retry(cluster: LSMCluster, op: str, arg: Any) -> None:
    """Re-apply the operation a crash interrupted, but only where its
    effect is absent -- the client-side at-least-once retry that a
    durable engine's idempotence must tolerate."""
    if op == "bulkload":
        _retry_bulkload(cluster, arg)
    elif op == "insert":
        if cluster.get(DATASET, arg) is None:
            cluster.insert(DATASET, doc(arg))
    elif op == "insert_many":
        # Per partition the durable part of an interrupted batch is a
        # prefix, so the absent documents are each partition's suffix.
        absent = [doc(pk) for pk in arg if cluster.get(DATASET, pk) is None]
        cluster.insert_many(DATASET, absent)
    elif op == "delete":
        if cluster.get(DATASET, arg) is not None:
            cluster.delete(DATASET, arg)
    else:
        cluster.flush_all(DATASET)


def _retry_bulkload(cluster: LSMCluster, pks: tuple[int, ...]) -> None:
    """Reload only the partitions whose load transaction was voided.

    A bulkload commits per partition (one manifest transaction each),
    so after a mid-load crash some partitions hold their component and
    the rest recovered empty; reloading an already-loaded partition
    would violate the load-into-empty contract.
    """
    batches: dict[int, list[dict[str, Any]]] = {}
    for pk in pks:
        batches.setdefault(cluster.partitioner.partition_of(pk), []).append(
            doc(pk)
        )
    for partition_id, batch in batches.items():
        node = cluster._partition_owner[partition_id]
        dataset = node.dataset(DATASET, partition_id)
        if dataset.primary.components or dataset.primary.memtable:
            continue  # this partition's load already committed
        batch.sort(key=lambda document: document["id"])
        node.bulkload(DATASET, partition_id, batch)


def run_script(cluster: LSMCluster, records: int) -> None:
    """Run the op script.  If a crash injector fires, restart every
    node (all in-memory state lost, disks survive), recover, retry the
    interrupted op and finish the script."""
    script = ops(records)
    position = 0
    try:
        for position, (op, arg) in enumerate(script):
            apply(cluster, op, arg)
    except SimulatedCrash:
        cluster.restart_nodes()
        cluster.recover_statistics()
        retry(cluster, *script[position])
        for op, arg in script[position + 1 :]:
            apply(cluster, op, arg)


def feed_records(records: int) -> list[FeedRecord]:
    """The op script as a changestream.  A feed carries documents, not
    maintenance commands: the bulkloaded keys arrive as inserts and the
    explicit flushes have no feed form (``flush_every`` on the consumer
    is the feed path's own)."""
    stream: list[FeedRecord] = []
    for op, arg in ops(records):
        if op == "bulkload":
            stream.extend(
                FeedRecord(FeedOperation.INSERT, doc(pk)) for pk in arg
            )
        elif op == "insert":
            stream.append(FeedRecord(FeedOperation.INSERT, doc(arg)))
        elif op == "insert_many":
            stream.extend(
                FeedRecord(FeedOperation.INSERT, doc(pk)) for pk in arg
            )
        elif op == "delete":
            stream.append(FeedRecord(FeedOperation.DELETE, {"id": arg}))
    return stream


def feed_consumer(
    cluster: LSMCluster, source: ChangestreamFeed, **cadence: Any
) -> ResumableFeedConsumer:
    """A consumer draining ``source`` into the check dataset.
    ``cadence`` is ``checkpoint_every`` / ``flush_every``."""
    return ResumableFeedConsumer(
        source,
        DatasetFeedAdapter(cluster, DATASET),
        # The cursor lives in node 0's superblock: one durable home per
        # feed, surviving the same crashes its data does.
        FeedCursorStore(cluster.nodes[0].disk),
        retry_policy=RetryPolicy.immediate(max_attempts=5),
        **cadence,
    )


# -- the image and its diff ----------------------------------------------------


def _contents_image(cluster: LSMCluster) -> dict:
    """Reconciled per-partition scans plus each index's component
    sizes, as comparable plain data."""
    image: dict = {}
    for node in cluster.nodes:
        for partition_id in node.partition_ids:
            dataset = node.dataset(DATASET, partition_id)
            secondary = dataset.secondary_tree(_INDEX)
            image[(node.node_id, partition_id, "primary")] = tuple(
                (record.key, record.value["value"])
                for record in dataset.primary.scan()
            )
            image[(node.node_id, partition_id, _INDEX)] = tuple(
                record.key for record in dataset.scan_secondary(_INDEX)
            )
            image[(node.node_id, partition_id, "structure")] = tuple(
                tuple(component.record_count for component in tree.components)
                for tree in (dataset.primary, secondary)
            )
    return image


def _catalog_image(cluster: LSMCluster) -> dict:
    """The master catalog as comparable plain data.

    Component uids come from a process-global counter, so two runs in
    the same process assign different absolute uids to corresponding
    components, and under a background scheduler their absolute values
    depend on the interleaving of flushes across partitions.  They are
    normalised to their rank within each ``(index, node, partition)``
    group: uid order there is creation order, which lane FIFO preserves
    and which is what statistics correctness depends on.
    """
    grouped: dict[tuple[str, str, int], list] = {}
    catalog = cluster.master.catalog
    for index_name in catalog.index_names():
        for entry in catalog.entries_for(index_name):
            grouped.setdefault(
                (index_name, entry.node_id, entry.partition_id), []
            ).append(entry)
    image = {}
    for (index_name, node_id, partition_id), entries in grouped.items():
        entries.sort(key=lambda e: e.component_uid)
        for rank, entry in enumerate(entries):
            image[(index_name, node_id, partition_id, rank)] = (
                entry.synopsis.to_payload(),
                entry.anti_synopsis.to_payload(),
            )
    return image


def _estimate_sweep(cluster: LSMCluster) -> list[float]:
    return [
        cluster.estimate(DATASET, _INDEX, lo, lo + width)
        for lo in range(0, 1024, 64)
        for width in (0, 15, 255)
    ]


def image(cluster: LSMCluster) -> dict:
    """Everything two converged runs must agree on, bit for bit."""
    return {
        "contents": _contents_image(cluster),
        "catalog": _catalog_image(cluster),
        "estimates": _estimate_sweep(cluster),
    }


def compare(label: str, baseline: dict, other: dict) -> list[str]:
    """Diff two images; one line per kind of divergence."""
    problems: list[str] = []
    if baseline["contents"] != other["contents"]:
        diverged = sorted(
            key
            for key in baseline["contents"]
            if baseline["contents"][key] != other["contents"].get(key)
        )
        problems.append(f"{label}: partition contents diverged: {diverged[:4]}")
    expected, actual = baseline["catalog"], other["catalog"]
    if set(expected) != set(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        problems.append(
            f"{label}: catalog entries differ "
            f"(missing {missing[:3]}, extra {extra[:3]})"
        )
    else:
        diverged = [key for key in expected if expected[key] != actual[key]]
        if diverged:
            problems.append(
                f"{label}: synopsis payloads diverged for {diverged[:3]}"
            )
    if baseline["estimates"] != other["estimates"]:
        deltas = [
            (index, expected_value, actual_value)
            for index, (expected_value, actual_value) in enumerate(
                zip(baseline["estimates"], other["estimates"])
            )
            if expected_value != actual_value
        ]
        problems.append(f"{label}: estimates diverged: {deltas[:3]}")
    return problems


# -- one observed run ----------------------------------------------------------


class Observed(NamedTuple):
    """What :func:`observe` saw of one run."""

    cluster: LSMCluster
    outcome: Any  # whatever the drive function returned
    image: dict
    counters: dict[str, int]
    problems: list[str]


def observe(
    label: str, drive: Callable[[LSMCluster], Any], **perturbations: Any
) -> Observed:
    """Build the check cluster, ``drive`` it, settle it and image it.

    Each run gets its own registry (instruments bind at construction
    time, so the cluster must be built inside it): the counters
    returned are this run's alone.  Settling is the maintenance drain
    barrier followed by statistics recovery; a backlog still parked
    after that is reported as a problem, as is nothing else -- the
    caller compares images and applies its own guards.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = build_cluster(**perturbations)
        outcome = drive(cluster)
        cluster.drain_maintenance()
        cluster.recover_statistics()
        taken = image(cluster)
        cluster.shutdown()
    problems = []
    backlog = cluster.statistics_backlog()
    if backlog:
        problems.append(
            f"{label}: {backlog} statistics messages still parked "
            "after recovery"
        )
    return Observed(
        cluster, outcome, taken, registry.snapshot()["counters"], problems
    )
