"""The ingestion-overhead pipeline (paper Section 4.2, Figure 2).

Measures the wall-clock cost of loading a dataset into the simulated
cluster under each statistics configuration, through three ingestion
paths:

* **bulkload** -- pre-sorted partitioned parallel load, one component
  per partition (Figure 2a);
* **socket feed** -- push-based continuous ingestion through the full
  LSM lifecycle (Figure 2b);
* **file feed** -- pull-based ingestion from local JSON-lines files
  (Figure 2b).

The two feed modes are one code path: a source
(:class:`~repro.cluster.feeds.ReplayableStreamFeed` or
:class:`~repro.cluster.feeds.FileFeed`, prepared before the clock
starts) driven by the one
:class:`~repro.cluster.feeds.ResumableFeedConsumer`, whose run -- every
apply with its cursor write, the final checkpoint and the final flush
-- is what is timed.

Alongside wall-clock time the report carries the simulated I/O and
network counters, which make the *mechanism* of the paper's claim
visible: statistics collection adds zero data-path I/O, only synopsis
shipping.
"""

from __future__ import annotations

import enum
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.config import StatisticsConfig
from repro.cluster.cluster import LSMCluster
from repro.cluster.feeds import (
    DatasetFeedAdapter,
    FeedCursorStore,
    FileFeed,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import MergePolicy
from repro.lsm.storage import IOStats
from repro.types import Domain

__all__ = ["IngestionMode", "IngestionReport", "IngestionBenchmark"]


class IngestionMode(enum.Enum):
    """The three ingestion paths of Figure 2."""

    BULKLOAD = "Bulkload"
    SOCKET_FEED = "SocketFeed"
    FILE_FEED = "FileFeed"


@dataclass(frozen=True)
class IngestionReport:
    """Measured cost of one ingestion run."""

    mode: IngestionMode
    stats_label: str
    records: int
    seconds: float
    disk_io: IOStats
    network_bytes: int
    stats_messages: int
    components: int

    @property
    def records_per_second(self) -> float:
        """Ingestion throughput."""
        return self.records / self.seconds if self.seconds > 0 else float("inf")


class IngestionBenchmark:
    """Runs one ingestion configuration end to end on a fresh cluster."""

    def __init__(
        self,
        documents: Callable[[], Iterator[dict[str, Any]]],
        num_records: int,
        value_field: str,
        value_domain: Domain,
        stats_config: StatisticsConfig,
        mode: IngestionMode,
        num_nodes: int = 2,
        partitions_per_node: int = 2,
        memtable_capacity: int = 4096,
        merge_policy_factory: Callable[[], MergePolicy] | None = None,
    ) -> None:
        self.documents = documents
        self.num_records = num_records
        self.value_field = value_field
        self.value_domain = value_domain
        self.stats_config = stats_config
        self.mode = mode
        self.num_nodes = num_nodes
        self.partitions_per_node = partitions_per_node
        self.memtable_capacity = memtable_capacity
        self.merge_policy_factory = merge_policy_factory

    def run(self) -> IngestionReport:
        """Build a fresh cluster, ingest, and report the cost."""
        cluster = LSMCluster(
            num_nodes=self.num_nodes,
            partitions_per_node=self.partitions_per_node,
            stats_config=self.stats_config,
        )
        cluster.create_dataset(
            "bench",
            primary_key="id",
            primary_domain=Domain(0, 2**62),
            indexes=[IndexSpec("value_idx", self.value_field, self.value_domain)],
            memtable_capacity=self.memtable_capacity,
            merge_policy_factory=self.merge_policy_factory,
        )

        if self.mode is IngestionMode.BULKLOAD:
            started = time.perf_counter()
            cluster.bulkload("bench", self.documents())
            elapsed = time.perf_counter() - started
        else:
            with tempfile.TemporaryDirectory() as tmp:
                if self.mode is IngestionMode.SOCKET_FEED:
                    source = ReplayableStreamFeed("bench", self.documents())
                else:
                    path = Path(tmp) / "feed.jsonl"
                    FileFeed.write_file(path, self.documents())
                    source = FileFeed([path], feed_id="bench")
                consumer = ResumableFeedConsumer(
                    source,
                    DatasetFeedAdapter(cluster, "bench"),
                    FeedCursorStore(cluster.nodes[0].disk),
                )
                started = time.perf_counter()
                consumer.run()
                elapsed = time.perf_counter() - started

        disk_io = _sum_io(node.disk.stats for node in cluster.nodes)
        label = (
            self.stats_config.synopsis_type.value
            if self.stats_config.synopsis_type is not None
            else "NoStats"
        )
        return IngestionReport(
            mode=self.mode,
            stats_label=label,
            records=self.num_records,
            seconds=elapsed,
            disk_io=disk_io,
            network_bytes=cluster.network.stats.bytes_sent,
            stats_messages=cluster.master.stats_messages_received,
            components=cluster.component_count("bench", "value_idx"),
        )


def _sum_io(stats: Iterable[IOStats]) -> IOStats:
    total = IOStats()
    for item in stats:
        total = total + item
    return total
