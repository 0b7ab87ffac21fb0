"""Simulated shared-nothing cluster (the paper's 4+1-node testbed)."""

from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import (
    FaultPlan,
    FeedFaultPlan,
    FeedFaults,
    LinkFaults,
)
from repro.cluster.feeds import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedConsumerStats,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    FileFeed,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.cluster.master import ClusterController
from repro.cluster.network import Network, NetworkStats
from repro.cluster.node import NetworkStatisticsSink, StorageNode
from repro.cluster.partitioner import HashPartitioner
from repro.cluster.serving import EstimateService
from repro.util.retry import RetryPolicy

__all__ = [
    "LSMCluster",
    "ClusterController",
    "StorageNode",
    "NetworkStatisticsSink",
    "Network",
    "NetworkStats",
    "FaultPlan",
    "LinkFaults",
    "FeedFaults",
    "FeedFaultPlan",
    "RetryPolicy",
    "HashPartitioner",
    "FileFeed",
    "ChangestreamFeed",
    "ReplayableStreamFeed",
    "DatasetFeedAdapter",
    "FeedOperation",
    "FeedRecord",
    "FeedCursorStore",
    "FeedConsumerStats",
    "ResumableFeedConsumer",
    "EstimateService",
]
