"""Continuous ingestion on a cluster: the paper's Twitter-Firehose setup.

Spins up the simulated 4+1-node shared-nothing cluster, streams
tweet-like records through a push (socket) feed and then a changeable
feed with updates and deletes -- two sources of the one resumable feed
consumer -- and shows the master's catalog staying in sync with the
data -- no statistics job ever runs; estimates are served by the
cluster controller without touching a storage node.

Run:  python examples/twitter_firehose.py
"""

from repro.cluster import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    LSMCluster,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.core import StatisticsConfig
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.synopses import SynopsisType
from repro.types import Domain
from repro.workloads import (
    DistributionSpec,
    FrequencyDistribution,
    SpreadDistribution,
    TweetGenerator,
    generate_distribution,
)

VALUE_DOMAIN = Domain(0, 2**16 - 1)
NUM_TWEETS = 12_000
STAGE_SIZE = 2_000


def show_estimates(cluster: LSMCluster, title: str) -> None:
    print(f"\n{title}")
    print(f"{'value range':>18}  {'true':>6}  {'estimate':>9}")
    for lo, hi in [(0, VALUE_DOMAIN.hi), (1_000, 2_999), (30_000, 30_499)]:
        true_count = cluster.count_secondary_range("tweets", "value_idx", lo, hi)
        estimate = cluster.estimate("tweets", "value_idx", lo, hi)
        print(f"[{lo:>7}, {hi:>7}]  {true_count:>6}  {estimate:>9.1f}")


def main() -> None:
    cluster = LSMCluster(
        num_nodes=4,
        partitions_per_node=2,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=256),
    )
    cluster.create_dataset(
        "tweets",
        primary_key="id",
        primary_domain=Domain(0, 2**62),
        indexes=[IndexSpec("value_idx", "value", VALUE_DOMAIN)],
        memtable_capacity=1_000,
        merge_policy_factory=lambda: ConstantMergePolicy(5),
    )
    adapter = DatasetFeedAdapter(cluster, "tweets")
    cursors = FeedCursorStore(cluster.nodes[0].disk)

    distribution = generate_distribution(
        DistributionSpec(
            SpreadDistribution.ZIPF_RANDOM,
            FrequencyDistribution.ZIPF,
            VALUE_DOMAIN,
            num_values=800,
            total_records=NUM_TWEETS,
            seed=7,
        )
    )
    tweets = list(TweetGenerator(distribution, seed=7).generate())

    print(f"Streaming {NUM_TWEETS} tweets through a socket feed...")
    feed = ReplayableStreamFeed("firehose", tweets)
    ResumableFeedConsumer(feed, adapter, cursors).run()
    print(
        f"Feed bytes: {feed.bytes_received:,}; synopsis traffic to master: "
        f"{cluster.network.stats.bytes_sent:,} bytes in "
        f"{cluster.master.stats_messages_received} messages"
    )
    print(f"Live components: {cluster.component_count('tweets', 'value_idx')}")
    show_estimates(cluster, "After the firehose (insert-only):")

    print("\nApplying a changeable feed: 15% updates + 15% deletes...")
    changes = [
        FeedRecord(
            FeedOperation.UPDATE,
            {
                **tweets[pk],
                "value": (tweets[pk]["value"] + 17_000) % VALUE_DOMAIN.length,
            },
        )
        for pk in range(0, NUM_TWEETS, 7)
    ]
    changes += [
        FeedRecord(FeedOperation.DELETE, tweets[pk]) for pk in range(1, NUM_TWEETS, 7)
    ]
    # The paper's staging (Section 4.3.4) is the consumer's flush_every:
    # a forced flush per stage, so later operations leave anti-matter.
    stats = ResumableFeedConsumer(
        ChangestreamFeed("churn", changes), adapter, cursors, flush_every=STAGE_SIZE
    ).run()
    print(
        f"Applied {stats.applied - stats.failed} of {len(changes)} updates and "
        f"deletes in stages of {STAGE_SIZE:,}"
    )
    show_estimates(cluster, "After churn (anti-matter synopses subtract):")

    result = cluster.estimate_detailed("tweets", "value_idx", 0, VALUE_DOMAIN.hi)
    print(
        f"\nEstimation overhead on the master: "
        f"{result.overhead_seconds * 1e3:.3f} ms "
        f"({'cache hit' if result.from_cache else f'{result.synopses_consulted} synopses combined'})"
    )


if __name__ == "__main__":
    main()
