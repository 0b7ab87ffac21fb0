"""``feed_churn``: paper Fig. 2b with anti-matter.

One round streams the same insert/update/delete script through a
``ChangestreamFeed`` and a ``ResumableFeedConsumer`` into a durable,
sync-scheduled cluster twice -- without statistics and with
``equi_width+ndv`` -- in alternating order.  The same write path as
``bulkload`` used differently: memtable inserts, WAL group commits, flush
sorts, merge cursor and anti-matter reconciliation, many small publishes
and retractions, feed cursor checkpoints.  B-tree bulk packing is a
minority share.  The sync scheduler makes every byte, page and message
count exactly repeatable.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.cluster.feeds import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.util.retry import RetryPolicy

from e2ebench import harness, layers, workloads
from e2ebench.harness import Context
from e2ebench.scenarios import common

CONFIGS = ("nostats", harness.STATS_ON)
CHECKPOINT_EVERY = 256
SPIN_EVERY_OPS = 1024
VICTIM_MIN_AGE_MEMTABLES = 6
"""Updates and deletes name records at least this many memtable
capacities of writes old: with four partitions each flushing every
``memtable`` of its own ops, a record that old is on disk, so its
tombstone cancels persisted matter (``workloads.churn_ops``)."""

WHY = (
    "Fig. 2b with anti-matter: a 70/15/15 insert/update/delete feed into a "
    "durable cluster; memtable, WAL, flush, merge reconciliation, small "
    "publishes and retractions, cursor checkpoints and recovery do the work"
)


class TimedTarget(DatasetFeedAdapter):
    """The benchmark's ingest target: the stock adapter, timing each op
    and, between two ops now and then, sampling the machine's speed: a
    pass outlasts the machine's stay on one speed often enough that spins
    around it alone misjudge it (README, "Durations are restated at
    reference speed")."""

    def __init__(
        self, cluster: Any, latencies: list[float], speed: harness.SpeedMeter | None
    ) -> None:
        super().__init__(cluster, harness.DATASET)
        self._latencies = latencies
        self._speed = speed

    def _timed(self, op: Callable[[Any], Any], argument: Any) -> Any:
        started = time.perf_counter()
        result = op(argument)
        self._latencies.append(time.perf_counter() - started)
        if self._speed is not None and len(self._latencies) % SPIN_EVERY_OPS == 0:
            self._speed.sample(1)
        return result

    def insert(self, document: dict[str, Any]) -> None:
        self._timed(super().insert, document)

    def update(self, document: dict[str, Any]) -> bool:
        return self._timed(super().update, document)

    def delete(self, pk: Any) -> bool:
        return self._timed(super().delete, pk)


def _one_pass(
    ctx: Context,
    config: str,
    records: list[FeedRecord],
    memtable: int,
    latencies: list[float],
):
    """Stream ``records`` into a fresh durable cluster; returns ``(seconds,
    traced section or None, cluster, consumer stats)``; ``latencies``
    receives each op's seconds.  Timed: the
    consumer's whole run (final checkpoint and flush included) plus the
    statistics drain, so every record is statistics-visible at the end."""
    cluster = harness.build_cluster(config, durable=True)
    harness.create_orders(cluster, memtable_capacity=memtable)
    tracing = ctx.tracer is not None and ctx.tracer.active
    consumer = ResumableFeedConsumer(
        ChangestreamFeed("churn", records),
        # Spins inside the consumer's span would be charged to it.
        TimedTarget(cluster, latencies, None if tracing else ctx.speed),
        FeedCursorStore(cluster.nodes[0].disk),
        checkpoint_every=CHECKPOINT_EVERY,
        retry_policy=RetryPolicy.immediate(),
    )
    outcome = []

    def stream() -> None:
        outcome.append(consumer.run())
        cluster.recover_statistics()

    seconds, section = common.timed_section(ctx, stream)
    return seconds, section, cluster, outcome[0]


def _setup(ctx: Context):
    """Input generation plus one untimed warm-up pass per configuration."""
    ops, model = workloads.churn_ops(
        ctx.seed, ctx.scale.churn_ops, min_age=VICTIM_MIN_AGE_MEMTABLES * ctx.scale.churn_memtable
    )
    records = [FeedRecord(FeedOperation(kind), document) for kind, document in ops]
    size = harness.user_bytes(doc for kind, doc in ops if kind != "delete")
    deleted = [doc["id"] for kind, doc in ops if kind == "delete"]
    warm = records[: ctx.scale.churn_warm_ops]
    for config in CONFIGS:
        _one_pass(ctx, config, warm, ctx.scale.churn_memtable, [])
    return records, model, size, deleted


def run(ctx: Context) -> None:
    oracle = ctx.oracle
    (records, model, size, deleted), setup_s = common.repeated_setup(
        ctx, lambda: _setup(ctx)
    )
    memtable = ctx.scale.churn_memtable
    ops = len(records)

    rounds: list[dict[str, float]] = []  # untraced rounds: config -> seconds
    traced_rounds: list[dict[str, float]] = []
    sections: list[layers.Section] = []
    op_latencies: list[float] = []
    estimate_bursts: list[list[float]] = []
    queries = workloads.range_queries(harness.SWEEP_QUERIES)
    wire_bytes = written = 0
    tail_cluster = None
    readings: dict[str, float] = {}
    for round_no in common.rounds(ctx):
        traced = ctx.tracing and round_no % 2 == 1
        order = CONFIGS if round_no % 4 < 2 else CONFIGS[::-1]
        seconds: dict[str, float] = {}
        stats_on_ops: list[float] = []
        burst: list[float] = []
        round_sections = []
        writes = set()
        mark = ctx.speed.mark()
        with common.maybe_traced(ctx, traced):
            for config in order:
                if traced:
                    ctx.tracer.set_op(f"round{round_no}:{config}")
                latencies: list[float] = []
                seconds[config], section, cluster, outcome = _one_pass(
                    ctx, config, records, memtable, latencies
                )
                oracle.ops(ops, outcome.failed + (ops - outcome.applied), "feed ops")
                io = harness.io_totals(cluster)
                writes.add((io.pages_written, io.bytes_written))
                if config == harness.STATS_ON:
                    # Per-layer numbers describe the stats-on pass only.
                    round_sections.append(section)
                    stats_on_ops = latencies
                    wire_bytes, written = cluster.network.stats.bytes_sent, io.bytes_written
                    if traced and not readings:
                        readings = layers.cluster_readings(cluster, size)
                    if not traced:
                        burst = harness.estimate_latencies(
                            ctx, cluster, queries, harness.SWEEP_TIMING_REPEATS
                        )
                    tail_cluster = cluster
        oracle.check(
            len(writes) == 1,
            f"round {round_no}: page/byte writes differ with statistics on: {writes}",
        )
        # The round at reference speed: one slowdown for both of its passes.
        slowdown = ctx.speed.slowdown(mark)
        seconds = {config: s / slowdown for config, s in seconds.items()}
        if traced:
            traced_rounds.append(seconds)
            sections.append(common.merge_sections(round_sections))
        else:
            rounds.append(seconds)
            op_latencies.extend(latency / slowdown for latency in stats_on_ops)
            estimate_bursts.append([latency / slowdown for latency in burst])

    # Lifecycle tail on the last stats-on cluster: sweep, oracle, and
    # restart_nodes + recover_statistics (WAL replay, manifest replay,
    # statistics re-derivation) checked against model and pre-crash sweep.
    # recovery_s is this workload's own metric, so a traced run traces it.
    tail, recovery = common.lifecycle_tail(
        ctx, tail_cluster, model, deleted, trace_recovery=True
    )

    ctx.end_to_end.update(tail)
    ctx.end_to_end.update(common.sweep_latency_metrics(ctx, estimate_bursts))
    ctx.end_to_end.update(
        {
            "setup_s": setup_s,
            "ingest_records_per_s": harness.median(
                ops / seconds[harness.STATS_ON] for seconds in rounds
            ),
            "stats_overhead_ratio": common.overhead_ratio(rounds, [harness.STATS_ON]),
            "ingest_p50_ms": harness.median(op_latencies) * 1e3,
            "stats_wire_bytes_per_record": wire_bytes / ops,
            "write_amplification": written / size,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
    )
    ctx.notes["rounds"] = len(rounds)
    ctx.notes["ops_per_pass"] = ops
    ctx.notes["live_records"] = len(model)
    if not ctx.tracing:
        return

    extras = dict(readings)
    extras["synopses.hll.overhead_ratio"] = ctx.end_to_end["stats_overhead_ratio"]
    extras["trace.overhead_ratio"] = harness.median(
        s[harness.STATS_ON] for s in traced_rounds
    ) / harness.median(s[harness.STATS_ON] for s in rounds)
    extras["trace.attributed_share"] = common.attributed_share(sections)
    extras.update(
        common.client_diagnostics(ctx, sorted(latency * 1e3 for latency in op_latencies), [])
    )
    ctx.per_layer.update(
        layers.assemble(ctx.workload, sections, extras, ctx.tracer, recovery)
    )
