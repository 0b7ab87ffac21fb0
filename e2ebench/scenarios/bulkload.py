"""``bulkload``: paper Fig. 2a.

One round bulkloads the same documents under five statistics
configurations in rotating order; B-tree packing, bloom ``add_all`` and
the synopsis builders do nearly all the work, while memtable, WAL, merge
cursor, scheduler and serving do none.  A builder, collector or B-tree
optimisation shows here; a memtable or WAL one must not.
"""

from __future__ import annotations

import statistics
from typing import Any

from e2ebench import harness, layers, workloads
from e2ebench.harness import Context
from e2ebench.scenarios import common

CONFIGS = tuple(harness.STATS_CONFIGS)  # "nostats" first
STATS_ON_CONFIGS = CONFIGS[1:]
_FAMILY_OF_CONFIG = {
    "equi_width": "equi_width",
    "equi_height": "equi_height",
    "wavelet": "wavelet",
    "equi_width+ndv": "hll",
}

WHY = (
    "Fig. 2a: bulkload under five statistics configurations; B-tree packing, "
    "bloom and synopsis builders do the work, memtable/WAL/scheduler none"
)


def _load(cluster: Any, docs: list[dict[str, Any]]) -> None:
    cluster.bulkload(harness.DATASET, docs)
    cluster.recover_statistics()


def _one_pass(ctx: Context, config: str, docs: list[dict[str, Any]], durable: bool = False):
    """Bulkload ``docs`` into a fresh cluster; returns ``(seconds, traced
    section or None, cluster)``.  Only the load and the statistics drain are
    timed; building the empty cluster is not."""
    cluster = harness.build_cluster(config, durable=durable)
    harness.create_orders(cluster)
    return common.timed_section(ctx, lambda: _load(cluster, docs)) + (cluster,)


def _setup(ctx: Context) -> tuple[list[dict[str, Any]], dict[int, dict[str, Any]], int]:
    """Input generation plus one untimed warm-up pass per configuration."""
    docs = workloads.documents(ctx.seed, ctx.scale.bulk_docs)
    model = {doc["id"]: doc for doc in docs}
    size = harness.user_bytes(docs)
    warm = docs[: ctx.scale.bulk_warm_docs]
    for config in CONFIGS:
        cluster = harness.build_cluster(config)
        harness.create_orders(cluster)
        _load(cluster, warm)
    return docs, model, size


def run(ctx: Context) -> None:
    oracle = ctx.oracle
    (docs, model, size), setup_s = common.repeated_setup(ctx, lambda: _setup(ctx))
    records = len(docs)
    truth = harness.SortedValues(model, "value")
    queries = workloads.range_queries(harness.SWEEP_QUERIES)

    rounds: list[dict[str, float]] = []  # untraced rounds: config -> seconds
    traced_rounds: list[dict[str, float]] = []
    sections: list[layers.Section] = []
    l1_errors: list[float] = []
    estimate_bursts: list[list[float]] = []
    wire_bytes = written = 0
    readings: dict[str, float] = {}
    for round_no in common.rounds(ctx):
        traced = ctx.tracing and round_no % 2 == 1
        order = CONFIGS[round_no % len(CONFIGS):] + CONFIGS[: round_no % len(CONFIGS)]
        seconds: dict[str, float] = {}
        burst: list[float] = []
        round_sections = []
        writes = set()
        mark = ctx.speed.mark()
        with common.maybe_traced(ctx, traced):
            for config in order:
                if traced:
                    ctx.tracer.set_op(f"round{round_no}:{config}")
                seconds[config], section, cluster = _one_pass(ctx, config, docs)
                round_sections.append(section)
                io = harness.io_totals(cluster)
                writes.add((io.pages_written, io.bytes_written))
                written = io.bytes_written  # the same in every pass (checked below)
                if round_no == 0 and config != "nostats":
                    # Round 0 is never traced: each family's wire bytes and
                    # accuracy over the same data, outside the clock.
                    wire_bytes += cluster.network.stats.bytes_sent
                    l1_errors.append(harness.sweep(cluster, queries, truth)[0])
                if config == harness.STATS_ON:
                    if traced and not readings:
                        readings = layers.cluster_readings(cluster, size)
                    if not traced:
                        burst = harness.estimate_latencies(
                            ctx, cluster, queries, harness.SWEEP_TIMING_REPEATS
                        )
        oracle.ops(len(order) * records, 0, "bulkloaded records")
        oracle.check(
            len(writes) == 1,
            f"round {round_no}: page/byte writes differ between configurations: {writes}",
        )
        # The round at reference speed: one slowdown for all of its passes.
        slowdown = ctx.speed.slowdown(mark)
        seconds = {config: s / slowdown for config, s in seconds.items()}
        if traced:
            traced_rounds.append(seconds)
            sections.append(common.merge_sections(round_sections))
        else:
            rounds.append(seconds)
            estimate_bursts.append([latency / slowdown for latency in burst])

    # Lifecycle tail on a durable stats-on cluster: sweep latency, oracle,
    # crash-restart and statistics re-derivation.
    _, _, tail_cluster = _one_pass(ctx, harness.STATS_ON, docs, durable=True)
    tail, _ = common.lifecycle_tail(ctx, tail_cluster, model)

    stats_on_s = [
        [seconds[c] for c in STATS_ON_CONFIGS] for seconds in rounds
    ]
    ctx.end_to_end.update(tail)
    ctx.end_to_end.update(common.sweep_latency_metrics(ctx, estimate_bursts))
    ctx.end_to_end.update(
        {
            "setup_s": setup_s,
            "ingest_records_per_s": harness.median(
                len(per_round) * records / sum(per_round) for per_round in stats_on_s
            ),
            "stats_overhead_ratio": common.overhead_ratio(rounds, STATS_ON_CONFIGS),
            # A wavelet pass takes several times any other, so a median over
            # all passes sits between two modes; the typical write is a pass
            # under the configuration every other workload runs.
            "ingest_p50_ms": harness.median(
                seconds[harness.STATS_ON] * 1e3 for seconds in rounds
            ),
            "estimate_l1_error": statistics.fmean(l1_errors),
            "stats_wire_bytes_per_record": wire_bytes / (len(STATS_ON_CONFIGS) * records),
            "write_amplification": written / size,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
    )
    ctx.notes["rounds"] = len(rounds)
    ctx.notes["records_per_pass"] = records
    if not ctx.tracing:
        return

    extras = dict(readings)
    for config, family in _FAMILY_OF_CONFIG.items():
        extras[f"synopses.{family}.overhead_ratio"] = common.overhead_ratio(
            rounds, [config]
        )
    extras["trace.overhead_ratio"] = harness.median(
        sum(s.values()) for s in traced_rounds
    ) / harness.median(sum(s.values()) for s in rounds)
    extras["trace.attributed_share"] = common.attributed_share(sections)
    pass_ms = sorted(s * 1e3 for per_round in stats_on_s for s in per_round)
    extras.update(common.client_diagnostics(ctx, pass_ms, []))
    ctx.per_layer.update(layers.assemble(ctx.workload, sections, extras, ctx.tracer))
