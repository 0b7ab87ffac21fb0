"""``estimate_mix``: the optimizer's side of the system, read-only.

Setup ingests the same three datasets into three clusters -- no
statistics, ``equi_width+ndv`` (A, mergeable) and ``equi_height`` (B,
unmergeable: always the per-component summation path) -- and is counted
in ``setup_s``.  The timed section is one closed-loop client replaying a
fixed seeded request list in two phases: ``fits`` (master cache
unbounded) and ``spills`` (cache sized to a quarter of the merged
synopses).  Estimator, merged-synopsis cache, catalog, ``estimate`` /
``merge_with`` and HLL union do the work; every ``lsm.*`` layer is idle,
so an ingest optimisation must show no change here.
"""

from __future__ import annotations

import time
from typing import Any

from repro.lsm.dataset import IndexSpec
from repro.query.optimizer import QueryOptimizer
from repro.query.predicate import RangePredicate
from repro.types import Domain

from e2ebench import harness, layers, workloads
from e2ebench.harness import Context
from e2ebench.scenarios import common

CONFIGS = ("nostats", harness.STATS_ON, "equi_height")
MERGEABLE, UNMERGEABLE = harness.STATS_ON, "equi_height"
PHASES = ("fits", "spills")
INGEST_BATCH = 32
SPIN_EVERY_REQUESTS = 100
COMPONENTS_PER_PARTITION = 8.5  # >= 8 flushes on every partition, no merges

# dataset -> its two secondary indexes as (index, field, domain)
SCHEMA: dict[str, tuple[tuple[str, str, tuple[int, int]], ...]] = {
    harness.DATASET: (
        ("value_idx", "value", workloads.VALUE_DOMAIN),
        ("cust_idx", "cust", workloads.CUST_DOMAIN),
    ),
    "payments": (
        ("value_idx", "value", workloads.VALUE_DOMAIN),
        ("cust_idx", "cust", workloads.CUST_DOMAIN),
    ),
    "shipments": (
        ("ts_idx", "ts", workloads.TS_DOMAIN),
        ("status_idx", "status", workloads.STATUS_DOMAIN),
    ),
}
TARGETS = [
    (dataset, index, domain)
    for dataset, indexes in SCHEMA.items()
    for index, _field, domain in indexes
]
FIELD_OF = {
    (dataset, index): field
    for dataset, indexes in SCHEMA.items()
    for index, field, _domain in indexes
}

WHY = (
    "read-only 60/10/10/20 range/NDV/plan/unmergeable mix in a cache-fits and "
    "a cache-spills phase: estimator, cache, catalog and synopsis merge do the "
    "work, every lsm layer is idle"
)


def _ingest(cluster: Any, data: dict[str, list[dict[str, Any]]], latencies: list[float]) -> None:
    clock = time.perf_counter
    for dataset, docs in data.items():
        for start in range(0, len(docs), INGEST_BATCH):
            started = clock()
            cluster.insert_many(dataset, docs[start : start + INGEST_BATCH])
            latencies.append(clock() - started)
        cluster.flush_all(dataset)
    cluster.recover_statistics()


def _build(config: str, memtable: int) -> Any:
    cluster = harness.build_cluster(config, durable=True)
    for dataset, indexes in SCHEMA.items():
        cluster.create_dataset(
            dataset,
            primary_key="id",
            primary_domain=Domain(*workloads.PK_DOMAIN),
            indexes=[IndexSpec(i, f, Domain(*d)) for i, f, d in indexes],
            memtable_capacity=memtable,
        )
    return cluster


def _setup(ctx: Context, samples: list[dict[str, Any]]):
    """Input generation and the ingest of all three clusters."""
    memtable = ctx.scale.mix_memtable
    per_dataset = int(COMPONENTS_PER_PARTITION * memtable * 4)
    data = {
        dataset: workloads.documents(ctx.seed, per_dataset, stream=dataset)
        for dataset in SCHEMA
    }
    clusters = {}
    seconds = {}
    batches: dict[str, list[float]] = {}
    mark = ctx.speed.mark()
    for config in CONFIGS:
        cluster = clusters[config] = _build(config, memtable)
        batches[config] = []
        seconds[config] = ctx.speed.clock(
            lambda: _ingest(cluster, data, batches[config])
        )
    # The repetition at reference speed: one slowdown for its three ingests.
    slowdown = ctx.speed.slowdown(mark)
    samples.append(
        {
            "seconds": {config: s / slowdown for config, s in seconds.items()},
            "latencies": [batch / slowdown for batch in batches[MERGEABLE]],
        }
    )
    return data, clusters


class _Client:
    """The closed-loop client: serves one request of the fixed list."""

    def __init__(self, clusters: dict[str, Any], totals: dict[str, int]) -> None:
        self.mergeable = clusters[MERGEABLE]
        self.unmergeable = clusters[UNMERGEABLE]
        self.optimizer = QueryOptimizer(self.mergeable.master.estimator)
        self.partition = {
            dataset: next(iter(self.mergeable.datasets_of(dataset))) for dataset in SCHEMA
        }
        self.totals = totals

    def serve(self, request: tuple[str, int, int, int]) -> tuple[Any, bool | None]:
        """Returns ``(answer, served from the merged cache or None)``."""
        kind, target, lo, hi = request
        dataset, index, _domain = TARGETS[target]
        if kind == "range":
            result = self.mergeable.estimate_detailed(dataset, index, lo, hi)
            return result.estimate, result.from_cache
        if kind == "summed":
            result = self.unmergeable.estimate_detailed(dataset, index, lo, hi)
            return result.estimate, None
        if kind == "ndv":
            result = self.mergeable.estimate_ndv_detailed(dataset, index)
            return result.ndv, result.from_cache
        if index == "cust_idx":
            plan = self.optimizer.plan_join_on(
                self.partition[harness.DATASET],
                "cust",
                self.totals[harness.DATASET],
                self.partition["payments"],
                self.totals["payments"],
            )
            return (plan.method.value, plan.estimated_join_cardinality), None
        access = self.optimizer.plan_range_query(
            self.partition[dataset],
            RangePredicate(FIELD_OF[dataset, index], lo, hi),
            self.totals[dataset],
        )
        return (access.method.value, access.estimated_cardinality), None


def run(ctx: Context) -> None:
    oracle = ctx.oracle
    samples: list[dict[str, Any]] = []
    (data, clusters), setup_s = common.repeated_setup(ctx, lambda: _setup(ctx, samples))
    mergeable, unmergeable = clusters[MERGEABLE], clusters[UNMERGEABLE]
    master = mergeable.master
    totals = {dataset: len(docs) for dataset, docs in data.items()}
    records = sum(totals.values())
    size = sum(harness.user_bytes(docs) for docs in data.values())
    writes = {
        (io.pages_written, io.bytes_written)
        for io in map(harness.io_totals, clusters.values())
    }
    oracle.check(
        len(writes) == 1, f"page/byte writes differ between the setup clusters: {writes}"
    )
    components = min(
        node.component_count(dataset, index) / len(node.partition_ids)
        for node in mergeable.nodes
        for dataset, index, _ in TARGETS
    )
    oracle.check(components >= 8, f"only {components} components per partition")

    client = _Client(clusters, totals)
    schedules = {
        phase: workloads.estimate_schedule(
            ctx.seed, ctx.scale.mix_requests // len(PHASES), TARGETS, phase
        )
        for phase in PHASES
    }
    # Size the spills phase: touch every target once with the cache
    # unbounded; a quarter of what it then holds is the bounded capacity.
    for dataset, index, (lo, hi) in TARGETS:
        mergeable.estimate(dataset, index, lo, hi)
        mergeable.estimate_ndv(dataset, index)
    capacity = {"fits": None, "spills": master.cache.memory_bytes() // 4}

    rounds: list[float] = []  # untraced rounds: timed seconds
    traced_rounds: list[float] = []
    sections: list[layers.Section] = []
    latencies: list[float] = []
    fits_latencies: list[float] = []
    first_answers: list[Any] = []
    per_phase: dict[str, dict[str, list[float]]] = {
        phase: {"warm": [], "cold": [], "ndv": [], "hits": [], "misses": []}
        for phase in PHASES
    }
    readings: dict[str, float] = {}
    io_before = harness.io_totals(mergeable)
    clock = time.perf_counter
    for round_no in common.rounds(ctx):
        traced = ctx.tracing and round_no % 2 == 1
        keep = traced == ctx.tracing  # a traced run reports its traced rounds
        answers: list[Any] = []
        round_sections = []
        round_s = 0.0
        observed: dict[str, list[float]] = {phase: [] for phase in PHASES}
        mark = ctx.speed.mark()
        with common.maybe_traced(ctx, traced):
            for phase in PHASES:
                master.cache.clear()
                master.set_cache_capacity(capacity[phase])
                hits, misses = master.cache.hits, master.cache.misses
                notes = per_phase[phase]

                def replay() -> None:
                    for number, request in enumerate(schedules[phase]):
                        if number % SPIN_EVERY_REQUESTS == 0:
                            ctx.speed.sample(1)  # between requests, off the clock
                        if traced:
                            ctx.tracer.set_op(f"{phase}:{number}")
                        started = clock()
                        answer, from_cache = client.serve(request)
                        elapsed = clock() - started
                        observed[phase].append(elapsed)
                        answers.append(answer)
                        if not keep:
                            continue
                        if request[0] == "ndv":
                            notes["ndv"].append(elapsed)
                        elif from_cache is not None:
                            notes["warm" if from_cache else "cold"].append(elapsed)

                seconds, section = common.timed_section(ctx, replay)
                round_s += seconds
                round_sections.append(section)
                if keep:
                    notes["hits"].append(master.cache.hits - hits)
                    notes["misses"].append(master.cache.misses - misses)
                if traced and phase == "spills" and not readings:
                    readings = layers.cluster_readings(mergeable, size, since=io_before)
        if round_no == 0:
            first_answers = answers
        oracle.ops(
            len(answers),
            sum(1 for a, b in zip(answers, first_answers) if a != b),
            "estimate answers (vs round 0)",
        )
        # The round at reference speed: one slowdown for both of its phases.
        slowdown = ctx.speed.slowdown(mark)
        if traced:
            traced_rounds.append(round_s / slowdown)
            sections.append(common.merge_sections(round_sections))
        else:
            rounds.append(round_s / slowdown)
            fits_latencies.extend(elapsed / slowdown for elapsed in observed["fits"])
            latencies.extend(
                elapsed / slowdown for phase in PHASES for elapsed in observed[phase]
            )
    master.set_cache_capacity(None)
    wire_bytes = mergeable.network.stats.bytes_sent  # before restarts republish

    # Lifecycle tail on the mergeable cluster; accuracy also on the
    # unmergeable one (same data, same sweep).
    model = {doc["id"]: doc for doc in data[harness.DATASET]}
    tail, _ = common.lifecycle_tail(ctx, mergeable, model)
    truth = harness.SortedValues(model, "value")
    queries = workloads.range_queries(harness.SWEEP_QUERIES)
    l1_unmergeable = harness.sweep(unmergeable, queries, truth)[0]

    requests = sum(len(schedule) for schedule in schedules.values())
    batch_ms = sorted(
        latency * 1e3 for sample in samples for latency in sample["latencies"]
    )
    ctx.end_to_end.update(tail)
    ctx.end_to_end.update(
        {
            "setup_s": setup_s,
            "ingest_records_per_s": harness.median(
                records / sample["seconds"][MERGEABLE] for sample in samples
            ),
            "stats_overhead_ratio": common.overhead_ratio(
                [sample["seconds"] for sample in samples], [MERGEABLE, UNMERGEABLE]
            ),
            "ingest_p50_ms": harness.percentile(batch_ms, 0.5),
            # The request mix is bimodal once the cache spills (a merged-cache
            # hit costs ~1% of a miss), and a median that straddles two modes
            # does not repeat; the typical request is a fits-phase one.  The
            # spills phase moves estimates_per_s.
            "estimate_p50_us": harness.median(fits_latencies) * 1e6,
            "estimates_per_s": harness.median(requests / seconds for seconds in rounds),
            "estimate_l1_error": (tail["estimate_l1_error"] + l1_unmergeable) / 2,
            "stats_wire_bytes_per_record": wire_bytes / records,
            "write_amplification": next(iter(writes))[1] / size,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
    )
    ctx.notes["rounds"] = len(rounds)
    ctx.notes["requests_per_round"] = requests
    ctx.notes["spills_capacity_bytes"] = capacity["spills"]
    ctx.notes["components_per_partition"] = components
    if not ctx.tracing:
        return

    def median_us(values: list[float]) -> float:
        return harness.median(values) * 1e6 if values else 0.0

    extras = dict(readings)
    for phase in PHASES:
        notes = per_phase[phase]
        extras[f"core.cache.hit_ratio.{phase}"] = sum(notes["hits"]) / max(
            sum(notes["hits"]) + sum(notes["misses"]), 1
        )
    both = {
        key: per_phase["fits"][key] + per_phase["spills"][key]
        for key in ("warm", "cold", "ndv")
    }
    extras["core.estimator.warm_us"] = median_us(both["warm"])
    extras["core.estimator.cold_us"] = median_us(both["cold"])
    extras["core.estimator.ndv_us"] = median_us(both["ndv"])
    extras["trace.overhead_ratio"] = harness.median(traced_rounds) / harness.median(rounds)
    extras["trace.attributed_share"] = common.attributed_share(sections)
    ordered_us = sorted(latency * 1e6 for latency in latencies)
    extras.update(common.client_diagnostics(ctx, batch_ms, ordered_us))
    ctx.per_layer.update(layers.assemble(ctx.workload, sections, extras, ctx.tracer))
