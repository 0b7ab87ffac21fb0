"""``htap_openloop``: writes beside reads, open loop (Luo & Carey).

After a preload, thread W sends ``insert_many`` batches of 32 at a fixed
record rate and thread E sends ``EstimateService.estimate`` requests at a
fixed request rate, both on a schedule computed before the clock starts,
against a durable cluster whose flushes and merges run on the ``threads``
scheduler.  Every operation is timed from its *due* time, so a stall
charges every request queued behind it; a shed or timed-out estimate
counts as failed.  This is the only workload where scheduler lanes,
backpressure stalls, the GIL hand-off between maintenance and serving,
and the admission queue do the work.  Rates are absolute -- never
calibrated to the commit under test -- so parent and change see the same
load.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from repro.cluster.serving import EstimateService
from repro.errors import OverloadedError
from repro.util.retry import RetryPolicy

from e2ebench import harness, layers, workloads
from e2ebench.harness import Context
from e2ebench.scenarios import common

CONFIGS = ("nostats", harness.STATS_ON)
BATCH = 32
MIN_SEND_GAP_S = 0.0002
"""Least pause between two sends of one generator.  A generator catching
up after a stall would otherwise call ``insert_many`` back to back; the
writer then re-takes the dataset's DML lock faster than a flush task
blocked on that lock can wake, and once four rotated memtables pile up
behind that task the writer waits on backpressure *while holding the
lock* -- the program hangs (README, "Known hazard").  0.2 ms is two
orders of magnitude below the send interval and lets the waiter in."""
SPIN_EVERY_SENDS = 10
SPIN_SLACK_S = 0.004
"""A spin takes 1.5-2.5 ms; with this much slack it never delays a send."""
SERVICE_QUEUE = 64
SERVICE_TIMEOUT_S = 5.0
W_THREAD, E_THREAD = "e2ebench-writer", "e2ebench-estimator"

WHY = (
    "fixed-rate insert batches beside fixed-rate estimate requests on the "
    "threads scheduler, timed from due time: stalls, GIL hand-off and the "
    "admission queue do the work; rates are absolute"
)


def _build(ctx: Context, config: str) -> Any:
    cluster = harness.build_cluster(config, durable=True, scheduler="threads")
    harness.create_orders(cluster, memtable_capacity=ctx.scale.htap_memtable)
    return cluster


def _settle(cluster: Any) -> None:
    cluster.flush_all(harness.DATASET)
    cluster.drain_maintenance()
    cluster.recover_statistics()


def _preload(cluster: Any, docs: list[dict[str, Any]]) -> None:
    """Closed-loop batches (with the send gap) through the write path the
    window will use, then a full drain."""
    for start in range(0, len(docs), BATCH):
        cluster.insert_many(harness.DATASET, docs[start : start + BATCH])
        time.sleep(MIN_SEND_GAP_S)
    _settle(cluster)


def _setup(ctx: Context, samples: list[dict[str, float]], stream_docs: int, kept_before: list):
    """Input generation plus the preload of a no-statistics twin and of
    the stats-on cluster the window runs against."""
    while kept_before:  # an earlier repetition's cluster still owns threads
        kept_before.pop().shutdown()
    docs = workloads.documents(ctx.seed, ctx.scale.htap_preload + stream_docs)
    preload = docs[: ctx.scale.htap_preload]
    seconds = {}
    writes = set()
    kept = None
    mark = ctx.speed.mark()
    for config in CONFIGS:
        cluster = _build(ctx, config)
        seconds[config] = ctx.speed.clock(lambda: _preload(cluster, preload))
        io = harness.io_totals(cluster)
        writes.add((io.pages_written, io.bytes_written))
        if config == harness.STATS_ON:
            kept = cluster
        else:
            cluster.shutdown()
    ctx.oracle.check(
        len(writes) == 1, f"preload page/byte writes differ with statistics on: {writes}"
    )
    # The repetition at reference speed: one slowdown for its two preloads.
    slowdown = ctx.speed.slowdown(mark)
    samples.append({config: s / slowdown for config, s in seconds.items()})
    kept_before.append(kept)
    return docs, kept


class _Window:
    """One open-loop window against one cluster."""

    def __init__(self, ctx: Context, cluster: Any, docs: list[dict[str, Any]], seconds: float):
        scale = ctx.scale
        self.cluster = cluster
        self.batches = [docs[i : i + BATCH] for i in range(0, len(docs), BATCH)]
        self.write_due = workloads.due_times(scale.htap_write_rate, seconds, BATCH)[
            : len(self.batches)
        ]
        self.estimate_due = workloads.due_times(scale.htap_estimate_rate, seconds)
        rng = random.Random(f"htap:{ctx.seed}")
        lo_bound, hi_bound = workloads.VALUE_DOMAIN
        self.queries = [
            (lo, min(lo + rng.randint(1, 8192), hi_bound))
            for lo in (rng.randint(lo_bound, hi_bound // 4) for _ in self.estimate_due)
        ]
        self.service = EstimateService(
            cluster,
            max_queue_depth=SERVICE_QUEUE,
            workers=1,
            default_timeout=SERVICE_TIMEOUT_S,
            retry_policy=RetryPolicy.immediate(max_attempts=3),
        )
        self.tracer = ctx.tracer if ctx.tracer is not None and ctx.tracer.active else None
        self.write_latency: list[float] = []
        self.estimate_latency: list[float] = []
        self.late: list[float] = []
        self.shed = 0
        self.speed = harness.SpeedMeter()
        self.errors: list[BaseException] = []

    def _pace(self, due: float) -> None:
        """Sleep until ``due``; behind schedule, still leave the send gap."""
        wait = due - time.perf_counter()
        time.sleep(wait if wait > MIN_SEND_GAP_S else MIN_SEND_GAP_S)
        self.late.append(max(time.perf_counter() - due, 0.0))

    def _write(self, start: float) -> None:
        try:
            sends = list(zip(self.write_due, self.batches))
            for number, (offset, batch) in enumerate(sends):
                due = start + offset
                self._pace(due)
                if self.tracer is not None:
                    self.tracer.set_op(f"w{number}")
                self.cluster.insert_many(harness.DATASET, batch)
                self.write_latency.append(time.perf_counter() - due)
                # The writer idles most of each send interval.  After every
                # tenth send it spins once in that slack, so the window's
                # slowdown is sampled where the measured work runs: on this
                # thread, beside the maintenance and serving threads.  Only
                # the two medians are divided by it (see run()).
                if number % SPIN_EVERY_SENDS == 0 and number + 1 < len(sends):
                    slack = start + sends[number + 1][0] - time.perf_counter()
                    if slack > SPIN_SLACK_S:
                        self.speed.sample(1)
        except BaseException as exc:  # surfaced by run() on the main thread
            self.errors.append(exc)

    def _estimate(self, start: float) -> None:
        try:
            for number, (offset, (lo, hi)) in enumerate(zip(self.estimate_due, self.queries)):
                due = start + offset
                self._pace(due)
                if self.tracer is not None:
                    self.tracer.set_op(f"e{number}")
                try:
                    self.service.estimate(
                        "optimizer", harness.DATASET, harness.SWEEP_INDEX, lo, hi
                    )
                    self.estimate_latency.append(time.perf_counter() - due)
                except OverloadedError:
                    self.shed += 1
        except BaseException as exc:
            self.errors.append(exc)

    def run(self) -> dict[str, float]:
        """Run both generators to the end of their schedules, then settle;
        returns wall, CPU and settle seconds and the writer's slowdown."""
        start = time.perf_counter() + 0.05
        cpu_started = time.process_time()
        threads = [
            threading.Thread(target=self._write, args=(start,), name=W_THREAD),
            threading.Thread(target=self._estimate, args=(start,), name=E_THREAD),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_started
        settle_started = time.perf_counter()
        _settle(self.cluster)
        settle = time.perf_counter() - settle_started
        self.service.shutdown()
        if self.errors:
            raise self.errors[0]
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "settle_s": settle,
            "slowdown": self.speed.slowdown(),
        }

    def missed_limit(self) -> tuple[int, int]:
        """Write batches and answered estimates acknowledged more than
        ``ON_TIME_S`` after they were due."""
        limit = harness.ON_TIME_S
        return (
            sum(1 for latency in self.write_latency if latency > limit),
            sum(1 for latency in self.estimate_latency if latency > limit),
        )


def run(ctx: Context) -> None:
    oracle = ctx.oracle
    scale = ctx.scale
    # A traced run splits its seconds into an untraced reference window
    # and a traced window of the same schedule on a fresh cluster.
    window_s = ctx.seconds / 2 if ctx.tracing else ctx.seconds
    stream_docs = int(window_s * scale.htap_write_rate / BATCH) * BATCH  # whole batches
    samples: list[dict[str, float]] = []
    kept: list[Any] = []
    (docs, cluster), setup_s = common.repeated_setup(
        ctx, lambda: _setup(ctx, samples, stream_docs, kept)
    )
    stream = docs[scale.htap_preload :]
    size = harness.user_bytes(docs)

    client = _Window(ctx, cluster, stream, window_s)  # the untraced window
    timing = client.run()
    traced_timing, window, section = timing, client, None
    if ctx.tracing:
        # The traced window: same schedule, fresh cluster, wrappers on from
        # cluster construction (handlers and scheduler tasks are wrapped at
        # registration and submission).
        cluster.shutdown()
        with ctx.tracer.installed():
            cluster = _build(ctx, harness.STATS_ON)
            _preload(cluster, docs[: scale.htap_preload])
            window = _Window(ctx, cluster, stream, window_s)
            before = layers.probe(ctx.tracer, (W_THREAD, E_THREAD))
            traced_timing = window.run()
            after = layers.probe(ctx.tracer, (W_THREAD, E_THREAD))
            section = layers.Section.between(before, after, traced_timing["wall_s"])

    # The client's view -- every end-to-end metric and client.* diagnostic
    # -- is the untraced window's; counts and readings are read off the
    # cluster that ran last.
    late_writes, late_estimates = client.missed_limit()
    oracle.ops(len(client.write_latency), 0, "insert batches", late=late_writes)
    oracle.ops(
        len(client.estimate_due), client.shed,
        "estimate requests (shed or timed out)", late=late_estimates,
    )
    records = len(docs)
    model = {doc["id"]: doc for doc in docs}
    sent_bytes = cluster.network.stats.bytes_sent
    written = harness.io_totals(cluster).bytes_written
    readings = layers.cluster_readings(cluster, size) if ctx.tracing else {}
    queue_peak = window.service.peak_queue_depth

    # Lifecycle tail: sweep, oracle, restart + recovery on the window's
    # cluster (the threads scheduler is rebuilt by restart_nodes); a traced
    # run traces the first recovery.
    tail, recovery = common.lifecycle_tail(ctx, cluster, model, trace_recovery=True)
    cluster.shutdown()

    write_ms = sorted(latency * 1e3 for latency in client.write_latency)
    estimate_us = sorted(latency * 1e6 for latency in client.estimate_latency)
    ctx.end_to_end.update(tail)
    ctx.end_to_end.update(
        {
            "setup_s": setup_s,
            "ingest_records_per_s": len(stream) / (timing["wall_s"] + timing["settle_s"]),
            "stats_overhead_ratio": common.overhead_ratio(samples, [harness.STATS_ON]),
            # The median op from due time is a service time and follows the
            # machine's speed (the writer's spins correlate 0.95 and 0.8
            # with these medians over ten runs).  What a change does to the
            # threads' contention shows in ontime_op_ratio, which like the
            # two rates (the schedule's) is as clocked.
            "ingest_p50_ms": harness.percentile(write_ms, 0.5) / timing["slowdown"],
            "estimate_p50_us": harness.percentile(estimate_us, 0.5) / timing["slowdown"],
            "estimates_per_s": len(estimate_us) / timing["wall_s"],
            "stats_wire_bytes_per_record": sent_bytes / records,
            "write_amplification": written / size,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
    )
    ctx.notes["window_s"] = window_s
    ctx.notes["window_slowdown"] = timing["slowdown"]
    ctx.notes["write_rate_per_s"] = scale.htap_write_rate
    ctx.notes["estimate_rate_per_s"] = scale.htap_estimate_rate
    ctx.notes["cpu_share_of_window"] = timing["cpu_s"] / timing["wall_s"]
    if not ctx.tracing:
        return

    extras = dict(readings)
    extras["lsm.scheduler.settle_s"] = traced_timing["settle_s"]
    # Queue wait plus hand-off: the callers' time inside the service minus
    # the workers' time inside the master.
    traced = section.traced
    zero = [0, 0.0, 0.0, 0]
    extras["cluster.serving.estimate.self_s"] = (
        traced.get("cluster.serving.estimate", zero)[layers.TOTAL]
        - traced.get("cluster.master.estimate", zero)[layers.TOTAL]
    )
    extras["cluster.serving.queue_peak"] = queue_peak
    extras["synopses.hll.overhead_ratio"] = ctx.end_to_end["stats_overhead_ratio"]
    # Open loop: the wall is the schedule's, so the cost of tracing is the
    # extra CPU the same schedule burned.
    extras["trace.overhead_ratio"] = traced_timing["cpu_s"] / timing["cpu_s"]
    extras["trace.attributed_share"] = common.attributed_share([section], drivers=2)
    extras.update(
        common.client_diagnostics(
            ctx,
            write_ms,
            estimate_us,
            sorted(late * 1e3 for late in client.late),
            from_due=True,
        )
    )
    ctx.per_layer.update(
        layers.assemble(ctx.workload, [section], extras, ctx.tracer, recovery)
    )
