"""The `repro bench` perf suite: named microbenchmarks + regression gate.

The paper's headline claim is that statistics collection is cheap at
ingestion time (Fig. 2), so the speed of the ingestion/flush/merge hot
path is a *correctness property* of this repo -- and properties need
machine-checkable artifacts.  This module provides:

* eleven named microbenchmarks covering the hot paths the batched
  ingestion work targets::

      ingest-throughput   bulkload stream -> component, stats attached
                          (the columnar chunk path, docs/DATAPATH.md),
                          plus Fig. 2a's stats-on / NoStats ratio per
                          paper family
      flush-latency       memtable -> disk component
      merge-throughput    merge cursor -> merged component
      estimate-latency    Algorithm 2 over the catalog (cache warm)
      network-ship        synopsis publish through the cluster wire
      wal-replay          durable append path + WAL recovery replay
      concurrent-ingest   DML thread with flush/merge on background
                          workers (the overlap ratio proves ingestion
                          is never blocked for a merge's full duration)
      stability           sustained multi-writer traffic with pacing
                          and fair dispatch armed (the tail-latency
                          scenario behind the stall budget)
      memory-budget       N writers under one MemoryArbiter given half
                          the memory their memtables would statically
                          claim (the constrained-budget gate,
                          docs/MEMORY.md)
      serving             N feed-writer threads streaming into the
                          cluster while M estimate clients hammer the
                          bounded EstimateService (the serving-layer
                          tail-latency scenario behind the
                          serve.latency.p99 budget)
      ndv                 HLL sketch build (columnar add_many), the
                          master's register-union fold, and the HBS
                          wire compression ratio (docs/SKETCHES.md)

* a schema-versioned JSON report (``BENCH_<timestamp>.json``) with
  median/p95 over N repetitions plus environment, seed and scale, so
  every perf claim is reproducible and diffable;
* :func:`compare_reports`, the CI regression gate: a report regresses
  against a baseline when any shared metric's median moves beyond a
  tolerance in its bad direction (lower for throughput, higher for
  latency).

Wall-clock numbers are hardware-bound; the ratio metrics (e.g.
``ndv.wire.compression_ratio``) are not, which is what makes a
committed baseline meaningful across runners (see docs/BENCHMARKING.md).
"""

from __future__ import annotations

import json
import platform
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.cluster.cluster import LSMCluster
from repro.cluster.feeds import (
    DatasetFeedAdapter,
    FeedCursorStore,
    ReplayableStreamFeed,
    ResumableFeedConsumer,
)
from repro.cluster.network import Network
from repro.cluster.serving import EstimateService
from repro.core.config import DEFAULT_NDV_PRECISION, StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.errors import BenchmarkError, OverloadedError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.events import EventBus
from repro.lsm.memory import MemoryArbiter, record_footprint
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.pacing import MergePacer
from repro.lsm.record import Record
from repro.lsm.scheduler import make_scheduler
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.synopses.factory import create_builder
from repro.synopses.hll import HyperLogLogBuilder
from repro.types import Domain
from repro.util.retry import RetryPolicy

__all__ = [
    "SCHEMA_VERSION",
    "PerfScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "BENCHMARK_NAMES",
    "SUITES",
    "STABILITY_STALL_BUDGET_SECONDS",
    "MEMORY_BUDGET_UTILIZATION_CEILING",
    "SERVE_P99_BUDGET_SECONDS",
    "SERVE_STALL_BUDGET_SECONDS",
    "run_suite",
    "write_report",
    "report_filename",
    "load_report",
    "compare_reports",
    "check_budgets",
    "format_report",
    "format_regressions",
]

SCHEMA_VERSION = 1
"""Bumped whenever the report layout changes incompatibly."""


@dataclass(frozen=True)
class PerfScale:
    """Workload sizes of one suite run (recorded in the report)."""

    ingest_records: int
    flush_records: int
    merge_components: int
    merge_records_per_component: int
    estimate_queries: int
    ship_messages: int
    wal_records: int
    concurrent_records: int
    repetitions: int
    stability_writers: int
    stability_records: int
    memory_writers: int
    memory_records: int
    serving_writers: int
    serving_records: int
    serving_clients: int
    serving_requests: int
    ndv_records: int
    ndv_union_sketches: int

    def as_dict(self) -> dict[str, int]:
        return {
            "ingest_records": self.ingest_records,
            "flush_records": self.flush_records,
            "merge_components": self.merge_components,
            "merge_records_per_component": self.merge_records_per_component,
            "estimate_queries": self.estimate_queries,
            "ship_messages": self.ship_messages,
            "wal_records": self.wal_records,
            "concurrent_records": self.concurrent_records,
            "repetitions": self.repetitions,
            "stability_writers": self.stability_writers,
            "stability_records": self.stability_records,
            "memory_writers": self.memory_writers,
            "memory_records": self.memory_records,
            "serving_writers": self.serving_writers,
            "serving_records": self.serving_records,
            "serving_clients": self.serving_clients,
            "serving_requests": self.serving_requests,
            "ndv_records": self.ndv_records,
            "ndv_union_sketches": self.ndv_union_sketches,
        }


QUICK_SCALE = PerfScale(
    ingest_records=24_000,
    flush_records=4_096,
    merge_components=4,
    merge_records_per_component=4_096,
    estimate_queries=200,
    ship_messages=300,
    wal_records=8_000,
    concurrent_records=8_000,
    repetitions=3,
    stability_writers=3,
    stability_records=2_500,
    memory_writers=3,
    memory_records=2_500,
    serving_writers=2,
    serving_records=1_500,
    serving_clients=3,
    serving_requests=60,
    ndv_records=30_000,
    ndv_union_sketches=64,
)
"""The CI-friendly preset behind ``repro bench --quick`` (seconds)."""

FULL_SCALE = PerfScale(
    ingest_records=120_000,
    flush_records=16_384,
    merge_components=6,
    merge_records_per_component=16_384,
    estimate_queries=1_000,
    ship_messages=1_500,
    wal_records=32_000,
    concurrent_records=24_000,
    repetitions=5,
    stability_writers=4,
    stability_records=8_000,
    memory_writers=4,
    # Bloom and resident bytes grow with the data and nothing evicts
    # them: past ~4 500 per writer they alone exceed the fixed budget.
    memory_records=4_000,
    serving_writers=3,
    serving_records=4_000,
    serving_clients=4,
    serving_requests=200,
    ndv_records=120_000,
    ndv_union_sketches=256,
)
"""The default preset (a minute or two)."""

_DOMAIN = Domain(0, 2**20 - 1)
_INGEST_DOMAIN = Domain(0, 2**30 - 1)
_OVERHEAD_FAMILIES = (
    SynopsisType.EQUI_WIDTH,
    SynopsisType.EQUI_HEIGHT,
    SynopsisType.WAVELET,
)
_VALUE_DOMAIN = Domain(0, 4_095)
_BUDGET = 64

# metric name -> (unit, direction); direction names the GOOD direction.
METRIC_SPECS: dict[str, tuple[str, str]] = {
    "ingest.throughput.columnar": ("records/s", "higher"),
    "ingest.stats_overhead.equi_width": ("ratio", "lower"),
    "ingest.stats_overhead.equi_height": ("ratio", "lower"),
    "ingest.stats_overhead.wavelet": ("ratio", "lower"),
    "flush.latency": ("s", "lower"),
    "flush.throughput": ("records/s", "higher"),
    "merge.throughput": ("records/s", "higher"),
    "estimate.latency": ("s", "lower"),
    "ship.throughput": ("messages/s", "higher"),
    "wal.append.throughput": ("records/s", "higher"),
    "wal.replay.throughput": ("records/s", "higher"),
    "concurrent.ingest.throughput": ("records/s", "higher"),
    "concurrent.background_speedup": ("ratio", "higher"),
    "concurrent.ingest_overlap": ("ratio", "higher"),
    "stability.ingest.throughput": ("records/s", "higher"),
    "ingest.latency.p99": ("s", "lower"),
    "ingest.latency.p999": ("s", "lower"),
    "ingest.stall.max_window": ("s", "lower"),
    "memory.ingest.throughput": ("records/s", "higher"),
    "memory.peak.utilization": ("ratio", "lower"),
    "memory.ingest.p99": ("s", "lower"),
    "memory.stall.max_window": ("s", "lower"),
    "serving.estimate.throughput": ("requests/s", "higher"),
    "serving.feed.throughput": ("records/s", "higher"),
    "serve.latency.p99": ("s", "lower"),
    "serve.stall.max_window": ("s", "lower"),
    "serve.rejected": ("requests", "lower"),
    "feed.resume.replayed": ("records", "higher"),
    "ndv.build.throughput": ("records/s", "higher"),
    "ndv.union.latency": ("s", "lower"),
    "ndv.wire.compression_ratio": ("ratio", "higher"),
}

BENCHMARK_NAMES = (
    "ingest-throughput",
    "flush-latency",
    "merge-throughput",
    "estimate-latency",
    "network-ship",
    "wal-replay",
    "concurrent-ingest",
    "stability",
    "memory-budget",
    "serving",
    "ndv",
)
"""The named microbenchmarks, in execution order."""

# metric name -> the benchmark that produces it.  compare_reports uses
# this to tell "the current run skipped that benchmark" (fine: partial
# suites like ``--suite stability`` gate only what they measured) from
# "the benchmark ran but stopped emitting the metric" (a regression).
METRIC_SOURCES: dict[str, str] = {
    "ingest.throughput.columnar": "ingest-throughput",
    "ingest.stats_overhead.equi_width": "ingest-throughput",
    "ingest.stats_overhead.equi_height": "ingest-throughput",
    "ingest.stats_overhead.wavelet": "ingest-throughput",
    "flush.latency": "flush-latency",
    "flush.throughput": "flush-latency",
    "merge.throughput": "merge-throughput",
    "estimate.latency": "estimate-latency",
    "ship.throughput": "network-ship",
    "wal.append.throughput": "wal-replay",
    "wal.replay.throughput": "wal-replay",
    "concurrent.ingest.throughput": "concurrent-ingest",
    "concurrent.background_speedup": "concurrent-ingest",
    "concurrent.ingest_overlap": "concurrent-ingest",
    "stability.ingest.throughput": "stability",
    "ingest.latency.p99": "stability",
    "ingest.latency.p999": "stability",
    "ingest.stall.max_window": "stability",
    "memory.ingest.throughput": "memory-budget",
    "memory.peak.utilization": "memory-budget",
    "memory.ingest.p99": "memory-budget",
    "memory.stall.max_window": "memory-budget",
    "serving.estimate.throughput": "serving",
    "serving.feed.throughput": "serving",
    "serve.latency.p99": "serving",
    "serve.stall.max_window": "serving",
    "serve.rejected": "serving",
    "feed.resume.replayed": "serving",
    "ndv.build.throughput": "ndv",
    "ndv.union.latency": "ndv",
    "ndv.wire.compression_ratio": "ndv",
}

SUITES: dict[str, tuple[str, ...]] = {
    "all": BENCHMARK_NAMES,
    "stability": ("stability",),
    "memory-budget": ("memory-budget",),
    "serving": ("serving",),
    "ndv": ("ndv",),
}
"""Named benchmark subsets for ``repro bench --suite``."""

STABILITY_STALL_BUDGET_SECONDS = 0.5
"""Hard ceiling on a single ingest stall window in the stability
scenario: no insert may ever block for more than this, regardless of
how much merge work is queued behind it (docs/BENCHMARKING.md)."""

MEMORY_BUDGET_UTILIZATION_CEILING = 1.0
"""Hard ceiling on ``memory.peak.utilization`` in the memory-budget
scenario: the arbiter's accounted peak must never exceed the configured
budget (docs/MEMORY.md)."""

SERVE_P99_BUDGET_SECONDS = 0.5
"""Hard ceiling on ``serve.latency.p99`` in the serving scenario: the
client-visible p99 (queue wait included) of estimate requests served
while feed writers stream in the background (docs/BENCHMARKING.md)."""

SERVE_STALL_BUDGET_SECONDS = 2.0
"""Hard ceiling on the single worst client-visible estimate latency:
one request may wait out a full queue drain, but a multi-second freeze
means the service deadlocked or stopped shedding."""

_BUDGET_CEILINGS: dict[str, float] = {
    "ingest.stall.max_window": STABILITY_STALL_BUDGET_SECONDS,
    "memory.peak.utilization": MEMORY_BUDGET_UTILIZATION_CEILING,
    "memory.stall.max_window": STABILITY_STALL_BUDGET_SECONDS,
    "serve.latency.p99": SERVE_P99_BUDGET_SECONDS,
    "serve.stall.max_window": SERVE_STALL_BUDGET_SECONDS,
}


class _NullSink:
    """Statistics sink that discards publishes (collector cost only)."""

    def publish(self, *_args: Any) -> None:
        pass

    def retract(self, *_args: Any) -> None:
        pass


def _attach_collector(
    tree: LSMTree,
    domain: Domain,
    synopsis_type: SynopsisType = SynopsisType.EQUI_WIDTH,
) -> None:
    """Subscribe a collector of ``synopsis_type`` to ``tree``'s event bus."""
    from repro.core.collector import StatisticsCollector

    collector = StatisticsCollector(
        StatisticsConfig(synopsis_type, budget=_BUDGET), _NullSink()
    )
    collector.register_index(tree.name, domain)
    tree.event_bus.subscribe(collector)


def _bench_ingest(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Bulkload a sorted record stream through a tree (the columnar
    chunk path, docs/DATAPATH.md): throughput with an equi-width
    collector attached, and Fig. 2a's overhead ratios -- each of the
    paper's three families against the same bulkload with no collector.

    The ratios divide two best-of-N times from the same process, taken
    in alternating passes after a warm-up, so the machine's speed
    cancels; the keys are sparse over a 2^30 domain so the wavelet
    builder's gap filling, its dominant cost, is exercised.
    """
    n = scale.ingest_records
    stride = _INGEST_DOMAIN.length // n
    records = [
        Record.matter(i * stride + (seed + i * 7_919) % stride) for i in range(n)
    ]

    def one(count: int, synopsis_type: SynopsisType | None) -> float:
        tree = LSMTree("bench.ingest", SimulatedDisk(), event_bus=EventBus())
        if synopsis_type is not None:
            _attach_collector(tree, _INGEST_DOMAIN, synopsis_type)
        stream = iter(records[:count])
        started = timer()
        tree.bulkload(stream, expected_records=count)
        return max(timer() - started, 1e-9)

    configurations = (None, *_OVERHEAD_FAMILIES)
    best = dict.fromkeys(configurations, float("inf"))
    # One small untimed pass per configuration warms allocator/bytecode
    # caches so the first timed pass is not penalised for running cold.
    for synopsis_type in configurations:
        one(min(2_000, n), synopsis_type)
    # Keep the best of two passes: the minimum time is the least
    # noise-contaminated observation.
    for _round in range(2):
        for synopsis_type in configurations:
            best[synopsis_type] = min(best[synopsis_type], one(n, synopsis_type))
    results = {"ingest.throughput.columnar": n / best[SynopsisType.EQUI_WIDTH]}
    for synopsis_type in _OVERHEAD_FAMILIES:
        results[f"ingest.stats_overhead.{synopsis_type.value}"] = (
            best[synopsis_type] / best[None]
        )
    return results


def _bench_flush(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Fill the memtable, then time the flush (memtable -> component)."""
    n = scale.flush_records
    tree = LSMTree(
        "bench.flush",
        SimulatedDisk(),
        memtable_capacity=n + 1,
        event_bus=EventBus(),
        auto_flush=False,
    )
    _attach_collector(tree, _DOMAIN)
    # A seeded permutation: flushes sort, so give them real work.
    step = 514_229  # coprime with any power of two
    for i in range(n):
        tree.upsert((seed + i * step) % _DOMAIN.length)
    started = timer()
    tree.flush()
    elapsed = max(timer() - started, 1e-9)
    return {"flush.latency": elapsed, "flush.throughput": n / elapsed}


def _bench_merge(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Time one merge of ``merge_components`` flushed components."""
    per = scale.merge_records_per_component
    parts = scale.merge_components
    tree = LSMTree(
        "bench.merge",
        SimulatedDisk(),
        memtable_capacity=per * parts + 1,
        event_bus=EventBus(),
        auto_flush=False,
    )
    _attach_collector(tree, _DOMAIN)
    for part in range(parts):
        for i in range(per):
            # Interleaved keys so the merge cursor actually interleaves.
            tree.upsert(part + i * parts)
        tree.flush()
    total = per * parts
    started = timer()
    tree.merge(tree.components)
    elapsed = max(timer() - started, 1e-9)
    return {"merge.throughput": total / elapsed}


def _bench_estimate(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Median warm-path estimate latency over the catalogued synopses."""
    dataset = Dataset(
        "bench",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=_DOMAIN,
        indexes=[IndexSpec("value_idx", "value", _VALUE_DOMAIN)],
        memtable_capacity=2_048,
    )
    manager = StatisticsManager(
        StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=_BUDGET)
    )
    manager.attach(dataset)
    dataset.bulkload(
        {"id": pk, "value": (pk * 13) % _VALUE_DOMAIN.length}
        for pk in range(4_096)
    )
    for pk in range(4_096, 6_144):
        dataset.insert({"id": pk, "value": (pk * 7) % _VALUE_DOMAIN.length})
    dataset.flush()
    manager.estimate(dataset, "value_idx", 0, 255)  # warm the merged cache
    samples = []
    span = _VALUE_DOMAIN.length // 4
    for q in range(scale.estimate_queries):
        lo = (seed + q * 97) % (_VALUE_DOMAIN.length - span)
        started = timer()
        manager.estimate(dataset, "value_idx", lo, lo + span)
        samples.append(timer() - started)
    return {"estimate.latency": statistics.median(samples)}


def _bench_ship(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Publish synopsis pairs through the (perfect) cluster wire."""
    from repro.cluster.node import NetworkStatisticsSink, RetryPolicy

    network = Network()
    received: list[Any] = []
    network.register("master", lambda source, message: received.append(message))
    sink = NetworkStatisticsSink(
        network,
        "node0",
        "master",
        partition_id=0,
        retry_policy=RetryPolicy.immediate(),
    )
    builder = create_builder(SynopsisType.EQUI_WIDTH, _VALUE_DOMAIN, _BUDGET, 0)
    builder.add_many(list(range(0, _VALUE_DOMAIN.length, 7)))
    synopsis = builder.build()
    messages = scale.ship_messages
    started = timer()
    for uid in range(messages):
        sink.publish("bench_index", uid, synopsis, synopsis)
    elapsed = max(timer() - started, 1e-9)
    assert len(received) == messages
    return {"ship.throughput": messages / elapsed}


def _bench_wal_replay(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Time the durable write path (WAL append + memtable) and the
    WAL-replay half of recovery over the same records.

    The memtable capacity exceeds the record count so nothing flushes:
    every record stays in the log and recovery replays all of them,
    making both throughputs functions of ``wal_records`` alone.
    """
    n = scale.wal_records
    disk = SimulatedDisk()

    def build(recover: bool) -> Dataset:
        return Dataset(
            "bench.wal",
            disk,
            primary_key="id",
            primary_domain=_DOMAIN,
            memtable_capacity=n + 1,
            durable=True,
            recover=recover,
        )

    dataset = build(recover=False)
    step = 514_229  # coprime with any power of two
    started = timer()
    for i in range(n):
        dataset.insert({"id": (seed + i * step) % _DOMAIN.length})
    append_elapsed = max(timer() - started, 1e-9)

    started = timer()
    recovered = build(recover=True)
    recovered.complete_recovery()
    replay_elapsed = max(timer() - started, 1e-9)
    assert recovered.count_records() == n
    return {
        "wal.append.throughput": n / append_elapsed,
        "wal.replay.throughput": n / replay_elapsed,
    }


def _bench_concurrent_ingest(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Ingest a merge-heavy workload twice -- maintenance inline (sync
    scheduler) and on background workers (threads scheduler) -- timing
    only the DML thread.

    ``concurrent.ingest_overlap`` is the acceptance criterion for the
    background scheduler: ``1 - max_stall / merge_seconds``, where
    ``max_stall`` is the longest single insert call observed in the
    concurrent run and ``merge_seconds`` the total merge wall-time that
    ran behind it.  A positive value means no insert ever waited for
    the full duration of the run's merging; near 1.0 means merges and
    ingestion overlapped almost completely.
    """
    n = scale.concurrent_records
    step = 514_229  # coprime with any power of two

    def one(mode: str) -> tuple[float, float, float]:
        # A private registry per run: the merge-seconds histogram must
        # reflect this run's merges only, and instruments bind at
        # construction time.
        registry = MetricsRegistry()
        with use_registry(registry):
            scheduler = make_scheduler(mode)
            dataset = Dataset(
                "bench.concurrent",
                SimulatedDisk(),
                primary_key="id",
                primary_domain=_DOMAIN,
                memtable_capacity=256,
                merge_policy=ConstantMergePolicy(max_components=4),
                scheduler=scheduler,
            )
            max_stall = 0.0
            started = timer()
            for i in range(n):
                op_started = timer()
                dataset.insert({"id": (seed + i * step) % _DOMAIN.length})
                max_stall = max(max_stall, timer() - op_started)
            elapsed = max(timer() - started, 1e-9)
            dataset.flush()
            dataset.drain_maintenance()
            scheduler.shutdown()
            histograms = registry.snapshot()["histograms"]
            merge_entry = histograms.get("lsm.merge.seconds", {})
        return elapsed, max_stall, merge_entry.get("sum", 0.0)

    sync_elapsed, _, _ = one("sync")
    threads_elapsed, max_stall, merge_seconds = one("threads")
    return {
        "concurrent.ingest.throughput": n / threads_elapsed,
        "concurrent.background_speedup": sync_elapsed / threads_elapsed,
        "concurrent.ingest_overlap": 1.0 - max_stall / max(merge_seconds, 1e-9),
    }


def _bench_stability(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """Sustained multi-writer traffic under the threads scheduler with
    merge pacing and fair dispatch armed -- the tail-latency scenario.

    ``stability_writers`` threads each drive their own dataset; all
    datasets share one bounded worker pool (distinct maintenance lanes)
    and one merge pacer, so merges of one dataset compete with the
    flushes of the others -- exactly the contention fair dispatch and
    pacing exist to resolve.  Every insert is timed individually:

    * ``ingest.latency.p99`` / ``.p999`` -- the per-op latency tail
      across all writers;
    * ``ingest.stall.max_window`` -- the single worst insert, i.e. the
      longest window any writer was frozen.  :func:`check_budgets`
      fails the run when it exceeds
      :data:`STABILITY_STALL_BUDGET_SECONDS`.
    """
    writers = scale.stability_writers
    per_writer = scale.stability_records
    step = 514_229  # coprime with any power of two
    registry = MetricsRegistry()
    with use_registry(registry):
        scheduler = make_scheduler("threads")
        # Budget roughly half the measured quick-scale merge throughput:
        # low enough that merges actually park on the token bucket, high
        # enough that maintenance keeps up with the writers.
        pacer = MergePacer(rate=50_000, burst=2_048)
        datasets = [
            Dataset(
                f"bench.stability.{writer}",
                SimulatedDisk(),
                primary_key="id",
                primary_domain=_DOMAIN,
                memtable_capacity=256,
                merge_policy=ConstantMergePolicy(max_components=4),
                scheduler=scheduler,
                maintenance_lane=f"stability.{writer}",
                merge_pacer=pacer,
            )
            for writer in range(writers)
        ]
        latencies: list[list[float]] = [[] for _ in range(writers)]

        def run_writer(writer: int) -> None:
            dataset = datasets[writer]
            observed = latencies[writer].append
            for i in range(per_writer):
                op_started = timer()
                dataset.insert({"id": (seed + writer + i * step) % _DOMAIN.length})
                observed(timer() - op_started)

        threads = [
            threading.Thread(target=run_writer, args=(writer,))
            for writer in range(writers)
        ]
        started = timer()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max(timer() - started, 1e-9)
        for dataset in datasets:
            dataset.flush()  # drain barrier
        scheduler.drain()
        scheduler.shutdown()
        histogram = registry.snapshot()["histograms"].get("ingest.op.seconds", {})
    total_ops = writers * per_writer
    assert histogram.get("count") == total_ops, (
        f"ingest.op.seconds saw {histogram.get('count')} ops, "
        f"expected {total_ops}"
    )
    flat = sorted(
        latency for per_writer_samples in latencies for latency in per_writer_samples
    )
    return {
        "stability.ingest.throughput": total_ops / elapsed,
        "ingest.latency.p99": _percentile(flat, 0.99),
        "ingest.latency.p999": _percentile(flat, 0.999),
        "ingest.stall.max_window": flat[-1],
    }


#: Memory-budget scenario memtable capacity (records).  Deliberately
#: larger than the arbiter will ever let a memtable grow: the scenario's
#: point is that arbitration -- not the static capacity -- bounds the
#: write arena.
_MEMORY_BENCH_CAPACITY = 512


def _bench_memory_budget(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """N concurrent writers under one :class:`MemoryArbiter` whose
    budget is *half* what the writers' fixed-capacity memtables would
    statically claim -- the constrained-budget gate (docs/MEMORY.md).

    Each writer drives its own dataset; all datasets share one bounded
    worker pool and the one arbiter, so every active memtable competes
    for the same write arena and arbitration-triggered early flushes
    are what keep the total inside the budget.  The op stream runs
    twice:

    * timed, one thread per writer, every insert timed individually --
      ``memory.ingest.throughput`` / ``memory.ingest.p99`` (the cost of
      running inside half the memory) and ``memory.stall.max_window``,
      the single worst insert, gated by the same stall budget as the
      stability scenario (pressure may flush early and wait on the
      immutable pool, but must never freeze a writer);
    * untimed, one DML thread (writers round-robin) under the seeded
      virtual scheduler -- ``memory.peak.utilization``, the arbiter's
      accounted peak over its budget; :func:`check_budgets` fails the
      run above :data:`MEMORY_BUDGET_UTILIZATION_CEILING` (= 1.0: the
      budget is a promise, not a suggestion).  Exact and hardware-free;
      the threaded peak also depends on how many writers seal at the
      same moment (docs/MEMORY.md, "check-then-seal").
    """
    writers = scale.memory_writers
    per_writer = scale.memory_records
    step = 514_229  # coprime with any power of two
    keys = [
        [(seed + writer + i * step) % _DOMAIN.length for i in range(per_writer)]
        for writer in range(writers)
    ]
    doc_bytes = record_footprint(Record.matter(0, {"id": 0}))
    budget = writers * _MEMORY_BENCH_CAPACITY * doc_bytes // 2

    def one_pass(mode: str, drive: Callable[[list[Dataset]], None]) -> int:
        """``drive`` fresh datasets under one fresh arbiter and settle;
        returns the arbiter's accounted peak."""
        registry = MetricsRegistry()
        with use_registry(registry):
            arbiter = MemoryArbiter(budget)
            scheduler = make_scheduler(mode, seed=seed)
            datasets = [
                Dataset(
                    f"bench.memory.{writer}",
                    SimulatedDisk(),
                    primary_key="id",
                    primary_domain=_DOMAIN,
                    memtable_capacity=_MEMORY_BENCH_CAPACITY,
                    merge_policy=ConstantMergePolicy(max_components=4),
                    scheduler=scheduler,
                    maintenance_lane=f"memory.{writer}",
                    memory_arbiter=arbiter,
                )
                for writer in range(writers)
            ]
            drive(datasets)
            for dataset in datasets:
                dataset.flush()  # drain barrier
            scheduler.drain()
            scheduler.shutdown()
        # Half the static arena must actually squeeze: a pass where no
        # early flush fired is not measuring arbitration at all.
        assert registry.snapshot()["counters"].get(
            "memory.pressure.early_flush", 0
        ), (
            "memory-budget scenario ran without a single arbitration-"
            "triggered early flush -- budget too generous for the workload"
        )
        return arbiter.peak_bytes()

    latencies: list[list[float]] = [[] for _ in range(writers)]
    elapsed = 0.0

    def threaded(datasets: list[Dataset]) -> None:
        nonlocal elapsed

        def run_writer(writer: int) -> None:
            dataset = datasets[writer]
            observed = latencies[writer].append
            for pk in keys[writer]:
                op_started = timer()
                dataset.insert({"id": pk})
                observed(timer() - op_started)

        threads = [
            threading.Thread(target=run_writer, args=(writer,))
            for writer in range(writers)
        ]
        started = timer()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max(timer() - started, 1e-9)

    def single_threaded(datasets: list[Dataset]) -> None:
        for round_keys in zip(*keys):
            for dataset, pk in zip(datasets, round_keys):
                dataset.insert({"id": pk})

    one_pass("threads", threaded)
    peak = one_pass("virtual", single_threaded)
    total_ops = writers * per_writer
    flat = sorted(
        latency for per_writer_samples in latencies for latency in per_writer_samples
    )
    return {
        "memory.ingest.throughput": total_ops / elapsed,
        "memory.peak.utilization": peak / budget,
        "memory.ingest.p99": _percentile(flat, 0.99),
        "memory.stall.max_window": flat[-1],
    }


#: Serving scenario fixtures.  The resume segment is sized so the kill
#: lands past one cursor checkpoint but before the next (checkpoint at
#: 64, applied mark at 100), making ``feed.resume.replayed`` a constant
#: of the scenario (36) rather than a timing artefact; the staged
#: shadow-service saturation likewise pins ``serve.rejected``.
_SERVING_PRELOAD = 512
_SERVING_RESUME_RECORDS = 100
_SERVING_RESUME_CHECKPOINT = 64
_SERVING_SHADOW_DEPTH = 8
_SERVING_SHADOW_OFFERS = 12
_SERVING_QUEUE_DEPTH = 64
_SERVING_WORKERS = 2


def _bench_serving(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """``serving_writers`` feed-consumer threads streaming into the
    cluster while ``serving_clients`` threads hammer the bounded
    :class:`~repro.cluster.serving.EstimateService` -- the serving
    layer's tail-latency scenario (docs/BENCHMARKING.md).

    Two deterministic, untimed preambles pin the robustness metrics so
    the compare gate's 25% tolerance never sees timing noise in them:

    * ``feed.resume.replayed`` -- a consumer is killed off a cursor
      checkpoint boundary and a fresh consumer resumes from the durable
      cursor; the replayed gap (applied mark minus last checkpoint) is
      a constant of the scenario.
    * ``serve.rejected`` -- a worker-less twin service is saturated via
      staged :meth:`~repro.cluster.serving.EstimateService.offer`
      calls past its queue bound; the shed count is exact.

    The timed phase measures the mixed load:

    * ``serving.estimate.throughput`` / ``serving.feed.throughput`` --
      answered requests and streamed records per second of wall clock;
    * ``serve.latency.p99`` -- the client-visible p99, queue wait
      included; :func:`check_budgets` fails the run above
      :data:`SERVE_P99_BUDGET_SECONDS`;
    * ``serve.stall.max_window`` -- the single worst request, gated by
      :data:`SERVE_STALL_BUDGET_SECONDS` (one request may wait out a
      full queue drain, but a multi-second freeze means the service
      deadlocked or stopped shedding).
    """
    writers = scale.serving_writers
    per_writer = scale.serving_records
    clients = scale.serving_clients
    per_client = scale.serving_requests
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = LSMCluster(
            num_nodes=2,
            partitions_per_node=2,
            stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=_BUDGET),
            retry_policy=RetryPolicy.immediate(max_attempts=3),
            scheduler="threads",
        )
        for writer in range(writers):
            cluster.create_dataset(
                f"serve{writer}",
                primary_key="id",
                primary_domain=_DOMAIN,
                indexes=[IndexSpec("value_idx", "value", _VALUE_DOMAIN)],
                memtable_capacity=256,
                merge_policy_factory=lambda: ConstantMergePolicy(max_components=4),
            )
        queried = "serve0"
        for pk in range(_SERVING_PRELOAD):
            cluster.insert(
                queried, {"id": pk, "value": (pk * 13) % _VALUE_DOMAIN.length}
            )
        cluster.flush_all(queried)
        cluster.drain_maintenance()
        cluster.recover_statistics()
        # Warm the merged-synopsis cache so clients measure serving, not
        # the first-touch merge.
        cluster.estimate_detailed(queried, "value_idx", 0, 255)

        # Untimed preamble 1: the deterministic crash-resume segment.
        cursor_store = FeedCursorStore(cluster.nodes[0].disk)

        def resume_consumer() -> ResumableFeedConsumer:
            return ResumableFeedConsumer(
                ReplayableStreamFeed(
                    "bench_resume",
                    (
                        {
                            "id": _SERVING_PRELOAD + i,
                            "value": (i * 29) % _VALUE_DOMAIN.length,
                        }
                        for i in range(_SERVING_RESUME_RECORDS)
                    ),
                ),
                DatasetFeedAdapter(cluster, queried),
                cursor_store,
                checkpoint_every=_SERVING_RESUME_CHECKPOINT,
                retry_policy=RetryPolicy.immediate(),
            )

        resume_consumer().run(stop_after=_SERVING_RESUME_RECORDS)
        replayed = resume_consumer().run().replayed
        expected_replay = _SERVING_RESUME_RECORDS - _SERVING_RESUME_CHECKPOINT
        assert replayed == expected_replay, (
            f"resume segment replayed {replayed} records, "
            f"expected {expected_replay}"
        )

        # Untimed preamble 2: exact shed count on a staged, worker-less
        # twin -- offers past the bound are rejections by construction.
        shadow = EstimateService(
            cluster,
            max_queue_depth=_SERVING_SHADOW_DEPTH,
            workers=1,
            retry_policy=RetryPolicy.immediate(max_attempts=1),
            autostart=False,
        )
        staged_rejects = 0
        for i in range(_SERVING_SHADOW_OFFERS):
            if not shadow.offer("stager", queried, "value_idx", 0, 255 + i):
                staged_rejects += 1
        shadow.shutdown()
        assert staged_rejects == _SERVING_SHADOW_OFFERS - _SERVING_SHADOW_DEPTH, (
            f"staged saturation shed {staged_rejects} offers, expected "
            f"{_SERVING_SHADOW_OFFERS - _SERVING_SHADOW_DEPTH}"
        )

        # Timed phase: writers stream, clients estimate, concurrently.
        service = EstimateService(
            cluster,
            max_queue_depth=_SERVING_QUEUE_DEPTH,
            workers=_SERVING_WORKERS,
            default_timeout=10.0,
            retry_policy=RetryPolicy.immediate(max_attempts=3),
        )
        consumers = [
            ResumableFeedConsumer(
                ReplayableStreamFeed(
                    f"bench_feed_{writer}",
                    (
                        {
                            "id": 2**19 + writer * per_writer + i,
                            "value": (i * 13) % _VALUE_DOMAIN.length,
                        }
                        for i in range(per_writer)
                    ),
                ),
                DatasetFeedAdapter(cluster, f"serve{writer}"),
                cursor_store,
                checkpoint_every=256,
                retry_policy=RetryPolicy.immediate(),
            )
            for writer in range(writers)
        ]
        applied = [0] * writers

        def run_writer(writer: int) -> None:
            applied[writer] = consumers[writer].run().applied

        latencies: list[list[float]] = [[] for _ in range(clients)]
        shed = [0] * clients

        def run_client(client: int) -> None:
            observed = latencies[client].append
            for i in range(per_client):
                lo = ((seed + client) * 97 + i * 131) % (
                    _VALUE_DOMAIN.length - 256
                )
                op_started = timer()
                try:
                    service.estimate(
                        f"client{client}", queried, "value_idx", lo, lo + 255
                    )
                except OverloadedError:
                    shed[client] += 1
                observed(timer() - op_started)

        threads = [
            threading.Thread(target=run_writer, args=(writer,))
            for writer in range(writers)
        ] + [
            threading.Thread(target=run_client, args=(client,))
            for client in range(clients)
        ]
        started = timer()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max(timer() - started, 1e-9)
        service.shutdown()
        cluster.drain_maintenance()
        cluster.shutdown()
    assert applied == [per_writer] * writers, (
        f"feed writers applied {applied}, expected {per_writer} each"
    )
    total_requests = clients * per_client
    answered = total_requests - sum(shed)
    assert answered > 0, "serving scenario shed every request"
    flat = sorted(
        latency for per_client_samples in latencies for latency in per_client_samples
    )
    return {
        "serving.estimate.throughput": answered / elapsed,
        "serving.feed.throughput": writers * per_writer / elapsed,
        "serve.latency.p99": _percentile(flat, 0.99),
        "serve.stall.max_window": flat[-1],
        "serve.rejected": float(staged_rejects),
        "feed.resume.replayed": float(replayed),
    }


def _bench_ndv(
    scale: PerfScale, seed: int, timer: Callable[[], float]
) -> dict[str, float]:
    """The NDV sketch lane's three costs (docs/SKETCHES.md): building
    a sketch over a value stream on the columnar ``add_many`` path,
    the master's lazy register-union fold across per-component
    sketches, and the HBS wire form's size against the dense registers.

    ``ndv.wire.compression_ratio`` is hardware-independent -- dense
    register bytes over HBS-encoded bytes of the same deterministic
    sketch -- so it gates meaningfully across heterogeneous runners.
    """
    n = scale.ndv_records
    registers = 1 << DEFAULT_NDV_PRECISION
    step = 514_229  # coprime with any power of two
    values = [(seed + i * step) % _DOMAIN.length for i in range(n)]

    builder = HyperLogLogBuilder(_DOMAIN, registers)
    started = timer()
    builder.add_many(values)
    sketch = builder.build()
    build_elapsed = max(timer() - started, 1e-9)

    # One sketch per simulated component, then the fold the master's
    # estimator runs on a cache miss (exact by register-max algebra).
    parts = scale.ndv_union_sketches
    component_sketches = []
    for part in range(parts):
        part_builder = HyperLogLogBuilder(_DOMAIN, registers)
        part_builder.add_many(values[part::parts])
        component_sketches.append(part_builder.build())
    started = timer()
    merged = component_sketches[0].merge_with(*component_sketches[1:])
    union_elapsed = max(timer() - started, 1e-9)
    assert merged.to_payload() == sketch.to_payload(), (
        "unioned per-component sketches diverged from the whole-stream "
        "sketch -- the union algebra is broken"
    )

    return {
        "ndv.build.throughput": n / build_elapsed,
        "ndv.union.latency": union_elapsed / (parts - 1),
        "ndv.wire.compression_ratio": registers / max(merged.encoded_bytes(), 1),
    }


_BENCHMARKS: dict[str, Callable[..., dict[str, float]]] = {
    "ingest-throughput": _bench_ingest,
    "flush-latency": _bench_flush,
    "merge-throughput": _bench_merge,
    "estimate-latency": _bench_estimate,
    "network-ship": _bench_ship,
    "wal-replay": _bench_wal_replay,
    "concurrent-ingest": _bench_concurrent_ingest,
    "stability": _bench_stability,
    "memory-budget": _bench_memory_budget,
    "serving": _bench_serving,
    "ndv": _bench_ndv,
}


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (well-defined for tiny sample counts)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def run_suite(
    quick: bool = False,
    seed: int = 0,
    repetitions: int | None = None,
    only: tuple[str, ...] | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> dict[str, Any]:
    """Run the suite and return the schema-versioned report dict.

    Each repetition rebuilds every structure from scratch (fresh disks,
    trees, registries), so repetitions are independent samples; the
    report keeps all samples plus median/p95 per metric.
    """
    scale = QUICK_SCALE if quick else FULL_SCALE
    reps = repetitions if repetitions is not None else scale.repetitions
    if reps < 1:
        raise BenchmarkError(f"repetitions must be >= 1, got {reps}")
    names = tuple(only) if only else BENCHMARK_NAMES
    unknown = [name for name in names if name not in _BENCHMARKS]
    if unknown:
        raise BenchmarkError(
            f"unknown benchmark(s) {unknown}; known: {list(_BENCHMARKS)}"
        )
    samples: dict[str, list[float]] = {}
    for rep in range(reps):
        for name in names:
            # A fresh registry per benchmark keeps instrument state out
            # of the timed region and off the process-global registry.
            with use_registry(MetricsRegistry()):
                results = _BENCHMARKS[name](scale, seed + rep, timer)
            for metric, value in results.items():
                samples.setdefault(metric, []).append(value)
    metrics: dict[str, Any] = {}
    for metric, values in samples.items():
        unit, direction = METRIC_SPECS[metric]
        metrics[metric] = {
            "unit": unit,
            "direction": direction,
            "median": statistics.median(values),
            "p95": _percentile(values, 0.95),
            "samples": values,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "repro-perfsuite",
        "quick": quick,
        "seed": seed,
        "repetitions": reps,
        "benchmarks": list(names),
        "scale": scale.as_dict(),
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "created_unix": time.time(),
        "metrics": metrics,
    }


def report_filename(report: dict[str, Any]) -> str:
    """``BENCH_<UTC timestamp>.json`` for one report."""
    stamp = time.strftime(
        "%Y%m%dT%H%M%SZ", time.gmtime(report.get("created_unix", time.time()))
    )
    return f"BENCH_{stamp}.json"


def write_report(report: dict[str, Any], out_dir: str | Path) -> Path:
    """Write ``report`` into ``out_dir`` under its BENCH_* name."""
    target_dir = Path(out_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / report_filename(report)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate a BENCH report / baseline."""
    source = Path(path)
    try:
        payload = json.loads(source.read_text())
    except FileNotFoundError as exc:
        raise BenchmarkError(f"baseline {source} does not exist") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"baseline {source} is not valid JSON: {exc}") from exc
    _validate_report(payload, label=str(source))
    return payload


def _validate_report(report: Any, label: str) -> None:
    if not isinstance(report, dict):
        raise BenchmarkError(f"{label}: report must be a JSON object")
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BenchmarkError(
            f"{label}: schema_version {version!r} is not {SCHEMA_VERSION} "
            "(regenerate the baseline with `repro bench`)"
        )
    metrics = report.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise BenchmarkError(f"{label}: missing or empty 'metrics' section")
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            raise BenchmarkError(f"{label}: metric {name!r} is not an object")
        if not isinstance(entry.get("median"), (int, float)):
            raise BenchmarkError(f"{label}: metric {name!r} has no numeric median")
        if entry.get("direction") not in ("higher", "lower"):
            raise BenchmarkError(
                f"{label}: metric {name!r} direction must be 'higher' or "
                f"'lower', got {entry.get('direction')!r}"
            )


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.25,
) -> list[str]:
    """The regression gate: current vs. baseline medians.

    A metric regresses when its median moves beyond ``tolerance``
    (fractional) in its *bad* direction; improvements never fail.
    Only metrics present in the baseline gate -- a suite may grow new
    metrics without invalidating old baselines.  A baseline metric
    missing from the current run is a regression *unless* the run's
    ``benchmarks`` list shows the producing benchmark was deliberately
    skipped (partial runs like ``--suite stability`` gate only what
    they measured).  Returns the list of human-readable regression
    descriptions (empty = pass).
    """
    if not 0.0 <= tolerance:
        raise BenchmarkError(f"tolerance must be >= 0, got {tolerance}")
    _validate_report(current, label="current run")
    _validate_report(baseline, label="baseline")
    ran = current.get("benchmarks")
    regressions = []
    for name, base_entry in baseline["metrics"].items():
        current_entry = current["metrics"].get(name)
        if current_entry is None:
            source = METRIC_SOURCES.get(name)
            if (
                source is not None
                and isinstance(ran, list)
                and source not in ran
            ):
                continue  # its benchmark was not part of this run
            regressions.append(
                f"{name}: present in baseline but missing from the current run"
            )
            continue
        base = float(base_entry["median"])
        now = float(current_entry["median"])
        direction = base_entry["direction"]
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            if now < floor:
                regressions.append(
                    f"{name}: median {now:.6g} fell below {floor:.6g} "
                    f"(baseline {base:.6g} - {tolerance:.0%} tolerance)"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if now > ceiling:
                regressions.append(
                    f"{name}: median {now:.6g} rose above {ceiling:.6g} "
                    f"(baseline {base:.6g} + {tolerance:.0%} tolerance)"
                )
    return regressions


def check_budgets(report: dict[str, Any]) -> list[str]:
    """The absolute budget gate (orthogonal to the relative baseline
    gate): a budgeted metric fails when its *worst* sample -- not the
    median -- exceeds its documented ceiling, because a single
    over-budget stall window or over-budget memory peak is exactly the
    event the stability/arbitration work promises cannot happen.
    Returns violation descriptions (empty = pass); metrics absent from
    the report are not checked.
    """
    violations = []
    for name, ceiling in _BUDGET_CEILINGS.items():
        entry = report.get("metrics", {}).get(name)
        if entry is None:
            continue
        samples = entry.get("samples") or [entry["median"]]
        worst = max(float(sample) for sample in samples)
        if worst > ceiling:
            unit = METRIC_SPECS.get(name, ("", "lower"))[0]
            suffix = unit if unit != "ratio" else ""
            violations.append(
                f"{name}: worst sample {worst:.6g}{suffix} exceeds the "
                f"{ceiling:g}{suffix} budget ceiling"
            )
    return violations


def format_report(report: dict[str, Any]) -> str:
    """Human-readable table of one report's metrics."""
    lines = [
        f"repro perf suite (schema v{report['schema_version']}, "
        f"{'quick' if report.get('quick') else 'full'} scale, "
        f"seed {report.get('seed')}, {report.get('repetitions')} reps)"
    ]
    width = max(len(name) for name in report["metrics"])
    for name in sorted(report["metrics"]):
        entry = report["metrics"][name]
        lines.append(
            f"  {name:<{width}}  median {entry['median']:>12.6g} "
            f"{entry['unit']:<10} p95 {entry['p95']:>12.6g}"
        )
    return "\n".join(lines)


def format_regressions(regressions: list[str]) -> str:
    """Render the gate verdict."""
    if not regressions:
        return "bench compare: ok (no metric regressed beyond tolerance)"
    lines = ["bench compare: REGRESSION detected"]
    lines.extend(f"  - {entry}" for entry in regressions)
    return "\n".join(lines)
