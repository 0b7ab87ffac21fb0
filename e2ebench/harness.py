"""What every workload shares: cluster shape, sizes, measurement helpers
and the correctness oracle.

Program configuration is the program's defaults: the process-global
metrics registry, no environment flags set here, ``REPRO_COLUMNAR_NUMPY``
as found (and recorded in the report).
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.cluster.cluster import LSMCluster
from repro.core.config import StatisticsConfig
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import PrefixMergePolicy
from repro.lsm.storage import IOStats
from repro.synopses.base import SynopsisType
from repro.types import Domain
from repro.util.retry import RetryPolicy

from e2ebench import workloads
from e2ebench.trace import Tracer

__all__ = [
    "Scale",
    "FULL",
    "QUICK",
    "Context",
    "Oracle",
    "STATS_CONFIGS",
    "STATS_ON",
    "build_cluster",
    "create_orders",
    "median",
    "percentile",
    "user_bytes",
    "io_totals",
    "SortedValues",
    "sweep",
    "estimate_latencies",
    "check_contents",
    "peak_rss_mb",
    "SpeedMeter",
]

DATASET = "orders"
SWEEP_INDEX = "value_idx"
SWEEP_QUERIES = 200
SWEEP_TIMING_REPEATS = 5
"""Timed repeats of the sweep per round.  Sampling a few milliseconds
after every round spreads the estimate-latency samples over the whole
run; one long burst at the end reads the machine's speed of that instant
(+-20% on the reference sandbox) instead of its average."""
GET_SAMPLE = 64
ON_TIME_S = 0.010
"""The open loop's latency limit: an operation acknowledged later than
this after it was due is late (``ontime_op_ratio``).  Several times the
median batch (1.5-2 ms from due time), a third of the peak of the shortest
stall episode of the reference run (35 ms)."""

STATS_CONFIGS: dict[str, StatisticsConfig] = {
    "nostats": StatisticsConfig.disabled(),
    "equi_width": StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=256),
    "equi_height": StatisticsConfig(SynopsisType.EQUI_HEIGHT, budget=256),
    "wavelet": StatisticsConfig(SynopsisType.WAVELET, budget=256),
    "equi_width+ndv": StatisticsConfig(
        SynopsisType.EQUI_WIDTH, budget=256, ndv_enabled=True
    ),
}
STATS_ON = "equi_width+ndv"
"""The stats-on configuration of every workload that runs only one."""


@dataclass(frozen=True)
class Scale:
    """Record counts of one benchmark scale.

    ``FULL`` is sized so that a round of each closed-loop workload takes
    1-3 s on the reference sandbox (several rounds fit ``run_seconds``)
    while every partition still sees >= 8 flushes and >= 2 merges where
    the workload is meant to merge; memtable capacities shrink with the
    record counts for that reason (README, "Sizing").
    """

    setup_reps: int
    bulk_docs: int
    bulk_warm_docs: int
    churn_ops: int
    churn_warm_ops: int
    churn_memtable: int
    mix_memtable: int
    mix_requests: int
    htap_preload: int
    htap_memtable: int
    htap_write_rate: float
    htap_estimate_rate: float


FULL = Scale(
    setup_reps=5,
    bulk_docs=24_000,
    bulk_warm_docs=2_000,
    churn_ops=16_000,
    churn_warm_ops=1_000,
    churn_memtable=256,
    mix_memtable=64,
    mix_requests=2_000,
    htap_preload=6_000,
    htap_memtable=512,
    htap_write_rate=3_000.0,
    htap_estimate_rate=150.0,
)
QUICK = Scale(
    setup_reps=1,
    bulk_docs=3_000,
    bulk_warm_docs=500,
    churn_ops=3_000,
    churn_warm_ops=300,
    churn_memtable=64,
    mix_memtable=16,
    mix_requests=400,
    htap_preload=1_000,
    htap_memtable=128,
    htap_write_rate=1_500.0,
    htap_estimate_rate=100.0,
)


@dataclass
class Oracle:
    """Operations and correctness checks: how many were attempted, how
    many failed, how many were answered but late."""

    attempted: int = 0
    failed: int = 0
    timed: int = 0  # of ``attempted``: operations, as against untimed checks
    late: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int, what: str, late: int = 0) -> None:
        """Count timed operations, how many of them failed and how many of
        the rest missed the open loop's latency limit (a closed loop has no
        due times, so none of its operations is late)."""
        self.attempted += attempted
        self.timed += attempted
        self.late += late
        if failed:
            self.failed += failed
            self.failures.append(f"{failed} of {attempted} {what} failed")

    @property
    def ontime_ratio(self) -> float:
        """``ontime_op_ratio``: operations answered correctly and on time /
        operations attempted.  A failed, shed or timed-out operation misses
        any limit, and so does each failed check."""
        return (self.timed - self.failed - self.late) / max(self.timed, 1)

    def check(self, ok: bool, what: str) -> None:
        """Count one untimed correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


SPIN_REFERENCE_S = 1.5e-3
"""What one spin takes on the reference sandbox at its usual speed."""
SPINS_PER_SIDE = 5


def _spin() -> float:
    """Seconds a fixed piece of pure-Python work (dict stores, float adds,
    one sort) takes right now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0.0
    for i in range(20_000):
        table[i & 1023] = i
        total += i * 0.5
    sorted(table.values())
    return time.perf_counter() - started


class SpeedMeter:
    """How fast the machine is while each part of a run is timed.

    The reference sandbox is a shared virtual machine whose speed moves
    between levels about 25% apart, stays on one for anything from a
    second to minutes, and has noisy quarter hours besides.  Whole runs
    land on one level or another, and the runs a verdict compares -- the
    driver's two ten-run series, a parent and its change -- are made
    minutes apart by someone else, so interleaving cannot be relied on.
    The program's work and a spin slow down together (README, "Durations
    are restated at reference speed"), so the spins taken around -- and,
    where the benchmark owns the loop, between the operations of -- the
    timed sections of a round tell how slow the machine was for that
    round, and the round's durations are reported divided by its
    :meth:`slowdown`."""

    def __init__(self) -> None:
        self._spins: list[float] = []

    def sample(self, spins: int = SPINS_PER_SIDE) -> None:
        self._spins.extend(_spin() for _ in range(spins))

    def clock(self, fn: Callable[[], Any]) -> float:
        """Wall seconds of ``fn()`` after a ``gc.collect()``, as clocked,
        spinning before and after; spins ``fn`` takes itself (a long
        section calls :meth:`sample` between two of its operations now and
        then) are not its time."""
        self.sample()
        gc.collect()
        inner = len(self._spins)
        started = time.perf_counter()
        fn()
        seconds = time.perf_counter() - started - sum(self._spins[inner:])
        self.sample()
        return seconds

    def mark(self) -> int:
        """Where a round (a set-up repetition, the restarts) starts."""
        return len(self._spins)

    def slowdown(self, since: int = 0) -> float:
        """Median spin since ``since`` over the reference spin (> 1: slow)."""
        return median(self._spins[since:]) / SPIN_REFERENCE_S


@dataclass
class Context:
    """One run's arguments and collected output."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    tracer: Tracer | None
    oracle: Oracle = field(default_factory=Oracle)
    speed: SpeedMeter = field(default_factory=SpeedMeter)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None


def build_cluster(
    config: str, durable: bool = False, scheduler: str = "sync"
) -> LSMCluster:
    """The one cluster shape every workload uses: 2 nodes x 2 partitions,
    budget 256, immediate retries, perfect wire."""
    return LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=STATS_CONFIGS[config],
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        durable=durable,
        scheduler=scheduler,
    )


def create_orders(
    cluster: LSMCluster, memtable_capacity: int | None = None, merge: bool = True
) -> None:
    """The two-secondary-index ``orders`` dataset (Pareto ``value``,
    monotone ``ts``) under ``PrefixMergePolicy(32, 4)``."""
    kwargs: dict[str, Any] = {}
    if memtable_capacity is not None:
        kwargs["memtable_capacity"] = memtable_capacity
    if merge:
        kwargs["merge_policy_factory"] = lambda: PrefixMergePolicy(32, 4)
    cluster.create_dataset(
        DATASET,
        primary_key="id",
        primary_domain=Domain(*workloads.PK_DOMAIN),
        indexes=[
            IndexSpec("value_idx", "value", Domain(*workloads.VALUE_DOMAIN)),
            IndexSpec("ts_idx", "ts", Domain(*workloads.TS_DOMAIN)),
        ],
        **kwargs,
    )


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def user_bytes(documents: Iterable[dict[str, Any]]) -> int:
    """Bytes the user handed in: the compact JSON size of each document."""
    return sum(len(json.dumps(d, separators=(",", ":"))) for d in documents)


def io_totals(cluster: LSMCluster) -> IOStats:
    """``IOStats`` summed over every node disk."""
    total = IOStats()
    for node in cluster.nodes:
        total = total + node.disk.stats
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SortedValues:
    """Generator-side ground truth for range counts on one field."""

    def __init__(self, model: dict[int, dict[str, Any]], field_name: str) -> None:
        self._values = sorted(doc[field_name] for doc in model.values())

    def __len__(self) -> int:
        return len(self._values)

    def count(self, lo: int, hi: int) -> int:
        return bisect.bisect_right(self._values, hi) - bisect.bisect_left(
            self._values, lo
        )


def sweep(
    cluster: LSMCluster, queries: Sequence[tuple[int, int]], truth: SortedValues
) -> tuple[float, list[float]]:
    """The paper's accuracy metric over a fixed query sweep: returns
    ``(mean |estimate - true| / live records, the estimates)``."""
    estimates = [
        cluster.estimate(DATASET, SWEEP_INDEX, lo, hi) for lo, hi in queries
    ]
    error = sum(
        abs(estimate - truth.count(lo, hi))
        for estimate, (lo, hi) in zip(estimates, queries)
    )
    return error / len(queries) / max(len(truth), 1), estimates


def estimate_latencies(
    ctx: Context, cluster: LSMCluster, queries: Sequence[tuple[int, int]], repeats: int
) -> list[float]:
    """Service time of each estimate over ``repeats`` passes of the sweep
    (one burst), as clocked."""
    clock = time.perf_counter
    estimate = cluster.estimate
    latencies: list[float] = []

    def burst() -> None:
        for _ in range(repeats):
            for lo, hi in queries:
                started = clock()
                estimate(DATASET, SWEEP_INDEX, lo, hi)
                latencies.append(clock() - started)

    ctx.speed.clock(burst)
    return latencies


def check_contents(
    ctx: Context,
    cluster: LSMCluster,
    model: dict[int, dict[str, Any]],
    label: str,
    deleted: Sequence[int] = (),
) -> None:
    """Dict model vs ``count_records`` and a seeded sample of ``get``."""
    ctx.oracle.check(
        cluster.count_records(DATASET) == len(model),
        f"{label}: count_records != {len(model)} live records of the model",
    )
    rng = random.Random(f"oracle:{ctx.seed}")
    keys = sorted(model)
    for pk in rng.sample(keys, min(GET_SAMPLE, len(keys))):
        ctx.oracle.check(
            cluster.get(DATASET, pk) == model[pk], f"{label}: get({pk}) != model"
        )
    for pk in deleted[:GET_SAMPLE]:
        ctx.oracle.check(
            cluster.get(DATASET, pk) is None, f"{label}: deleted pk {pk} still readable"
        )
