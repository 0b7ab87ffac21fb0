"""Round structure and measurement plumbing shared by the scenarios.

Every closed-loop workload is a loop of *rounds*: one round is a fixed
unit of work, rounds repeat until ``--seconds`` have passed, timings are
medians over rounds and counts come from one round -- so deterministic
metrics do not depend on how many rounds fit.  Under ``--trace`` odd
rounds run with the wrappers installed and even rounds without; the
ratio of their medians is the tracing overhead.  Every run ends with the
same lifecycle tail (accuracy sweep, correctness oracle, crash-restarts).
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from typing import Any, Callable, Iterator, Sequence, TypeVar

from e2ebench import harness, layers, workloads
from e2ebench.harness import Context

T = TypeVar("T")

MIN_ROUNDS = 2
GROUND_TRUTH_SAMPLE = 8
RESTARTS = 7


def repeated_setup(ctx: Context, setup: Callable[[], T]) -> tuple[T, float]:
    """Run ``setup`` ``scale.setup_reps`` times; returns the last result
    and the median seconds (the ``setup_s`` metric)."""
    seconds = []
    results: list[T] = []
    for _ in range(ctx.scale.setup_reps):
        results.clear()  # drop the previous repetition before building the next
        mark = ctx.speed.mark()
        clocked = ctx.speed.clock(lambda: results.append(setup()))
        seconds.append(clocked / ctx.speed.slowdown(mark))
    return results[0], harness.median(seconds)


def overhead_ratio(
    rounds: Sequence[dict[str, float]], on: Sequence[str], off: str = "nostats"
) -> float:
    """Fig. 2's ratio from rounds of ``{configuration: seconds at reference
    speed}``: the mean over the ``on`` configurations of each one's median
    over rounds, over the median of ``off``.  Medians first, then the
    ratio: a disturbed pass spoils the ratio of its round but neither
    median (ten seeds of ``feed_churn``: 4.2% spread against 8.4% for the
    median of per-round ratios, from the same rounds)."""
    return statistics.fmean(
        harness.median(seconds[config] for seconds in rounds) for config in on
    ) / harness.median(seconds[off] for seconds in rounds)


def rounds(ctx: Context) -> Iterator[int]:
    """Round numbers until ``ctx.seconds`` have passed (at least two, so a
    traced run has one round of each kind)."""
    started = time.perf_counter()
    number = 0
    while number < MIN_ROUNDS or time.perf_counter() - started < ctx.seconds:
        yield number
        number += 1


def maybe_traced(ctx: Context, traced: bool) -> contextlib.AbstractContextManager:
    if traced:
        assert ctx.tracer is not None
        return ctx.tracer.installed()
    return contextlib.nullcontext()


def timed_section(
    ctx: Context, fn: Callable[[], Any], threads: tuple[str, ...] | None = None
) -> tuple[float, layers.Section | None]:
    """Wall seconds of ``fn()`` as clocked; with the wrappers installed,
    also what they and the program's own counters recorded meanwhile."""
    tracer = ctx.tracer if ctx.tracer is not None and ctx.tracer.active else None
    if tracer is None:
        return ctx.speed.clock(fn), None
    before = layers.probe(tracer, threads)
    seconds = ctx.speed.clock(fn)
    return seconds, layers.Section.between(before, layers.probe(tracer, threads), seconds)


def merge_sections(sections: Sequence[layers.Section | None]) -> layers.Section:
    """The sum of the timed sections of one round."""
    parts = [section for section in sections if section is not None]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged + part
    return merged


def attributed_share(sections: Sequence[layers.Section], drivers: int = 1) -> float:
    """Share of the driving threads' timed wall spent inside traced spans."""
    return sum(s.root_s for s in sections) / (drivers * sum(s.wall_s for s in sections))


def lifecycle_tail(
    ctx: Context,
    cluster: Any,
    model: dict[int, dict[str, Any]],
    deleted: Sequence[int] = (),
    trace_recovery: bool = False,
) -> tuple[dict[str, float], layers.Section | None]:
    """What ends every run, untimed by the workload's own clock: the
    200-query estimate sweep (accuracy), the correctness oracle, and
    ``RESTARTS`` crash-restarts of the (durable) cluster, each checked
    against the model and the pre-crash sweep.

    Returns the tail's end-to-end readings and, from a traced run of a
    workload that asks for it, what the wrappers recorded during the first
    restart + recovery (which then is not a timing sample).
    """
    oracle = ctx.oracle
    truth = harness.SortedValues(model, "value")
    queries = workloads.range_queries(harness.SWEEP_QUERIES)
    l1_error, estimates = harness.sweep(cluster, queries, truth)

    oracle.check(
        cluster.statistics_backlog() == 0, "statistics backlog is not 0 after the drain"
    )
    harness.check_contents(ctx, cluster, model, "after ingest", deleted)
    lo, hi = workloads.VALUE_DOMAIN
    whole = cluster.estimate(harness.DATASET, harness.SWEEP_INDEX, lo, hi)
    oracle.check(
        abs(whole - len(model)) <= 0.01 * max(len(model), 1),
        f"whole-domain estimate {whole} not within 1% of {len(model)} live records",
    )
    rng = random.Random(f"truth:{ctx.seed}")
    for lo, hi in rng.sample(queries, GROUND_TRUTH_SAMPLE):
        oracle.check(
            cluster.count_secondary_range(harness.DATASET, harness.SWEEP_INDEX, lo, hi)
            == truth.count(lo, hi),
            f"count_secondary_range({lo}, {hi}) disagrees with the model",
        )

    def recover() -> None:
        cluster.restart_nodes()
        cluster.recover_statistics()

    recoveries = []
    traced_recovery = None
    mark = ctx.speed.mark()
    for restart in range(RESTARTS):
        with maybe_traced(ctx, trace_recovery and ctx.tracing and restart == 0):
            seconds, section = timed_section(ctx, recover)
        if section is None:
            recoveries.append(seconds)
        else:
            traced_recovery = section
        oracle.check(
            cluster.statistics_backlog() == 0,
            f"restart {restart}: statistics backlog is not 0",
        )
        _, after = harness.sweep(cluster, queries, truth)
        oracle.check(
            after == estimates,
            f"restart {restart}: estimate sweep differs from the pre-crash sweep",
        )
    harness.check_contents(ctx, cluster, model, "after restart", deleted)

    readings = {
        "estimate_l1_error": l1_error,
        "recovery_s": harness.median(recoveries) / ctx.speed.slowdown(mark),
    }
    return readings, traced_recovery


def sweep_latency_metrics(ctx: Context, bursts: list[list[float]]) -> dict[str, float]:
    """Estimate latency of a workload whose timed section issues no
    estimates: the sweep, timed a few repeats (one burst) after each round.

    The sweep is half selective ranges (~8 us) and half long ones (30-140
    us, an estimate walks the buckets its range covers), so the median of
    all of it sits on the edge between two modes and reads either; the
    median is that of the selective half (the odd queries), the rate is
    over all of it, a median over bursts as every rate here is a median
    over rounds."""
    ctx.oracle.ops(sum(map(len, bursts)), 0, "sweep estimates")
    return {
        "estimate_p50_us": harness.median(x for burst in bursts for x in burst[1::2]) * 1e6,
        "estimates_per_s": harness.median(len(burst) / sum(burst) for burst in bursts),
    }


def client_diagnostics(
    ctx: Context,
    ingest_ms: Sequence[float],
    estimate_us: Sequence[float],
    late_ms: Sequence[float] = (),
    from_due: bool = False,
) -> dict[str, float]:
    """The ``client.*`` diagnostics from sorted latency samples (of the
    untraced rounds or window: the client's view is never a traced one).
    ``from_due``: the samples are open-loop latencies from due time, which
    can be late; ``late_ms`` is how late the generator itself sent."""
    oracle = ctx.oracle
    limit_ms = harness.ON_TIME_S * 1e3

    def late_ratio(samples: Sequence[float], limit: float) -> float:
        if not (from_due and samples):
            return 0.0
        return sum(1 for sample in samples if sample > limit) / len(samples)

    return {
        "client.ingest_mean_ms": mean_or_zero(ingest_ms),
        "client.estimate_mean_us": mean_or_zero(estimate_us),
        "client.ingest_p99_ms": harness.percentile(ingest_ms, 0.99),
        "client.ingest_max_ms": ingest_ms[-1] if ingest_ms else 0.0,
        "client.estimate_p99_us": harness.percentile(estimate_us, 0.99),
        "client.estimate_max_ms": estimate_us[-1] / 1e3 if estimate_us else 0.0,
        "client.generator_late_p99_ms": harness.percentile(late_ms, 0.99),
        "client.late_over_50ms_ratio": (
            sum(1 for late in late_ms if late > 50.0) / len(late_ms) if late_ms else 0.0
        ),
        "client.ingest_late_ratio": late_ratio(ingest_ms, limit_ms),
        "client.estimate_late_ratio": late_ratio(estimate_us, limit_ms * 1e3),
        "client.failed_op_ratio": oracle.failed / max(oracle.attempted, 1),
    }


def mean_or_zero(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
