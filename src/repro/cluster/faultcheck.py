"""Seeded chaos verification behind ``repro faultcheck``.

Runs the :mod:`repro.verify` op script's feed form twice -- once on a
perfect wire, once under a seeded
:class:`~repro.cluster.faults.FaultPlan` with the retrying sinks --
then recovers the chaotic run and verifies it converged to the *exact*
image (:func:`repro.verify.image`: contents, catalog, estimates) of
the fault-free run.

Because the local LSM pipeline is oblivious to statistics-delivery
failures (the sink never blocks ingestion), both runs build identical
components; any divergence therefore indicts the transport -- a lost,
duplicated, reordered or resurrected statistics message that the
retry/idempotency machinery failed to absorb.

The chaos run's ingest travels the *feed path*: a
:class:`~repro.cluster.feeds.ResumableFeedConsumer` drains a
changestream source with a seeded
:class:`~repro.cluster.faults.FeedFaultPlan` armed (injected
disconnects, partial batches, duplicate deliveries), so feed faults and
wire faults compose in one seeded run.  The consumer's dedup and
reconnect machinery must absorb the feed chaos exactly as the sink
absorbs the wire chaos -- the applied operation sequence, and therefore
every component, stays identical to the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import verify
from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import FaultPlan, FeedFaultPlan, FeedFaults, LinkFaults
from repro.cluster.feeds import ChangestreamFeed

__all__ = ["FaultCheckReport", "run_faultcheck", "format_report"]


@dataclass(frozen=True)
class FaultCheckReport:
    """Outcome of one seeded chaos-vs-baseline comparison."""

    seed: int
    records: int
    converged: bool
    catalog_entries: int
    recovery_rounds: int
    dropped: int
    duplicated: int
    reordered: int
    delayed: int
    retries: int
    duplicates_skipped: int
    feed_disconnects: int
    feed_deduplicated: int
    problems: tuple[str, ...]


def _ingest(
    cluster: LSMCluster, records: int, feed_plan: FeedFaultPlan | None = None
) -> int:
    """Drain the op script's feed form into the cluster -- inserts and
    deletes (anti-matter), enough flush/merge traffic to exercise
    publishes and retracts -- and return the statistics-recovery round
    count.  With a ``feed_plan`` the changestream transport injects
    disconnects, partial batches and duplicate deliveries, which the
    consumer must absorb without changing the applied operation
    sequence."""
    source = ChangestreamFeed(
        "chaos_ingest", verify.feed_records(records), fault_plan=feed_plan
    )
    verify.feed_consumer(cluster, source).run()
    return cluster.recover_statistics()


def run_faultcheck(
    seed: int = 0,
    records: int = 512,
    drop: float = 0.10,
    duplicate: float = 0.10,
    reorder: float = 0.10,
    delay: float = 0.05,
    feed_disconnect: float = 0.03,
    feed_duplicate: float = 0.05,
) -> FaultCheckReport:
    """Run the chaos ingest and verify convergence to the baseline."""
    # The wire faults only need a live process, so both runs stay
    # in-memory clusters (the feed cursor still has node 0's disk).
    baseline = verify.observe(
        "baseline", lambda cluster: _ingest(cluster, records), durable=False
    )
    plan = FaultPlan(
        seed=seed,
        default=LinkFaults(
            drop=drop, duplicate=duplicate, reorder=reorder, delay=delay
        ),
        # The master drops off the wire for a stretch mid-ingest; the
        # sinks must degrade gracefully and flush the backlog after.
        unavailable={"cc": [(40, 80)]},
    )
    feed_plan = FeedFaultPlan(
        seed=seed,
        faults=FeedFaults(disconnect=feed_disconnect, duplicate=feed_duplicate),
    )
    chaotic = verify.observe(
        "chaos",
        lambda cluster: _ingest(cluster, records, feed_plan),
        fault_plan=plan,
        durable=False,
    )
    problems = (
        baseline.problems
        + verify.compare("chaos", baseline.image, chaotic.image)
        + chaotic.problems
    )

    counters = chaotic.counters
    return FaultCheckReport(
        seed=seed,
        records=records,
        converged=not problems,
        catalog_entries=chaotic.cluster.master.catalog.entry_count(),
        recovery_rounds=chaotic.outcome,
        dropped=counters.get("network.dropped", 0),
        duplicated=counters.get("network.duplicated", 0),
        reordered=counters.get("network.reordered", 0),
        delayed=counters.get("network.delayed", 0),
        retries=counters.get("sink.retries", 0),
        duplicates_skipped=counters.get("cluster.stats.duplicates", 0),
        feed_disconnects=counters.get("feed.source.disconnects", 0),
        feed_deduplicated=counters.get("feed.records.deduplicated", 0),
        problems=tuple(problems),
    )


def format_report(report: FaultCheckReport) -> str:
    lines = [
        f"faultcheck seed={report.seed} records={report.records}",
        f"  injected: dropped={report.dropped} duplicated={report.duplicated}"
        f" reordered={report.reordered} delayed={report.delayed}",
        f"  absorbed: retries={report.retries}"
        f" duplicates_skipped={report.duplicates_skipped}"
        f" recovery_rounds={report.recovery_rounds}",
        f"  feed chaos: disconnects={report.feed_disconnects}"
        f" deduplicated={report.feed_deduplicated}",
        f"  catalog entries: {report.catalog_entries}",
    ]
    if report.converged:
        lines.append("  converged: catalog and estimates match the fault-free run")
    else:
        lines.append("  DIVERGED:")
        lines.extend(f"    - {problem}" for problem in report.problems)
    return "\n".join(lines)
