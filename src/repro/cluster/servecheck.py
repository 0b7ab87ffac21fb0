"""Serving-layer chaos verification behind ``repro servecheck``.

Two legs, one seed:

**Resume leg.**  A seeded changestream feed is consumed into a durable
cluster twice: once uninterrupted, once killed mid-feed (``stop_after``
-- the consumer dies between cursor checkpoints, exactly as a crashed
process would) with feed faults armed (injected disconnects, partial
batches, duplicate deliveries).  The killed cluster is crash-restarted
(:meth:`~repro.cluster.cluster.LSMCluster.restart_nodes`), a fresh
consumer resumes from the durable cursor, replays the uncheckpointed
gap (at-least-once) and deduplicates it against the applied high-water
mark.  Both runs must end in a **bit-identical** image
(:func:`repro.verify.image`: contents, catalog, estimates).  The leg
is vacuous unless the resume actually replayed records, so
``replayed == 0`` is itself a failure.

**Overload leg.**  A bounded :class:`~repro.cluster.serving.
EstimateService` is saturated deterministically (staged admissions past
the queue bound), then hammered by concurrent client threads.  The leg
verifies load is *shed, not queued*: at least one typed
:class:`~repro.errors.OverloadedError`, queue depth never exceeds its
bound, every client thread finishes (join with a deadline -- a stuck
thread is a deadlock verdict, not a hang of the harness), and the
degraded flavour answers from the possibly-stale cache with the
``degraded`` flag set.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any

from repro import verify
from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import FeedFaultPlan, FeedFaults
from repro.cluster.feeds import (
    ChangestreamFeed,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.cluster.serving import EstimateService
from repro.errors import OverloadedError
from repro.util.retry import RetryPolicy

__all__ = ["ServeCheckReport", "run_servecheck", "format_report"]

_DATASET = verify.DATASET
_CHECKPOINT_EVERY = 64
_FLUSH_EVERY = 48
_JOIN_DEADLINE_SECONDS = 30.0


@dataclass(frozen=True)
class ServeCheckReport:
    """Outcome of one seeded serving-resilience check."""

    seed: int
    records: int
    converged: bool
    kill_at: int
    replayed: int
    deduplicated: int
    disconnects: int
    reconnects: int
    partial_batches: int
    requests: int
    rejected: int
    degraded: int
    timeouts: int
    peak_queue_depth: int
    problems: tuple[str, ...]


def _feed_records(seed: int, count: int) -> list[FeedRecord]:
    """A seeded changestream: mostly inserts, with updates and deletes
    against already-inserted keys so replays exercise anti-matter."""
    rng = random.Random(f"servecheck:{seed}")
    records: list[FeedRecord] = []
    live: list[int] = []
    next_pk = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.75 or not live:
            document = {"id": next_pk, "value": rng.randrange(1024)}
            live.append(next_pk)
            next_pk += 1
            records.append(FeedRecord(FeedOperation.INSERT, document))
        elif roll < 0.90:
            pk = live[rng.randrange(len(live))]
            records.append(
                FeedRecord(
                    FeedOperation.UPDATE,
                    {"id": pk, "value": rng.randrange(1024)},
                )
            )
        else:
            pk = live.pop(rng.randrange(len(live)))
            records.append(FeedRecord(FeedOperation.DELETE, {"id": pk}))
    return records


def _consumer(
    cluster: LSMCluster, source: ChangestreamFeed
) -> ResumableFeedConsumer:
    # ``flush_every`` is keyed to absolute log position, so the
    # interrupted and the uninterrupted run cut identical components.
    return verify.feed_consumer(
        cluster,
        source,
        checkpoint_every=_CHECKPOINT_EVERY,
        flush_every=_FLUSH_EVERY,
    )


def _pick_kill_point(seed: int, records: int) -> int:
    """A seeded mid-feed kill point that is *not* a checkpoint boundary,
    so the resume genuinely replays an uncheckpointed gap."""
    rng = random.Random(f"servecheck-kill:{seed}")
    lo = max(1, records // 4)
    hi = max(lo + 1, (3 * records) // 4)
    kill_at = rng.randrange(lo, hi)
    if kill_at % _CHECKPOINT_EVERY == 0:
        kill_at += 1 + (seed % (_CHECKPOINT_EVERY - 1))
    return min(kill_at, records - 1)


def _run_resume_leg(
    seed: int, records: int, problems: list[str]
) -> dict[str, Any]:
    feed_records = _feed_records(seed, records)
    kill_at = _pick_kill_point(seed, records)

    # Uninterrupted oracle on a perfect feed.
    baseline = verify.observe(
        "baseline",
        lambda cluster: _consumer(
            cluster, ChangestreamFeed(f"serve{seed}", feed_records)
        ).run(),
    )

    def killed_and_resumed(cluster: LSMCluster):
        """Feed faults armed, killed mid-feed, crash-restarted, resumed
        from the durable cursor by a brand-new consumer."""
        plan = FeedFaultPlan(
            seed=seed, faults=FeedFaults(disconnect=0.03, duplicate=0.05)
        )
        source = ChangestreamFeed(f"serve{seed}", feed_records, fault_plan=plan)
        first_stats = _consumer(cluster, source).run(stop_after=kill_at)
        cluster.restart_nodes()
        cluster.recover_statistics()
        return first_stats, _consumer(cluster, source).run()

    resumed = verify.observe("resume", killed_and_resumed)
    first_stats, resume_stats = resumed.outcome
    problems.extend(baseline.problems)
    problems.extend(verify.compare("resume", baseline.image, resumed.image))
    problems.extend(resumed.problems)
    if resume_stats.replayed == 0:
        problems.append(
            f"vacuous resume: kill at {kill_at} replayed nothing "
            "(the crash landed on a checkpoint boundary)"
        )
    total_applied = first_stats.applied + resume_stats.applied
    if total_applied != baseline.outcome.applied:
        problems.append(
            f"applied-record mismatch: interrupted run applied "
            f"{total_applied}, uninterrupted {baseline.outcome.applied}"
        )
    counters = resumed.counters
    return {
        "kill_at": kill_at,
        "replayed": resume_stats.replayed,
        "deduplicated": first_stats.deduplicated + resume_stats.deduplicated,
        "disconnects": counters.get("feed.source.disconnects", 0),
        "reconnects": counters.get("feed.source.reconnects", 0),
        "partial_batches": counters.get("feed.batches.partial", 0),
    }


def _run_overload_leg(
    seed: int, records: int, problems: list[str]
) -> dict[str, Any]:
    def saturate(cluster: LSMCluster) -> int:
        for record in _feed_records(seed, records):
            if record.operation is FeedOperation.INSERT:
                cluster.insert(_DATASET, record.document)
        cluster.flush_all(_DATASET)
        cluster.drain_maintenance()
        cluster.recover_statistics()
        # Warm the merged-synopsis cache so degraded answers exist.
        cluster.estimate_detailed(_DATASET, "value_idx", 0, 255)

        # Deterministic saturation: stage admissions past the bound
        # before any worker runs, so the typed rejection is guaranteed.
        service = EstimateService(
            cluster,
            max_queue_depth=4,
            workers=2,
            default_timeout=_JOIN_DEADLINE_SECONDS,
            retry_policy=RetryPolicy.immediate(max_attempts=2),
            autostart=False,
        )
        staged_rejections = 0
        for i in range(service.max_queue_depth + 2):
            if not service.offer("stager", _DATASET, "value_idx", 0, 63 + i):
                staged_rejections += 1
        if staged_rejections != 2:
            problems.append(
                f"staged saturation expected 2 rejections, got "
                f"{staged_rejections}"
            )

        # Concurrent clients against the live service; sheds must be
        # typed, everyone must come back.
        service.start()
        overloads = [0] * 4
        completed = [0] * 4

        def client(index: int) -> None:
            for request_no in range(16):
                lo = (index * 97 + request_no * 31) % 768
                try:
                    service.estimate(
                        f"client-{index}", _DATASET, "value_idx", lo, lo + 127
                    )
                    completed[index] += 1
                except OverloadedError:
                    overloads[index] += 1

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(len(overloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(_JOIN_DEADLINE_SECONDS)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        if stuck:
            problems.append(
                f"deadlock: client threads never finished: {stuck}"
            )
        if sum(completed) + sum(overloads) != 16 * len(threads):
            problems.append(
                "lost requests: completions + sheds != submissions"
            )
        service.shutdown()
        if service.peak_queue_depth > service.max_queue_depth:
            problems.append(
                f"queue depth {service.peak_queue_depth} exceeded bound "
                f"{service.max_queue_depth}"
            )

        # Degraded flavour: no workers, an immediate timeout must fall
        # back to the possibly-stale cached merge, flagged as such.
        degraded_service = EstimateService(
            cluster,
            max_queue_depth=2,
            default_timeout=0.0,
            retry_policy=RetryPolicy.immediate(max_attempts=1),
            degraded_mode=True,
            autostart=False,
        )
        try:
            result = degraded_service.estimate(
                "degraded-client", _DATASET, "value_idx", 0, 255
            )
            if not result.degraded:
                problems.append("degraded answer not flagged degraded")
        except OverloadedError:
            problems.append(
                "degraded mode shed a request despite a warm cache"
            )
        degraded_service.shutdown()
        return service.peak_queue_depth

    run = verify.observe("overload", saturate, scheduler="threads")
    problems.extend(run.problems)
    counters = run.counters
    if not counters.get("serve.rejected", 0):
        problems.append("no serve.rejected counted anywhere in the leg")
    return {
        "requests": counters.get("serve.requests", 0),
        "rejected": counters.get("serve.rejected", 0),
        "degraded": counters.get("serve.degraded", 0),
        "timeouts": counters.get("serve.timeouts", 0),
        "peak_queue_depth": run.outcome,
    }


def run_servecheck(seed: int = 0, records: int = 512) -> ServeCheckReport:
    """Run both serving-resilience legs for one seed."""
    problems: list[str] = []
    resume = _run_resume_leg(seed, records, problems)
    overload = _run_overload_leg(seed, min(records, 256), problems)
    return ServeCheckReport(
        seed=seed,
        records=records,
        converged=not problems,
        kill_at=resume["kill_at"],
        replayed=resume["replayed"],
        deduplicated=resume["deduplicated"],
        disconnects=resume["disconnects"],
        reconnects=resume["reconnects"],
        partial_batches=resume["partial_batches"],
        requests=overload["requests"],
        rejected=overload["rejected"],
        degraded=overload["degraded"],
        timeouts=overload["timeouts"],
        peak_queue_depth=overload["peak_queue_depth"],
        problems=tuple(problems),
    )


def format_report(report: ServeCheckReport) -> str:
    lines = [
        f"servecheck seed={report.seed} records={report.records}",
        f"  resume: killed at {report.kill_at}, replayed "
        f"{report.replayed}, deduplicated {report.deduplicated}",
        f"  feed faults: disconnects={report.disconnects} "
        f"reconnects={report.reconnects} "
        f"partial_batches={report.partial_batches}",
        f"  overload: requests={report.requests} "
        f"rejected={report.rejected} degraded={report.degraded} "
        f"timeouts={report.timeouts} "
        f"peak_queue_depth={report.peak_queue_depth}",
    ]
    if report.converged:
        lines.append(
            "  converged: crash-resume is bit-identical and overload "
            "sheds typed rejections without deadlock"
        )
    else:
        lines.append("  FAILED:")
        lines.extend(f"    - {problem}" for problem in report.problems)
    return "\n".join(lines)
