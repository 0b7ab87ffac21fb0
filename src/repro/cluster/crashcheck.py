"""Seeded crash-recovery verification behind ``repro crashcheck``.

Runs the :mod:`repro.verify` op script on the canonical durable
cluster once crash-free (the baseline), then once per registered crash
point with a seeded :class:`~repro.lsm.crashpoints.CrashInjector`
armed.  When the simulated process death fires,
:func:`repro.verify.run_script` crash-restarts every node (all
in-memory state lost, disks survive), drains statistics recovery,
retries the interrupted operation if and only if its effect is absent
(the client-side at-least-once retry) and runs the rest of the script.
The run's image (:func:`repro.verify.image`: contents, catalog,
estimates) must then be *bit-identical* to the baseline's.

A negative control runs the same harness on a durable cluster with the
WAL disabled and must demonstrably lose acknowledged records -- the
check that the WAL is the thing earning the durability, not the
harness accidentally re-executing everything.

A second sweep re-runs the maintenance-lifecycle crash points on a
cluster whose flushes and merges run on the background scheduler (in
deterministic ``virtual`` mode, so the schedule is replayable): the
crash then fires inside a background task -- mid-rotation, mid-build or
mid-splice while ingestion is in flight -- and recovery must still be
bit-identical to the same synchronous baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro import verify
from repro.lsm.crashpoints import CRASH_POINTS, CrashInjector, CrashPlan

__all__ = ["CrashCheckReport", "run_crashcheck", "format_report"]

# The crash points a background flush/merge task passes through; the
# concurrent sweep arms exactly these on a virtual-scheduler cluster.
_CONCURRENT_POINTS = (
    "flush.rotate",
    "flush.build",
    "merge.build",
    "merge.splice",
)


@dataclass(frozen=True)
class CrashCheckReport:
    """Outcome of the per-crash-point recovery comparisons."""

    seed: int
    records: int
    converged: bool
    points_checked: tuple[str, ...]
    crashes_fired: int
    concurrent_points_checked: tuple[str, ...]
    concurrent_crashes_fired: int
    orphans_deleted: int
    replayed_ops: int
    rederived_synopses: int
    stale_epoch_drops: int
    control_records_lost: int
    problems: tuple[str, ...]


def run_crashcheck(seed: int = 0, records: int = 512) -> CrashCheckReport:
    """Verify bit-identical recovery at every registered crash point."""
    script = partial(verify.run_script, records=records)
    baseline = verify.observe("baseline", script)
    baseline_live = baseline.cluster.count_records(verify.DATASET)
    problems = list(baseline.problems)

    def crash_at(point: str, label: str, **mode) -> verify.Observed | None:
        """One seeded crash at ``point``; ``None`` when it never fired
        (the comparison would prove nothing)."""
        injector = CrashInjector.seeded(seed, point)
        run = verify.observe(label, script, crash_injector=injector, **mode)
        if injector.fired is None:
            problems.append(
                f"{label}: crash never fired (planned hit "
                f"{injector.plan.hit}, passages "
                f"{injector.hits.get(point, 0)})"
            )
            return None
        problems.extend(verify.compare(label, baseline.image, run.image))
        problems.extend(run.problems)
        return run

    crashes_fired = 0
    orphans_deleted = 0
    replayed_ops = 0
    rederived = 0
    stale_drops = 0
    for point in CRASH_POINTS:
        run = crash_at(point, point)
        if run is None:
            continue
        crashes_fired += 1
        orphans_deleted += run.counters.get("recovery.orphans.deleted", 0)
        replayed_ops += run.counters.get("recovery.replayed.ops", 0)
        rederived += run.counters.get("collector.synopses.rederived", 0)
        stale_drops += run.counters.get("cluster.stats.stale_epoch", 0)

    # Concurrent sweep: the same lifecycle points, but the flush/merge
    # that dies is a *background* task on the (deterministic) virtual
    # scheduler, with ingestion mid-flight around it.  Pending lane
    # work is discarded on restart -- exactly the in-memory loss a real
    # process death inflicts -- and recovery must still converge to the
    # synchronous crash-free baseline.
    concurrent_fired = 0
    for point in _CONCURRENT_POINTS:
        run = crash_at(
            point, f"virtual:{point}", scheduler="virtual", scheduler_seed=seed
        )
        concurrent_fired += run is not None

    # Negative control: same harness, WAL disabled.  The crash loses
    # the acknowledged records sitting in memtables; only the one
    # interrupted operation is retried, so the loss must be visible.
    control_injector = CrashInjector(CrashPlan("flush.build", 1))
    control = verify.observe(
        "control", script, wal_enabled=False, crash_injector=control_injector
    )
    control_lost = baseline_live - control.cluster.count_records(verify.DATASET)
    if control_injector.fired is None:
        problems.append("control: crash never fired")
    elif control_lost <= 0:
        problems.append(
            "control: WAL-less crash lost no acknowledged records "
            f"(lost={control_lost}) -- the check proves nothing"
        )

    return CrashCheckReport(
        seed=seed,
        records=records,
        converged=not problems,
        points_checked=CRASH_POINTS,
        crashes_fired=crashes_fired,
        concurrent_points_checked=_CONCURRENT_POINTS,
        concurrent_crashes_fired=concurrent_fired,
        orphans_deleted=orphans_deleted,
        replayed_ops=replayed_ops,
        rederived_synopses=rederived,
        stale_epoch_drops=stale_drops,
        control_records_lost=control_lost,
        problems=tuple(problems),
    )


def format_report(report: CrashCheckReport) -> str:
    lines = [
        f"crashcheck seed={report.seed} records={report.records}",
        f"  crash points: {report.crashes_fired}/"
        f"{len(report.points_checked)} fired",
        f"  concurrent (virtual scheduler): "
        f"{report.concurrent_crashes_fired}/"
        f"{len(report.concurrent_points_checked)} background-task "
        "crashes fired",
        f"  recovery: replayed_ops={report.replayed_ops}"
        f" rederived_synopses={report.rederived_synopses}"
        f" orphans_deleted={report.orphans_deleted}"
        f" stale_epoch_drops={report.stale_epoch_drops}",
        f"  control (no WAL): {report.control_records_lost}"
        " acknowledged records lost",
    ]
    if report.converged:
        lines.append(
            "  converged: contents, catalog and estimates are "
            "bit-identical to the crash-free run at every point"
        )
    else:
        lines.append("  DIVERGED:")
        lines.extend(f"    - {problem}" for problem in report.problems)
    return "\n".join(lines)
