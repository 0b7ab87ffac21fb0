"""Concurrent-maintenance equivalence verification (``repro racecheck``).

The background scheduler's contract is that concurrency changes *when*
maintenance runs but never *what* it produces: after a drain, a cluster
that flushed and merged on background workers must be bit-identical --
partition contents, master catalog and a sweep of range estimates --
to one that did everything inline (the legacy synchronous mode, which
is also the crash-recovery oracle).

The check runs the :mod:`repro.verify` op script on the canonical
cluster three ways:

1. ``scheduler="sync"`` -- the baseline.  Every flush and merge happens
   inline with the triggering write.
2. ``scheduler="virtual"`` once per sweep seed -- the deterministic
   step-executor interleaves the per-partition maintenance lanes by
   seeded choice, so every schedule it explores is replayable from its
   seed.
3. ``scheduler="threads"`` once per sweep seed -- real worker threads,
   real preemption.  The OS schedule is not replayable, so each seed's
   run is simply one more sample of the nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro import verify

__all__ = ["RaceCheckReport", "run_racecheck", "format_report", "DEFAULT_SEEDS"]

#: Paced-mode merge budget (records/second).  High enough that the
#: scripted workload finishes promptly, low enough that thread-mode
#: merges actually hit the token bucket and sleep at chunk boundaries.
PACED_MERGE_RATE = 50_000.0

#: Memory-mode cluster budget (bytes).  Small enough that the scripted
#: workload's per-dataset allowance sits *below* the 32-record memtable
#: capacity, so arbitration-triggered early flushes genuinely fire --
#: the image-affecting decision whose mode-invariance this proves.
MEMORY_CHECK_BUDGET = 32_768

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
"""The default sweep: each seed drives one virtual-scheduler
interleaving and one real-thread run."""

QUICK_SEEDS: tuple[int, ...] = (0, 1)
"""The CI-sized sweep (``repro racecheck --quick``)."""


@dataclass(frozen=True)
class RaceCheckReport:
    """Outcome of the concurrent-vs-synchronous comparisons."""

    seeds: tuple[int, ...]
    records: int
    converged: bool
    runs_compared: int
    background_tasks: int
    stalls: int
    problems: tuple[str, ...]


def run_racecheck(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    records: int = 512,
    paced: bool = False,
    memory: bool = False,
) -> RaceCheckReport:
    """Verify that concurrent maintenance ends bit-identical to sync.

    With ``paced=True`` every run (baseline included) carries a merge
    pacer, proving pacing is image-neutral: it throttles *when* merge
    chunks are processed under real threads, never what they produce.

    With ``memory=True`` every run carries a deliberately tight
    :class:`~repro.lsm.memory.MemoryArbiter` budget, proving memory
    arbitration is image-neutral: early flushes trigger at the identical
    record under every scheduler mode (the allowance is a pure function
    of DML-thread state), and the pool backpressure/cache capacity
    responses only move timing.
    """
    # Both knobs are image-affecting or timing-affecting for *every*
    # run, so the baseline carries them too.
    shared = {
        "merge_pacing_rate": PACED_MERGE_RATE if paced else None,
        "memory_budget": MEMORY_CHECK_BUDGET if memory else None,
    }
    script = partial(verify.run_script, records=records)
    baseline = verify.observe("sync baseline", script, **shared)
    problems = list(baseline.problems)
    # The synchronous oracle has no background tasks, so a recorded
    # stall there is phantom backpressure (the wait() accounting bug
    # this guards against).
    baseline_stalls = baseline.counters.get("scheduler.stalls", 0)
    if baseline_stalls:
        problems.append(
            f"sync baseline recorded {baseline_stalls} stall(s); "
            "synchronous maintenance can never stall on itself"
        )
    # The memory sweep is vacuous unless the tight budget actually
    # triggered arbitration on the baseline.
    if memory and not baseline.counters.get("memory.pressure.early_flush", 0):
        problems.append(
            "memory mode ran but the baseline recorded zero early "
            "flushes -- the budget is too generous to exercise "
            "arbitration"
        )
    runs = 0
    background_tasks = 0
    stalls = 0
    for seed in seeds:
        for mode in ("virtual", "threads"):
            label = f"{mode}[seed={seed}]"
            try:
                run = verify.observe(
                    label, script, scheduler=mode, scheduler_seed=seed, **shared
                )
            except Exception as error:  # noqa: BLE001 - report, keep sweeping
                problems.append(f"{label}: workload failed: {error!r}")
                continue
            runs += 1
            problems.extend(verify.compare(label, baseline.image, run.image))
            problems.extend(run.problems)
            submitted = run.counters.get("scheduler.tasks.submitted", 0)
            completed = run.counters.get("scheduler.tasks.completed", 0)
            background_tasks += completed
            stalls += run.counters.get("scheduler.stalls", 0)
            if submitted == 0:
                problems.append(
                    f"{label}: no background tasks ran -- the mode fell "
                    "back to inline maintenance"
                )
            elif completed != submitted:
                problems.append(
                    f"{label}: {submitted - completed} of {submitted} "
                    "scheduled tasks never completed"
                )

    return RaceCheckReport(
        seeds=tuple(seeds),
        records=records,
        converged=not problems,
        runs_compared=runs,
        background_tasks=background_tasks,
        stalls=stalls,
        problems=tuple(problems),
    )


def format_report(report: RaceCheckReport) -> str:
    lines = [
        f"racecheck seeds={list(report.seeds)} records={report.records}",
        f"  runs: {report.runs_compared} concurrent runs compared "
        "against the synchronous baseline",
        f"  background: {report.background_tasks} maintenance tasks, "
        f"{report.stalls} write-path stalls",
    ]
    if report.converged:
        lines.append(
            "  converged: contents, catalog and estimates are "
            "bit-identical to the synchronous run for every seed and mode"
        )
    else:
        lines.append("  DIVERGED:")
        lines.extend(f"    - {problem}" for problem in report.problems)
    return "\n".join(lines)
