"""Seeded crash injection for the LSM lifecycle.

Real LSM engines earn their durability story by surviving power loss at
the worst possible instant; this module provides the simulated worst
instants.  A :class:`CrashInjector` is threaded through the WAL,
manifest and the flush/merge/bulkload paths of
:class:`~repro.lsm.tree.LSMTree`; at each named *crash point* it may
raise :class:`SimulatedCrash`, modelling the process dying right there.

The crash model matches the storage simulation: everything already
appended to the :class:`~repro.lsm.storage.SimulatedDisk` (including
its superblock) survives; every in-memory object -- memtables, WAL
group buffers, component lists, statistics outboxes -- is lost.  Crash
points are registered only *immediately after* a durable action (a WAL
group commit, a manifest append, a sealed component build), so at every
crash point the on-disk state is exactly what a crashed process would
have fsynced -- which is what recovery must be able to restore from.

Styled after :mod:`repro.cluster.faults`: a frozen plan object, one
seeded RNG, deterministic replay from ``(seed, point)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry

__all__ = ["CRASH_POINTS", "SimulatedCrash", "CrashPlan", "CrashInjector"]

CRASH_POINTS = (
    "wal.commit",
    "wal.truncate",
    "manifest.begin",
    "manifest.commit",
    "txn.commit",
    "flush.rotate",
    "flush.build",
    "merge.build",
    "merge.splice",
    "merge.cleanup",
    "bulkload.build",
)
"""Every registered crash point, in rough lifecycle order.

``wal.commit``      after a WAL group commit page is durable
``wal.truncate``    after the superblock points at the fresh WAL file,
                    before the old file is deleted (orphan window)
``manifest.begin``  after a ``*_BEGIN`` manifest entry is durable
``manifest.commit`` after a ``*_COMMIT`` manifest entry is durable
``txn.commit``      after a dataset flush transaction commit is durable
``flush.rotate``    after the memtable rotated into the immutable queue,
                    before the flush builds anything (memory-only state:
                    recovery is identical to crashing before the flush)
``flush.build``     after a flush built+sealed its component file,
                    before the manifest commit installs it
``merge.build``     after a merge built+sealed the merged component,
                    before the manifest commit installs it
``merge.splice``    after the merge's manifest commit is durable, before
                    the in-memory component list is spliced (recovery
                    must install the committed merged component)
``merge.cleanup``   after the merge committed, before the replaced
                    component files are deleted
``bulkload.build``  after a bulkload built+sealed its component file,
                    before the manifest commit installs it
"""


class SimulatedCrash(BaseException):
    """The simulated process death raised at an armed crash point.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    the library's internal ``except Exception`` fault-isolation blocks
    -- which must survive a *sink* failing, not a *process* dying --
    can never accidentally swallow a crash.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class CrashPlan:
    """Where and when one crash fires.

    Attributes:
        point: The registered crash point to die at.
        hit: Fire on the ``hit``-th passage through the point (1-based),
            so a plan can target e.g. the third flush instead of the
            first.
    """

    point: str
    hit: int = 1

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ConfigurationError(
                f"unknown crash point {self.point!r}; "
                f"registered: {', '.join(CRASH_POINTS)}"
            )
        if self.hit < 1:
            raise ConfigurationError(f"hit must be >= 1, got {self.hit}")


class CrashInjector:
    """Raises :class:`SimulatedCrash` once, at a planned crash point.

    The injector is one-shot: after firing it disarms itself, so the
    recovery that follows (and the rest of the run) proceeds crash-free
    -- each injected fault is examined in isolation, exactly like the
    wire faults of :mod:`repro.cluster.faults` are seeded one plan at a
    time.  Passage counts are kept per point either way, so harnesses
    can assert a point was actually exercised.
    """

    def __init__(self, plan: CrashPlan | None = None) -> None:
        self.plan = plan
        self.fired: SimulatedCrash | None = None
        self.hits: dict[str, int] = {}
        obs = get_registry()
        self._m_crashes = obs.counter("crash.injected")

    @classmethod
    def seeded(cls, seed: int, point: str, max_hit: int = 3) -> "CrashInjector":
        """A plan for ``point`` whose hit number is drawn from
        ``random.Random(seed)`` in ``[1, max_hit]`` -- deterministic per
        seed, so a failing crashcheck run is replayable."""
        rng = random.Random(f"{seed}:{point}")
        return cls(CrashPlan(point, rng.randint(1, max_hit)))

    def reached(self, point: str) -> None:
        """Record a passage through ``point``; crash if the plan says so."""
        if point not in CRASH_POINTS:
            raise ConfigurationError(f"unregistered crash point {point!r}")
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        plan = self.plan
        if (
            plan is not None
            and self.fired is None
            and plan.point == point
            and plan.hit == hit
        ):
            crash = SimulatedCrash(point, hit)
            self.fired = crash
            self._m_crashes.inc()
            raise crash
