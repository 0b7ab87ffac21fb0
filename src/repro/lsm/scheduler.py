"""Background maintenance scheduling for the LSM lifecycle.

AsterixDB runs flushes and merges on worker threads while ingestion
continues; this module supplies that subsystem in three interchangeable
modes so the same engine code serves production *and* deterministic
testing:

* :class:`SyncScheduler` -- ``submit`` runs the task inline on the
  calling thread.  A dataset on it calls its flush and merge bodies
  directly, synchronous with the write that triggered them, and never
  submits.  The default, and the oracle the other modes are compared
  against.
* :class:`ThreadPoolScheduler` -- a bounded pool of real ``threading``
  workers.  Used by production-style runs and the thread-stress suite.
* :class:`VirtualScheduler` -- a seeded single-threaded step-executor:
  pending tasks wait until the harness calls :meth:`~VirtualScheduler.step`
  (or ``drain``/``wait``), and each step picks the next lane by seeded
  choice.  Every interleaving is replayable from ``(seed, op script)``,
  the same design lever the fault and crash harnesses use.

**Lanes.**  Tasks are submitted into named FIFO *lanes*; a lane never
runs two tasks concurrently and never reorders them (except explicit
``front=True`` continuations, which jump the lane's queue).  All
maintenance of one dataset shares one lane, which is what makes the
concurrent modes end bit-identical to a synchronous run: per dataset,
flushes install in rotation order and each flush's merge continuations
run before the next flush, exactly the decision sequence the inline
code produces -- only the interleaving *between* datasets (and with the
ingest/query/stats traffic) varies.

**Fair dispatch.**  Submissions carry a ``kind`` (``"flush"``,
``"merge"``, or generic ``"task"``).  The thread-pool mode uses it to
keep writers stall-free: while any registered backpressure probe
reports the immutable queue near capacity, ready *flush* lanes are
dispatched ahead of merge lanes -- bounded by a starvation limit so
merges always make progress.  Reordering only ever happens *across*
lanes, whose relative order is already unconstrained, so the per-lane
determinism argument above is untouched.

Metrics (docs/OBSERVABILITY.md): ``scheduler.tasks.submitted`` /
``.completed`` / ``.failed`` (``completed`` counts successes only, so
``submitted == completed + failed + pending`` at all times),
``scheduler.queue.depth``, ``scheduler.task.seconds``,
``scheduler.dispatch.flush_first``, and the backpressure pair
``scheduler.stalls`` / ``scheduler.stall.seconds``.
"""

from __future__ import annotations

import random
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable

from repro.errors import ConfigurationError, SchedulerError, WaitUnderLockError
from repro.obs.registry import get_registry

__all__ = [
    "MaintenanceScheduler",
    "SyncScheduler",
    "ThreadPoolScheduler",
    "VirtualScheduler",
    "SchedulerError",
    "WaitUnderLockError",
    "SCHEDULER_MODES",
    "make_scheduler",
    "DEFAULT_MAX_WORKERS",
    "MERGE_STARVATION_LIMIT",
]

SCHEDULER_MODES = ("sync", "threads", "virtual")
"""The supported ``scheduler=`` modes, see :func:`make_scheduler`."""

DEFAULT_MAX_WORKERS = 2
"""Worker threads of a :class:`ThreadPoolScheduler` unless overridden."""

DEFAULT_LANE = "default"

MERGE_STARVATION_LIMIT = 4
"""Consecutive flush-first dispatches before a waiting merge lane is
served regardless of backpressure (starvation protection)."""


Task = Callable[[], None]


class MaintenanceScheduler(ABC):
    """Common contract of the three scheduler modes."""

    #: One of :data:`SCHEDULER_MODES`; also keys ``make_scheduler``.
    mode: str = "abstract"

    def __init__(self) -> None:
        obs = get_registry()
        self._m_submitted = obs.counter("scheduler.tasks.submitted")
        self._m_completed = obs.counter("scheduler.tasks.completed")
        self._m_failed = obs.counter("scheduler.tasks.failed")
        self._m_stalls = obs.counter("scheduler.stalls")
        self._m_flush_first = obs.counter("scheduler.dispatch.flush_first")
        self._g_depth = obs.gauge("scheduler.queue.depth")
        self._h_task = obs.histogram("scheduler.task.seconds")
        self._h_stall = obs.histogram("scheduler.stall.seconds")
        self._pressure_probes: list[Callable[[], bool]] = []
        self._witnessed: list[threading.RLock] = []

    @property
    def inline(self) -> bool:
        """True when ``submit`` runs tasks on the calling thread
        immediately (the synchronous compatibility mode)."""
        return False

    @abstractmethod
    def submit(
        self,
        task: Task,
        lane: str = DEFAULT_LANE,
        front: bool = False,
        kind: str = "task",
    ) -> None:
        """Enqueue ``task`` on ``lane``.  ``front=True`` puts it at the
        head of the lane (a continuation of the task that submitted it);
        lanes are otherwise strict FIFO and never run two tasks at once.
        ``kind`` classifies the task (``"flush"``/``"merge"``/``"task"``)
        for fair dispatch; it never affects per-lane ordering.
        """

    def add_pressure_probe(self, probe: Callable[[], bool]) -> None:
        """Register a backpressure probe (True = writers are close to
        stalling).  The thread-pool dispatcher consults the probes to
        prioritize flush lanes; the deterministic modes ignore them."""
        self._pressure_probes.append(probe)

    def _under_pressure(self) -> bool:
        for probe in self._pressure_probes:
            try:
                if probe():
                    return True
            except Exception:
                continue  # a dead probe must never wedge dispatch
        return False

    def witness_lock(self, lock: threading.RLock) -> None:
        """Register a lock :meth:`wait` refuses to run under: a
        dataset's DML lock, which the flush task a writer waits for
        takes.  Held across the wait, it deadlocks the thread-pool mode;
        the deterministic modes run that task on the waiting thread and
        would never notice, so the witness makes the mistake fail in
        every mode."""
        self._witnessed.append(lock)

    @abstractmethod
    def drain(self) -> None:
        """Run/await every pending task (including ones submitted while
        draining) until the scheduler is idle.  Task failures captured
        off-thread are re-raised here."""

    @abstractmethod
    def pending_count(self) -> int:
        """Tasks submitted but not yet completed."""

    def wait(self, predicate: Callable[[], bool]) -> None:
        """Backpressure hook: block (or, in virtual mode, run pending
        tasks) until ``predicate()`` holds or no pending task can change
        it.  Records a stall when it could not return immediately *and*
        the scheduler could actually make progress -- with nothing
        pending (sync mode always, idle virtual/threads) nothing can
        flip the predicate, so counting a stall would report phantom
        backpressure.

        Raises :class:`WaitUnderLockError` when the calling thread holds
        a witnessed lock (:meth:`witness_lock`), whether or not it would
        have had to wait."""
        for lock in self._witnessed:
            if lock._is_owned():  # type: ignore[attr-defined]
                raise WaitUnderLockError(
                    "backpressure wait entered while holding a dataset's "
                    "DML lock; release it first"
                )
        if predicate():
            return
        if self.pending_count() == 0:
            return
        self._m_stalls.inc()
        started = time.perf_counter()
        try:
            self._wait(predicate)
        finally:
            self._h_stall.observe(time.perf_counter() - started)

    @abstractmethod
    def _wait(self, predicate: Callable[[], bool]) -> None:
        """Mode-specific blocking loop behind :meth:`wait`."""

    def shutdown(self) -> None:
        """Release worker resources; pending tasks are discarded (the
        crash-restart semantics: in-memory work in flight is lost)."""

    def _run_task(self, task: Task) -> BaseException | None:
        """Execute one task with timing/outcome accounting; returns the
        failure instead of raising so callers choose propagation."""
        started = time.perf_counter()
        try:
            task()
        except BaseException as exc:  # SimulatedCrash included
            self._m_failed.inc()
            return exc
        finally:
            self._h_task.observe(time.perf_counter() - started)
            self._g_depth.inc(-1)
        # Success only: a failed task must count in exactly one of
        # completed/failed so submitted == completed + failed + pending.
        self._m_completed.inc()
        return None


class SyncScheduler(MaintenanceScheduler):
    """Runs every task inline at submit time."""

    mode = "sync"

    @property
    def inline(self) -> bool:
        return True

    def submit(
        self,
        task: Task,
        lane: str = DEFAULT_LANE,
        front: bool = False,
        kind: str = "task",
    ) -> None:
        self._m_submitted.inc()
        self._g_depth.inc(1)
        failure = self._run_task(task)
        if failure is not None:
            raise failure

    def drain(self) -> None:
        return  # nothing is ever pending

    def pending_count(self) -> int:
        return 0

    def _wait(self, predicate: Callable[[], bool]) -> None:
        return  # no background task can change the predicate


class VirtualScheduler(MaintenanceScheduler):
    """A deterministic seeded step-executor.

    Tasks accumulate in their lanes until the harness advances the
    scheduler: :meth:`step` runs exactly one task from a seeded-random
    non-empty lane, :meth:`drain` steps until idle, and :meth:`wait`
    steps until the predicate holds.  Replaying the same seed against
    the same submission sequence reproduces the interleaving exactly.
    Task exceptions (including :class:`~repro.lsm.crashpoints.SimulatedCrash`)
    propagate on the calling thread at the step that ran the task.
    """

    mode = "virtual"

    def __init__(self, seed: int | str = 0) -> None:
        super().__init__()
        self._rng = random.Random(f"scheduler:{seed}")
        self._lanes: dict[str, deque[Task]] = {}

    def submit(
        self,
        task: Task,
        lane: str = DEFAULT_LANE,
        front: bool = False,
        kind: str = "task",
    ) -> None:
        queue = self._lanes.setdefault(lane, deque())
        if front:
            queue.appendleft(task)
        else:
            queue.append(task)
        self._m_submitted.inc()
        self._g_depth.inc(1)

    def pending_count(self) -> int:
        return sum(len(queue) for queue in self._lanes.values())

    def step(self) -> bool:
        """Run one pending task from a seeded-random lane; returns
        False when nothing was pending."""
        nonempty = sorted(lane for lane, queue in self._lanes.items() if queue)
        if not nonempty:
            return False
        lane = (
            nonempty[0]
            if len(nonempty) == 1
            else self._rng.choice(nonempty)
        )
        task = self._lanes[lane].popleft()
        failure = self._run_task(task)
        if failure is not None:
            raise failure
        return True

    def drain(self) -> None:
        while self.step():
            pass

    def _wait(self, predicate: Callable[[], bool]) -> None:
        while not predicate():
            if not self.step():
                return  # idle and still false: nothing will change it

    def shutdown(self) -> None:
        discarded = self.pending_count()
        if discarded:
            self._g_depth.inc(-discarded)
        self._lanes.clear()


class ThreadPoolScheduler(MaintenanceScheduler):
    """A bounded pool of real worker threads with lane-FIFO dispatch.

    A lane is handed to a worker only while no other worker is running
    one of its tasks, so the per-lane serialization the determinism
    argument rests on holds under true concurrency.  Failures are
    captured and re-raised by the next :meth:`drain` (maintenance must
    never kill a writer thread silently).

    Dispatch is FIFO across ready lanes, with one exception: while a
    backpressure probe reports writers near the stall point, a ready
    lane whose head task is a *flush* is served before merge lanes, so
    a long merge in one dataset cannot back up the immutable queues of
    the others.  At most :data:`MERGE_STARVATION_LIMIT` consecutive
    dispatches may skip ahead of a waiting merge lane before it is
    served regardless -- merges are what keep the component count (and
    with it, read amplification) bounded."""

    mode = "threads"

    def __init__(self, max_workers: int = DEFAULT_MAX_WORKERS) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        super().__init__()
        self._mutex = threading.Lock()
        self._changed = threading.Condition(self._mutex)
        self._lanes: dict[str, deque[tuple[Task, str]]] = {}
        self._ready: deque[str] = deque()  # lanes with work, not running
        self._running: set[str] = set()
        self._pending = 0
        self._failures: list[BaseException] = []
        self._shutdown = False
        self._merge_deferrals = 0  # consecutive flush-first dispatches
        self._workers = [
            threading.Thread(
                target=self._work,
                name=f"lsm-maintenance-{index}",
                daemon=True,
            )
            for index in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    def submit(
        self,
        task: Task,
        lane: str = DEFAULT_LANE,
        front: bool = False,
        kind: str = "task",
    ) -> None:
        with self._changed:
            if self._shutdown:
                raise SchedulerError("submit on a shut-down scheduler")
            queue = self._lanes.setdefault(lane, deque())
            if front:
                queue.appendleft((task, kind))
            else:
                queue.append((task, kind))
            self._pending += 1
            if lane not in self._running and lane not in self._ready:
                self._ready.append(lane)
            self._m_submitted.inc()
            self._g_depth.inc(1)
            self._changed.notify()

    def pending_count(self) -> int:
        with self._mutex:
            return self._pending

    def add_pressure_probe(self, probe: Callable[[], bool]) -> None:
        with self._mutex:
            self._pressure_probes.append(probe)

    def _lane_kind(self, lane: str) -> str:
        queue = self._lanes.get(lane)
        return queue[0][1] if queue else "task"

    def _pick_lane(self) -> str:
        """Choose the next ready lane (lock held, ``_ready`` nonempty).

        FIFO by default; under backpressure a flush lane may jump ahead
        of merge lanes, bounded by :data:`MERGE_STARVATION_LIMIT`."""
        head = self._ready[0]
        if (
            len(self._ready) > 1
            and self._lane_kind(head) != "flush"
            and self._merge_deferrals < MERGE_STARVATION_LIMIT
            and self._under_pressure()
        ):
            for index in range(1, len(self._ready)):
                candidate = self._ready[index]
                if self._lane_kind(candidate) == "flush":
                    del self._ready[index]
                    self._merge_deferrals += 1
                    self._m_flush_first.inc()
                    return candidate
        self._ready.popleft()
        self._merge_deferrals = 0
        return head

    def _work(self) -> None:
        while True:
            with self._changed:
                while not self._ready and not self._shutdown:
                    self._changed.wait()
                if self._shutdown:
                    return
                lane = self._pick_lane()
                task, _kind = self._lanes[lane].popleft()
                self._running.add(lane)
            failure = self._run_task(task)
            with self._changed:
                self._running.discard(lane)
                self._pending -= 1
                if failure is not None:
                    self._failures.append(failure)
                if self._lanes.get(lane):
                    self._ready.append(lane)
                self._changed.notify_all()

    def drain(self) -> None:
        with self._changed:
            while self._pending and not self._shutdown:
                self._changed.wait()
            failures, self._failures = self._failures, []
        if failures:
            first = failures[0]
            if isinstance(first, BaseException) and not isinstance(
                first, Exception
            ):
                raise first  # e.g. SimulatedCrash: never wrap process death
            raise SchedulerError(
                f"{len(failures)} background maintenance task(s) failed; "
                f"first: {first!r}"
            ) from first

    def _wait(self, predicate: Callable[[], bool]) -> None:
        with self._changed:
            while not predicate():
                if not self._pending or self._shutdown:
                    return
                self._changed.wait(timeout=0.1)

    def shutdown(self) -> None:
        with self._changed:
            if not self._shutdown:
                self._shutdown = True
                # Queued tasks are discarded (crash-restart semantics);
                # account for them so queue.depth/_pending return to 0
                # instead of leaking the discarded work forever.
                discarded = sum(len(q) for q in self._lanes.values())
                if discarded:
                    self._pending -= discarded
                    self._g_depth.inc(-discarded)
                self._lanes.clear()
                self._ready.clear()
            self._changed.notify_all()
        for worker in self._workers:
            if worker is not threading.current_thread():
                worker.join(timeout=5.0)


def make_scheduler(
    mode: str,
    seed: int | str = 0,
    max_workers: int = DEFAULT_MAX_WORKERS,
) -> MaintenanceScheduler:
    """Build a scheduler from its mode name (``"sync"`` | ``"threads"``
    | ``"virtual"``), the form the dataset/cluster constructors and the
    README document."""
    if mode == "sync":
        return SyncScheduler()
    if mode == "threads":
        return ThreadPoolScheduler(max_workers=max_workers)
    if mode == "virtual":
        return VirtualScheduler(seed=seed)
    raise ConfigurationError(
        f"unknown scheduler mode {mode!r}; expected one of {SCHEDULER_MODES}"
    )
