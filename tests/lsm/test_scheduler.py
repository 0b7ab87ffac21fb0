"""Unit tests for the maintenance scheduler (all three modes).

Covers the contract the engine's determinism argument rests on: lane
FIFO, ``front=True`` continuations, seeded replayability of the virtual
mode, off-thread failure capture, and the backpressure ``wait`` hook.
"""

import threading

import pytest

from repro.errors import ConfigurationError, SchedulerError, WaitUnderLockError
from repro.lsm.dataset import Dataset
from repro.lsm.storage import SimulatedDisk
from repro.lsm.scheduler import (
    DEFAULT_MAX_WORKERS,
    MERGE_STARVATION_LIMIT,
    SCHEDULER_MODES,
    SyncScheduler,
    ThreadPoolScheduler,
    VirtualScheduler,
    make_scheduler,
)
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import Domain


class _Boom(Exception):
    pass


class _FakeCrash(BaseException):
    """Stands in for SimulatedCrash: a non-Exception BaseException."""


def _registry():
    return MetricsRegistry()


# ---------------------------------------------------------------- factory


def test_make_scheduler_dispatches_every_mode():
    for mode in SCHEDULER_MODES:
        with use_registry(_registry()):
            scheduler = make_scheduler(mode)
        assert scheduler.mode == mode
        scheduler.shutdown()


def test_make_scheduler_rejects_unknown_mode():
    with pytest.raises(ConfigurationError, match="unknown scheduler mode"):
        with use_registry(_registry()):
            make_scheduler("fibers")


def test_thread_pool_rejects_zero_workers():
    with pytest.raises(ConfigurationError):
        with use_registry(_registry()):
            ThreadPoolScheduler(max_workers=0)


# ------------------------------------------------------------------- sync


def test_sync_runs_inline_and_raises_at_submit():
    with use_registry(_registry()):
        scheduler = SyncScheduler()
    assert scheduler.inline
    ran = []
    scheduler.submit(lambda: ran.append(1))
    assert ran == [1]
    assert scheduler.pending_count() == 0
    with pytest.raises(_Boom):
        scheduler.submit(lambda: (_ for _ in ()).throw(_Boom()))


# ---------------------------------------------------------------- virtual


def test_virtual_defers_until_stepped():
    with use_registry(_registry()):
        scheduler = VirtualScheduler()
    ran = []
    scheduler.submit(lambda: ran.append("a"))
    scheduler.submit(lambda: ran.append("b"))
    assert ran == []
    assert scheduler.pending_count() == 2
    assert scheduler.step()
    assert len(ran) == 1
    scheduler.drain()
    assert sorted(ran) == ["a", "b"]
    assert not scheduler.step()  # idle


def test_virtual_lane_is_fifo_and_front_jumps_the_queue():
    with use_registry(_registry()):
        scheduler = VirtualScheduler()
    ran = []
    scheduler.submit(lambda: ran.append(1), lane="l")
    scheduler.submit(lambda: ran.append(2), lane="l")
    scheduler.submit(lambda: ran.append(0), lane="l", front=True)
    scheduler.drain()
    assert ran == [0, 1, 2]


def test_virtual_same_seed_replays_same_interleaving():
    def run(seed):
        with use_registry(_registry()):
            scheduler = VirtualScheduler(seed=seed)
        order = []
        for lane in ("a", "b", "c"):
            for index in range(4):
                scheduler.submit(
                    lambda lane=lane, index=index: order.append(
                        (lane, index)
                    ),
                    lane=lane,
                )
        scheduler.drain()
        return order

    assert run(7) == run(7)
    # Lane-internal order is FIFO regardless of the interleaving drawn.
    for order in (run(7), run(8)):
        for lane in ("a", "b", "c"):
            assert [i for ln, i in order if ln == lane] == [0, 1, 2, 3]
    # At least one seed pair interleaves the lanes differently.
    assert any(run(0) != run(seed) for seed in range(1, 20))


def test_virtual_failure_raises_at_the_step_that_ran_it():
    with use_registry(_registry()):
        scheduler = VirtualScheduler()
    scheduler.submit(lambda: (_ for _ in ()).throw(_Boom()))
    with pytest.raises(_Boom):
        scheduler.drain()


def test_virtual_wait_runs_pending_tasks_until_predicate_holds():
    registry = _registry()
    with use_registry(registry):
        scheduler = VirtualScheduler()
    state = []
    for _ in range(3):
        scheduler.submit(lambda: state.append(1))
    scheduler.wait(lambda: len(state) >= 2)
    assert len(state) == 2
    assert scheduler.pending_count() == 1
    assert registry.snapshot()["counters"]["scheduler.stalls"] == 1


def test_virtual_wait_returns_when_idle_and_predicate_still_false():
    with use_registry(_registry()):
        scheduler = VirtualScheduler()
    scheduler.wait(lambda: False)  # must not hang


# ---------------------------------------------------------------- threads


def test_threads_runs_off_the_calling_thread():
    with use_registry(_registry()):
        scheduler = ThreadPoolScheduler()
    try:
        threads = []
        scheduler.submit(lambda: threads.append(threading.current_thread()))
        scheduler.drain()
        assert threads and threads[0] is not threading.main_thread()
    finally:
        scheduler.shutdown()


def test_threads_lane_never_runs_two_tasks_concurrently():
    with use_registry(_registry()):
        scheduler = ThreadPoolScheduler(max_workers=4)
    try:
        active = 0
        overlap = []
        order = []
        guard = threading.Lock()

        def task(index):
            nonlocal active
            with guard:
                active += 1
                if active > 1:
                    overlap.append(index)
            order.append(index)
            with guard:
                active -= 1

        for index in range(50):
            scheduler.submit(lambda index=index: task(index), lane="only")
        scheduler.drain()
        assert overlap == []
        assert order == list(range(50))  # FIFO survived real threads
    finally:
        scheduler.shutdown()


def test_threads_failure_is_captured_and_reraised_at_drain():
    with use_registry(_registry()):
        scheduler = ThreadPoolScheduler()
    try:
        scheduler.submit(lambda: (_ for _ in ()).throw(_Boom("bg")))
        with pytest.raises(SchedulerError, match="maintenance task"):
            scheduler.drain()
        scheduler.drain()  # failures are consumed: second drain is clean
    finally:
        scheduler.shutdown()


def test_threads_base_exception_is_reraised_raw():
    with use_registry(_registry()):
        scheduler = ThreadPoolScheduler()
    try:
        def die():
            raise _FakeCrash()

        scheduler.submit(die)
        with pytest.raises(_FakeCrash):
            scheduler.drain()
    finally:
        scheduler.shutdown()


def test_threads_submit_after_shutdown_raises():
    with use_registry(_registry()):
        scheduler = ThreadPoolScheduler()
    scheduler.shutdown()
    with pytest.raises(SchedulerError, match="shut-down"):
        scheduler.submit(lambda: None)


def test_threads_wait_observes_background_progress():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler()
    try:
        done = []
        release = threading.Event()

        def task():
            release.wait(timeout=5.0)
            done.append(1)

        scheduler.submit(task)
        release.set()
        scheduler.wait(lambda: bool(done))
        assert done
    finally:
        scheduler.shutdown()


# ---------------------------------------------------------------- metrics


def test_scheduler_metrics_balance_after_drain():
    for mode in ("virtual", "threads"):
        registry = _registry()
        with use_registry(registry):
            scheduler = make_scheduler(mode)
        try:
            for _ in range(5):
                scheduler.submit(lambda: None)
            scheduler.drain()
            counters = registry.snapshot()["counters"]
            assert counters["scheduler.tasks.submitted"] == 5
            assert counters["scheduler.tasks.completed"] == 5
            assert counters.get("scheduler.tasks.failed", 0) == 0
            gauges = registry.snapshot()["gauges"]
            assert gauges["scheduler.queue.depth"] == 0
        finally:
            scheduler.shutdown()


def test_default_worker_count_is_sane():
    assert DEFAULT_MAX_WORKERS >= 1


def test_sync_completed_counts_successes_only():
    registry = _registry()
    with use_registry(registry):
        scheduler = SyncScheduler()
    scheduler.submit(lambda: None)
    with pytest.raises(_Boom):
        scheduler.submit(lambda: (_ for _ in ()).throw(_Boom()))
    counters = registry.snapshot()["counters"]
    assert counters["scheduler.tasks.submitted"] == 2
    assert counters["scheduler.tasks.completed"] == 1
    assert counters["scheduler.tasks.failed"] == 1
    assert registry.snapshot()["gauges"]["scheduler.queue.depth"] == 0


def test_submitted_equals_completed_plus_failed_plus_pending():
    """The accounting invariant across both background modes: a failed
    task lands in exactly one of completed/failed, never both."""
    for mode in ("virtual", "threads"):
        registry = _registry()
        with use_registry(registry):
            scheduler = make_scheduler(mode)
        try:
            for index in range(6):
                if index % 3 == 0:
                    scheduler.submit(lambda: (_ for _ in ()).throw(_Boom()))
                else:
                    scheduler.submit(lambda: None)
            # Virtual drain raises at each failing step; threads drain
            # runs everything then re-raises the first failure wrapped.
            for _ in range(6):
                try:
                    scheduler.drain()
                    break
                except (_Boom, SchedulerError):
                    continue
            counters = registry.snapshot()["counters"]
            assert counters["scheduler.tasks.submitted"] == 6
            assert counters["scheduler.tasks.failed"] == 2
            assert counters["scheduler.tasks.completed"] == 4
            assert (
                counters["scheduler.tasks.submitted"]
                == counters["scheduler.tasks.completed"]
                + counters["scheduler.tasks.failed"]
                + scheduler.pending_count()
            )
            assert registry.snapshot()["gauges"]["scheduler.queue.depth"] == 0
        finally:
            scheduler.shutdown()


def test_virtual_shutdown_discards_pending_and_zeroes_depth():
    registry = _registry()
    with use_registry(registry):
        scheduler = VirtualScheduler()
    for _ in range(4):
        scheduler.submit(lambda: None)
    assert scheduler.pending_count() == 4
    scheduler.shutdown()
    assert scheduler.pending_count() == 0
    assert registry.snapshot()["gauges"]["scheduler.queue.depth"] == 0


def test_threads_shutdown_discards_queued_tasks_and_zeroes_depth():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=2)
    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(timeout=5.0)

    scheduler.submit(blocker, lane="a")
    assert started.wait(timeout=5.0)
    # Queued behind the blocker on the same lane: they cannot start, so
    # shutdown must discard them -- and still zero the accounting.
    for _ in range(5):
        scheduler.submit(lambda: None, lane="a")
    threading.Timer(0.05, release.set).start()
    scheduler.shutdown()
    assert scheduler.pending_count() == 0
    assert registry.snapshot()["gauges"]["scheduler.queue.depth"] == 0
    scheduler.shutdown()  # idempotent: a second call must not go negative
    assert registry.snapshot()["gauges"]["scheduler.queue.depth"] == 0


# ------------------------------------------------------------------ stalls


def test_sync_wait_records_no_stall():
    """Sync mode has no background tasks, so a false predicate can
    never flip -- recording a stall would be phantom backpressure."""
    registry = _registry()
    with use_registry(registry):
        scheduler = SyncScheduler()
    scheduler.wait(lambda: False)
    scheduler.wait(lambda: True)
    counters = registry.snapshot()["counters"]
    assert counters.get("scheduler.stalls", 0) == 0
    assert registry.snapshot()["histograms"]["scheduler.stall.seconds"][
        "count"
    ] == 0


def test_virtual_idle_wait_records_no_stall():
    registry = _registry()
    with use_registry(registry):
        scheduler = VirtualScheduler()
    scheduler.wait(lambda: False)  # idle: nothing can change the predicate
    assert registry.snapshot()["counters"].get("scheduler.stalls", 0) == 0


def test_virtual_blocked_wait_stalls_once_with_duration():
    registry = _registry()
    with use_registry(registry):
        scheduler = VirtualScheduler()
    state = []
    scheduler.submit(lambda: state.append(1))
    scheduler.wait(lambda: bool(state))
    snapshot = registry.snapshot()
    assert snapshot["counters"]["scheduler.stalls"] == 1
    assert snapshot["histograms"]["scheduler.stall.seconds"]["count"] == 1


def test_threads_blocked_wait_stalls_once_and_wakes_on_predicate_flip():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler()
    try:
        done = []
        release = threading.Event()

        def task():
            release.wait(timeout=5.0)
            done.append(1)

        scheduler.submit(task)
        threading.Timer(0.1, release.set).start()
        scheduler.wait(lambda: bool(done))  # flips while wait is blocked
        assert done
        snapshot = registry.snapshot()
        assert snapshot["counters"]["scheduler.stalls"] == 1
        assert snapshot["histograms"]["scheduler.stall.seconds"]["count"] == 1
    finally:
        scheduler.shutdown()


# ----------------------------------------------------------- fair dispatch


def _block_the_only_worker(scheduler):
    started = threading.Event()
    gate = threading.Event()

    def blocker():
        started.set()
        gate.wait(timeout=5.0)

    scheduler.submit(blocker, lane="gate")
    assert started.wait(timeout=5.0)
    return gate


def test_threads_flush_lane_jumps_merge_lanes_under_pressure():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=1)
    try:
        scheduler.add_pressure_probe(lambda: True)
        order = []
        gate = _block_the_only_worker(scheduler)
        # FIFO would run the merge lanes first; under backpressure the
        # flush lane must be dispatched ahead of both.
        scheduler.submit(lambda: order.append("merge-a"), lane="a", kind="merge")
        scheduler.submit(lambda: order.append("merge-b"), lane="b", kind="merge")
        scheduler.submit(lambda: order.append("flush"), lane="f", kind="flush")
        gate.set()
        scheduler.drain()
        assert order[0] == "flush"
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.dispatch.flush_first"] >= 1
    finally:
        scheduler.shutdown()


def test_threads_fair_dispatch_respects_starvation_limit():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=1)
    try:
        scheduler.add_pressure_probe(lambda: True)
        order = []
        gate = _block_the_only_worker(scheduler)
        scheduler.submit(lambda: order.append("merge"), lane="m", kind="merge")
        for index in range(MERGE_STARVATION_LIMIT + 2):
            scheduler.submit(
                lambda index=index: order.append(f"flush-{index}"),
                lane=f"f{index}",
                kind="flush",
            )
        gate.set()
        scheduler.drain()
        # Exactly MERGE_STARVATION_LIMIT flushes jump ahead, then the
        # waiting merge lane is served regardless of pressure.
        assert order.index("merge") == MERGE_STARVATION_LIMIT
    finally:
        scheduler.shutdown()


def test_threads_without_pressure_keeps_fifo_across_lanes():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=1)
    try:
        order = []
        gate = _block_the_only_worker(scheduler)
        scheduler.submit(lambda: order.append("merge"), lane="m", kind="merge")
        scheduler.submit(lambda: order.append("flush"), lane="f", kind="flush")
        gate.set()
        scheduler.drain()
        assert order == ["merge", "flush"]
        counters = registry.snapshot()["counters"]
        assert counters.get("scheduler.dispatch.flush_first", 0) == 0
    finally:
        scheduler.shutdown()


def test_broken_pressure_probe_never_wedges_dispatch():
    registry = _registry()
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=1)
    try:
        scheduler.add_pressure_probe(
            lambda: (_ for _ in ()).throw(_Boom())
        )
        ran = []
        scheduler.submit(lambda: ran.append(1), kind="merge")
        scheduler.submit(lambda: ran.append(2), kind="flush")
        scheduler.drain()
        assert sorted(ran) == [1, 2]
    finally:
        scheduler.shutdown()


# ------------------------------------------------------------ lock witness


@pytest.mark.parametrize("mode", SCHEDULER_MODES)
def test_wait_under_a_datasets_dml_lock_raises(mode):
    """The backpressure wait refuses a caller holding the DML lock the
    flush task it waits for must take -- in every mode, not only where
    it would deadlock."""
    with use_registry(_registry()):
        scheduler = make_scheduler(mode)
    dataset = Dataset(
        "orders",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 1023),
        scheduler=scheduler,
    )
    try:
        with dataset._dml_lock:
            with pytest.raises(WaitUnderLockError):
                dataset._await_flush_capacity()
            with pytest.raises(WaitUnderLockError):
                scheduler.wait(lambda: True)
        dataset._await_flush_capacity()  # released: no error
    finally:
        scheduler.shutdown()


def test_lock_held_by_another_thread_is_not_the_callers():
    with use_registry(_registry()):
        scheduler = VirtualScheduler()
    lock = threading.RLock()
    scheduler.witness_lock(lock)
    held, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            held.set()
            release.wait(5.0)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(5.0)
        scheduler.wait(lambda: True)  # the lock is not this thread's
    finally:
        release.set()
        holder.join(5.0)
    assert not holder.is_alive()
