"""Thread-stress suite: real workers, real preemption, hard invariants.

N writer threads ingest into one dataset while M reader threads scan and
point-look-up concurrently with background flushes and merges on a
:class:`ThreadPoolScheduler`.  The invariants are the snapshot-isolation
contract:

* a reader never observes a half-spliced component list -- every scan
  yields strictly increasing, duplicate-free keys and never raises;
* component refcounts return to zero once readers and maintenance are
  done, and no component is destroyed while pinned (scans over MERGED
  components must complete);
* the final state equals the model regardless of the interleaving.

``faulthandler`` arms a watchdog per test so a deadlock produces thread
tracebacks instead of a silent CI hang.
"""

import faulthandler
import threading

import pytest

from repro import verify
from repro.lsm.component import ComponentState
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.scheduler import ThreadPoolScheduler
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import Domain

WRITERS = 4
READERS = 3
RECORDS_PER_WRITER = 300
STRESS_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def watchdog():
    """Dump all-thread tracebacks if a stress test wedges."""
    faulthandler.dump_traceback_later(STRESS_TIMEOUT, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _build(registry):
    with use_registry(registry):
        scheduler = ThreadPoolScheduler(max_workers=3)
    dataset = Dataset(
        "stress",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=64,
        merge_policy=ConstantMergePolicy(max_components=3),
        scheduler=scheduler,
    )
    return dataset, scheduler


def test_writers_and_readers_race_background_maintenance():
    registry = MetricsRegistry()
    with use_registry(registry):
        dataset, scheduler = _build(registry)
        stop = threading.Event()
        errors = []

        def writer(base):
            try:
                for offset in range(RECORDS_PER_WRITER):
                    pk = base + offset
                    dataset.insert({"id": pk, "value": pk % 1024})
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(("writer", base, repr(exc)))

        def reader():
            try:
                while not stop.is_set():
                    previous = None
                    for record in dataset.primary.scan():
                        key = record.key
                        if previous is not None and key <= previous:
                            errors.append(
                                ("reader", "unsorted-or-duplicate", key)
                            )
                            return
                        previous = key
                    # Point reads race the component splice too.
                    document = dataset.get(17)
                    if document is not None and document["id"] != 17:
                        errors.append(("reader", "wrong-document", document))
                        return
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(("reader", "raised", repr(exc)))

        writer_threads = [
            threading.Thread(target=writer, args=(index * 10_000,))
            for index in range(WRITERS)
        ]
        reader_threads = [
            threading.Thread(target=reader) for _ in range(READERS)
        ]
        for thread in reader_threads + writer_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=STRESS_TIMEOUT)
        stop.set()
        for thread in reader_threads:
            thread.join(timeout=STRESS_TIMEOUT)
        assert not any(t.is_alive() for t in writer_threads + reader_threads)

        dataset.flush()  # drain barrier under concurrent schedulers
        dataset.drain_maintenance()
        scheduler.shutdown()

        assert errors == []
        assert dataset.count_records() == WRITERS * RECORDS_PER_WRITER
        expected = sorted(
            index * 10_000 + offset
            for index in range(WRITERS)
            for offset in range(RECORDS_PER_WRITER)
        )
        assert [r.key for r in dataset.primary.scan()] == expected

        # Refcounts returned to zero; only ACTIVE components survive in
        # the tree, and none of them was GC'd while pinned.
        for tree in (dataset.primary, dataset.secondary_tree("value_idx")):
            for component in tree.components:
                assert component.state is ComponentState.ACTIVE
                assert not component.pinned
        assert dataset.primary.merge_policy.in_flight_count == 0

    counters = registry.snapshot()["counters"]
    assert counters["scheduler.tasks.submitted"] > 0
    assert (
        counters["scheduler.tasks.completed"]
        == counters["scheduler.tasks.submitted"]
    )
    assert counters.get("scheduler.tasks.failed", 0) == 0


def test_pinned_component_survives_merge_until_unpin():
    """A reader's pin defers file GC: merging a pinned component marks
    it MERGED (still readable) and only the last unpin destroys it."""
    registry = MetricsRegistry()
    with use_registry(registry):
        dataset, scheduler = _build(registry)
        for pk in range(256):
            dataset.insert({"id": pk, "value": pk % 1024})
        dataset.flush()
        dataset.drain_maintenance()
        victim = dataset.primary.components[0]
        victim.pin()
        try:
            # Enough further traffic to merge the pinned component away.
            for pk in range(256, 768):
                dataset.insert({"id": pk, "value": pk % 1024})
            dataset.flush()
            dataset.drain_maintenance()
            assert victim.state in (
                ComponentState.ACTIVE,
                ComponentState.MERGED,
            )
            if victim.state is ComponentState.MERGED:
                # Still readable while pinned: the snapshot contract.
                assert victim.record_count >= 0
        finally:
            victim.unpin()
        assert victim.state is not ComponentState.DELETED or not victim.pinned
        scheduler.shutdown()


def test_concurrent_flush_barriers_from_many_threads():
    """flush() doubles as the drain barrier; hammering it from several
    threads while writers run must neither deadlock nor fail tasks."""
    registry = MetricsRegistry()
    with use_registry(registry):
        dataset, scheduler = _build(registry)
        errors = []

        def writer(base):
            try:
                for offset in range(200):
                    dataset.insert(
                        {"id": base + offset, "value": offset % 1024}
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def flusher():
            try:
                for _ in range(5):
                    dataset.flush()
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=writer, args=(index * 10_000,))
            for index in range(3)
        ] + [threading.Thread(target=flusher) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=STRESS_TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        dataset.flush()
        dataset.drain_maintenance()
        scheduler.shutdown()
        assert errors == []
        assert dataset.count_records() == 3 * 200
    counters = registry.snapshot()["counters"]
    assert counters.get("scheduler.tasks.failed", 0) == 0


BURST_MEMTABLES = 12


def _one_partition_burst(cluster):
    """``insert_many`` batches into one partition back to back, with no
    gap between sends, for three times the rotated memtables a dataset
    queues before backpressure."""
    capacity = 32  # verify.build_cluster's memtable capacity
    partition_of = cluster.partitioner.partition_of
    pks = [pk for pk in range(4096) if partition_of(pk) == 0]
    pks = pks[: capacity * BURST_MEMTABLES]
    for start in range(0, len(pks), capacity):
        batch = [verify.doc(pk) for pk in pks[start : start + capacity]]
        cluster.insert_many(verify.DATASET, batch)


def test_durable_back_to_back_batches_into_one_partition_do_not_hang():
    """The durable flush task takes the DML lock for its WAL-truncation
    check, so a writer must never wait on flush backpressure while it
    holds that lock.  A burst that fills the rotated queue must finish
    (the watchdog above fails the run otherwise) and converge to the
    synchronous image."""
    baseline = verify.observe("sync", _one_partition_burst)
    run = verify.observe("threads", _one_partition_burst, scheduler="threads")
    assert verify.compare("threads", baseline.image, run.image) == []
    assert run.problems == []
    assert run.counters["scheduler.tasks.submitted"] > BURST_MEMTABLES
