"""The convergence harness (`repro.verify`): composed perturbations, a
second synopsis family, and proof that the shared compare can fail.

Each `*check` command proves one perturbation in isolation; a
perturbation is a keyword of `verify.build_cluster`, so the pairs and
triples below are the same three lines with more keywords.  Every case
carries the vacuity guard of the perturbations it composes (the crash
fired, the wire dropped something, background tasks ran, the budget
forced early flushes) -- a composition that silently degrades to the
unperturbed run proves nothing.
"""

import threading
from functools import partial

import pytest

from repro import verify
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.cluster.serving import EstimateService
from repro.core.config import StatisticsConfig
from repro.lsm.crashpoints import CrashInjector, CrashPlan, SimulatedCrash
from repro.synopses.base import SynopsisType

RECORDS = 256
MEMORY_BUDGET = 32_768  # racecheck --memory's: below the memtable capacity


def _script(records=RECORDS):
    return partial(verify.run_script, records=records)


def _lossy_wire(seed):
    return FaultPlan(
        seed=seed,
        default=LinkFaults(drop=0.1, duplicate=0.1, reorder=0.1, delay=0.05),
    )


def _assert_converged(label, baseline, run):
    problems = verify.compare(label, baseline.image, run.image)
    assert problems + run.problems == []


def _assert_background_ran(run):
    submitted = run.counters.get("scheduler.tasks.submitted", 0)
    assert submitted > 0
    assert run.counters.get("scheduler.tasks.completed", 0) == submitted


@pytest.fixture(scope="module")
def sync_baseline():
    return verify.observe("sync", _script())


@pytest.fixture(scope="module")
def budgeted_baseline():
    """The budget decides where early flushes cut components, so -- as
    `racecheck --memory` does -- the baseline must carry it too."""
    baseline = verify.observe("sync", _script(), memory_budget=MEMORY_BUDGET)
    assert baseline.counters.get("memory.pressure.early_flush", 0) > 0
    return baseline


# -- composed perturbations ----------------------------------------------------


@pytest.mark.parametrize("point", ["merge.splice", "flush.build"])
@pytest.mark.parametrize("seed", [0, 1])
def test_crash_in_background_task_on_lossy_wire(sync_baseline, point, seed):
    injector = CrashInjector(CrashPlan(point, 1))
    run = verify.observe(
        f"{point}[seed={seed}]",
        _script(),
        crash_injector=injector,
        scheduler="virtual",
        scheduler_seed=seed,
        fault_plan=_lossy_wire(seed),
    )
    assert injector.fired is not None
    assert run.counters.get("network.dropped", 0) > 0
    # (the task that died, and the lane work the restart discarded,
    # never complete -- only "submitted" is a guard here)
    assert run.counters.get("scheduler.tasks.submitted", 0) > 0
    _assert_converged(point, sync_baseline, run)


@pytest.mark.parametrize("mode", ["virtual", "threads"])
@pytest.mark.parametrize("seed", [0, 1])
def test_scheduler_on_lossy_wire_under_memory_budget(
    budgeted_baseline, mode, seed
):
    run = verify.observe(
        f"{mode}[seed={seed}]",
        _script(),
        scheduler=mode,
        scheduler_seed=seed,
        fault_plan=_lossy_wire(seed),
        memory_budget=MEMORY_BUDGET,
    )
    assert run.counters.get("network.dropped", 0) > 0
    assert run.counters.get("memory.pressure.early_flush", 0) > 0
    _assert_background_ran(run)
    _assert_converged(mode, budgeted_baseline, run)


@pytest.mark.parametrize(
    "point,hit", [("flush.build", 1), ("flush.build", 5), ("merge.splice", 2)]
)
@pytest.mark.parametrize("records", [128, 512, 1024])
def test_crash_under_memory_budget(records, point, hit):
    baseline = verify.observe(
        "sync", _script(records), memory_budget=MEMORY_BUDGET
    )
    injector = CrashInjector(CrashPlan(point, hit))
    run = verify.observe(
        f"{point}#{hit}",
        _script(records),
        crash_injector=injector,
        memory_budget=MEMORY_BUDGET,
    )
    assert run.counters.get("memory.pressure.early_flush", 0) > 0
    if (records, point) == (128, "merge.splice"):
        # The 128-record script splices one merge only.
        assert injector.fired is None
    else:
        assert injector.fired is not None
        # The replayed operations went through the shared flush decision.
        assert run.counters.get("wal.replayed.records", 0) > 0
    _assert_converged(f"{point}#{hit}", baseline, run)


# -- estimates are reads: they must not move component cuts ----------------------


# `estimate_ndv` needs the NDV lane, which adds `#ndv` catalog entries:
# these runs carry their own K = 0 baseline.
WITH_NDV = StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32, ndv_enabled=True)


def _script_with_estimates(per_op, records=RECORDS):
    """The op script with ``per_op`` range estimates and one NDV
    estimate after every operation; returns the estimates served."""

    def drive(cluster):
        served = 0
        for op, arg in verify.ops(records):
            verify.apply(cluster, op, arg)
            for i in range(per_op):
                cluster.estimate(verify.DATASET, "value_idx", 64 * i, 64 * i + 255)
            cluster.estimate_ndv(verify.DATASET, "value_idx")
            served += per_op + 1
        return served

    return drive


def test_estimates_do_not_move_component_cuts():
    baseline = verify.observe(
        "sync", _script(), memory_budget=MEMORY_BUDGET, stats_config=WITH_NDV
    )
    early = baseline.counters.get("memory.pressure.early_flush", 0)
    assert early > 0
    for per_op in (1, 4):
        run = verify.observe(
            f"estimates[{per_op}]",
            _script_with_estimates(per_op),
            memory_budget=MEMORY_BUDGET,
            stats_config=WITH_NDV,
        )
        assert run.outcome > 0
        assert run.counters.get("memory.pressure.early_flush", 0) == early
        _assert_converged(f"estimates[{per_op}]", baseline, run)


def test_estimate_clients_do_not_move_component_cuts(budgeted_baseline):
    """The threaded form: background maintenance, and two service
    clients estimating for as long as the script writes."""

    def drive(cluster):
        done = threading.Event()
        served = [0, 0]

        def client(slot):
            lo = 0
            while not done.is_set():
                service.estimate(f"c{slot}", verify.DATASET, "value_idx", lo, lo + 255)
                served[slot] += 1
                lo = (lo + 64) % 1024

        with EstimateService(cluster, workers=2) as service:
            clients = [
                threading.Thread(target=client, args=(slot,)) for slot in (0, 1)
            ]
            for thread in clients:
                thread.start()
            try:
                verify.run_script(cluster, RECORDS)
            finally:
                done.set()
                for thread in clients:
                    thread.join(10.0)
            assert not any(thread.is_alive() for thread in clients)
        return served

    run = verify.observe(
        "threads+clients",
        drive,
        scheduler="threads",
        memory_budget=MEMORY_BUDGET,
    )
    assert min(run.outcome) > 0
    assert run.counters.get("memory.pressure.early_flush", 0) > 0
    _assert_background_ran(run)
    _assert_converged("threads+clients", budgeted_baseline, run)


# -- schedule-invariant estimates for an unmergeable family ---------------------

# Equi-height histograms do not merge, so every estimate sums one
# contribution per catalogued component -- in catalog arrival order,
# which background maintenance and recovery permute.  The sum must not
# depend on that order, down to the last bit.
EQUI_HEIGHT = StatisticsConfig(SynopsisType.EQUI_HEIGHT, budget=32)


def test_equi_height_estimates_ignore_the_schedule():
    baseline = verify.observe("sync", _script(), stats_config=EQUI_HEIGHT)
    for seed in (0, 1):
        for mode in ("virtual", "threads"):
            run = verify.observe(
                f"{mode}[seed={seed}]",
                _script(),
                scheduler=mode,
                scheduler_seed=seed,
                stats_config=EQUI_HEIGHT,
            )
            _assert_background_ran(run)
            _assert_converged(f"{mode}[seed={seed}]", baseline, run)


def test_equi_height_estimates_survive_background_crashes():
    # crashcheck's virtual sweep, at the size where merges happen.
    baseline = verify.observe("sync", _script(512), stats_config=EQUI_HEIGHT)
    for point in ("flush.rotate", "flush.build", "merge.build", "merge.splice"):
        injector = CrashInjector.seeded(0, point)
        run = verify.observe(
            point,
            _script(512),
            crash_injector=injector,
            scheduler="virtual",
            stats_config=EQUI_HEIGHT,
        )
        assert injector.fired is not None
        _assert_converged(point, baseline, run)


# -- the shared compare is a single point of failure: it can fail ----------------


def test_compare_reports_each_kind_of_divergence():
    baseline = verify.observe("baseline", _script(192))
    assert verify.compare("same", baseline.image, baseline.image) == []

    # 16 more records: same number of components, different contents.
    longer = verify.observe("longer", _script(208))
    problems = verify.compare("longer", baseline.image, longer.image)
    assert len(problems) == 3
    assert problems[0].startswith("longer: partition contents diverged: [(")
    assert problems[1].startswith("longer: synopsis payloads diverged for [(")
    assert problems[2].startswith("longer: estimates diverged: [(")

    # Same data, one primary-index catalog entry retracted by hand:
    # contents agree, the value_idx estimates agree, the catalog's key
    # set does not.
    twin = verify.observe("twin", _script(192))
    catalog = twin.cluster.master.catalog
    index_name = catalog.index_names()[0]
    entry = catalog.entries_for(index_name)[0]
    catalog.retract(
        index_name, entry.node_id, entry.partition_id, [entry.component_uid]
    )
    problems = verify.compare(
        "retracted", baseline.image, verify.image(twin.cluster)
    )
    assert len(problems) == 1
    assert problems[0].startswith("retracted: catalog entries differ (missing [(")


# -- the batch path: one op per document, one WAL group per call ------------------


def _expanded_script(records=RECORDS):
    """The op script with every ``insert_many`` batch sent one
    document per ``insert`` call."""

    def drive(cluster):
        for op, arg in verify.ops(records):
            if op == "insert_many":
                for pk in arg:
                    verify.apply(cluster, "insert", pk)
            else:
                verify.apply(cluster, op, arg)

    return drive


def test_batches_image_like_their_documents_one_by_one():
    assert sum(op == "insert_many" for op, _ in verify.ops(RECORDS)) > 1
    single = verify.observe("single", _expanded_script())
    batched = verify.observe("batched", _script())
    # One WAL group per partition per call instead of one per document.
    assert batched.counters["wal.appends"] == single.counters["wal.appends"]
    assert batched.counters["wal.commits"] < single.counters["wal.commits"]
    _assert_converged("batched", single, batched)


BATCH_CRASH_RECORDS = 512


def _in_batch_hits(mode):
    """Every (point, hit) a crash-free run passes inside an
    ``insert_many`` op, at most eight evenly spaced hits per point."""
    injector = CrashInjector()
    inside: dict[str, list[int]] = {}

    def drive(cluster):
        for op, arg in verify.ops(BATCH_CRASH_RECORDS):
            before = dict(injector.hits)
            verify.apply(cluster, op, arg)
            if op == "insert_many":
                for point, hits in injector.hits.items():
                    inside.setdefault(point, []).extend(
                        range(before.get(point, 0) + 1, hits + 1)
                    )

    verify.observe("count", drive, crash_injector=injector, scheduler=mode)
    return [
        (point, hits[i * len(hits) // min(len(hits), 8)])
        for point, hits in sorted(inside.items())
        for i in range(min(len(hits), 8))
    ]


def _live(cluster):
    return {
        record.key: record.value
        for node in cluster.nodes
        for partition_id in node.partition_ids
        for record in node.dataset(verify.DATASET, partition_id).primary.scan()
    }


@pytest.mark.parametrize("mode", ["sync", "virtual"])
def test_a_crash_inside_a_batch_keeps_a_prefix_of_it(mode):
    """At each crash point passed inside a batch: recovery holds every
    acknowledged call, plus a prefix of the interrupted batch in the
    order its partitions' calls ran (per partition, a seqnum prefix);
    retrying the absent documents then converges to the crash-free run."""
    baseline = verify.observe("sync", _script(BATCH_CRASH_RECORDS))
    targets = _in_batch_hits(mode)
    points = {point for point, _hit in targets}
    if mode == "sync":
        assert points >= {"wal.commit", "flush.rotate", "flush.build", "merge.build"}
    else:
        assert points >= {"wal.commit", "flush.rotate"}
    script = verify.ops(BATCH_CRASH_RECORDS)
    for point, hit in targets:
        injector = CrashInjector(CrashPlan(point, hit))

        def drive(cluster):
            acknowledged: dict[int, dict] = {}
            for position, (op, arg) in enumerate(script):
                try:
                    verify.apply(cluster, op, arg)
                except SimulatedCrash:
                    break
                if op in ("bulkload", "insert_many"):
                    acknowledged.update((pk, verify.doc(pk)) for pk in arg)
                elif op == "insert":
                    acknowledged[arg] = verify.doc(arg)
                elif op == "delete":
                    acknowledged.pop(arg, None)
            op, batch = script[position]
            assert op == "insert_many"
            cluster.restart_nodes()
            cluster.recover_statistics()
            # cluster.insert_many runs one call per partition, in order
            # of each partition's first document.
            groups: dict[int, list[int]] = {}
            for pk in batch:
                groups.setdefault(cluster.partitioner.partition_of(pk), []).append(pk)
            call_order = [pk for group in groups.values() for pk in group]
            live = _live(cluster)
            kept = [pk for pk in call_order if pk in live]
            assert kept == call_order[: len(kept)]
            assert live == {
                **acknowledged, **{pk: verify.doc(pk) for pk in kept}
            }
            verify.retry(cluster, op, batch)
            for later in script[position + 1 :]:
                verify.apply(cluster, *later)

        run = verify.observe(
            f"{point}#{hit}", drive, crash_injector=injector, scheduler=mode
        )
        assert injector.fired is not None
        _assert_converged(f"{point}#{hit}", baseline, run)
