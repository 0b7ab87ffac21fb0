"""Property tests for the memory arbiter's accounting invariant.

docs/MEMORY.md promises that the arbiter's accounted total equals the
ground-truth sum of component ``memory_bytes()`` at every quiescent
point, under every scheduler mode.  Hypothesis drives random
insert/delete/flush/cache interleavings (with a budget tight enough
that early flushes and immutable-pool backpressure genuinely fire) and
checks exactly that, plus the memtable's incremental byte counter
against its O(n) recompute oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.cache import MergedSynopsisCache
from repro.errors import ConfigurationError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.memory import MemoryArbiter, record_footprint
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.record import Record
from repro.lsm.scheduler import make_scheduler
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses import SynopsisType, create_builder
from repro.types import Domain

#: Tight enough that the per-dataset allowance sits below the memtable
#: capacity (early flushes fire) and two sealed memtables overflow the
#: immutable pool (backpressure waits fire).
_BUDGET = 8_192
_CAPACITY = 32

# An op is a (kind, argument) pair; the argument is reinterpreted per
# kind (primary key, dataset index, cache slot).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "delete", "flush", "cache_put", "cache_drop", "estimate"]
        ),
        st.integers(0, 40),
    ),
    max_size=60,
)


def _synopsis():
    return create_builder(SynopsisType.EQUI_WIDTH, Domain(0, 9), 4, 0).build()


def _ground_truth(datasets, cache):
    return sum(d.memory_bytes() for d in datasets) + cache.memory_bytes()


@pytest.mark.parametrize("mode", ["sync", "virtual", "threads"])
@settings(max_examples=25, deadline=None)
@given(ops=_OPS)
def test_accounted_total_equals_component_sum(mode, ops):
    registry = MetricsRegistry()
    with use_registry(registry):
        arbiter = MemoryArbiter(_BUDGET)
        cache = MergedSynopsisCache()
        arbiter.attach_cache(cache)
        scheduler = make_scheduler(mode, seed=7)
        datasets = [
            Dataset(
                f"acct{i}",
                SimulatedDisk(),
                primary_key="id",
                primary_domain=Domain(0, 1000),
                indexes=[IndexSpec("value_idx", "value", Domain(0, 99))],
                memtable_capacity=_CAPACITY,
                merge_policy=ConstantMergePolicy(max_components=3),
                scheduler=scheduler,
                maintenance_lane=f"acct.{i}",
                memory_arbiter=arbiter,
            )
            for i in range(2)
        ]
        try:
            version = 0
            live: list[set[int]] = [set(), set()]
            for kind, arg in ops:
                target = arg % 2
                dataset, keys = datasets[target], live[target]
                if kind == "insert":
                    if arg in keys:
                        dataset.update({"id": arg, "value": arg % 100})
                    else:
                        dataset.insert({"id": arg, "value": arg % 100})
                        keys.add(arg)
                elif kind == "delete":
                    dataset.delete(arg)
                    keys.discard(arg)
                elif kind == "flush":
                    dataset.flush()
                elif kind == "cache_put":
                    version += 1
                    cache.put(f"idx{arg % 5}", _synopsis(), _synopsis(), version)
                elif kind == "cache_drop":
                    cache.invalidate(f"idx{arg % 5}")
                # "estimate": a read -- no arbiter state to advance.
            for dataset in datasets:
                dataset.flush()
                dataset.drain_maintenance()
        finally:
            scheduler.shutdown()

        # Quiescent: the arbiter's incremental view must equal the
        # ground-truth sum of component footprints...
        assert arbiter.accounted_bytes() == _ground_truth(datasets, cache)
        assert arbiter.peak_bytes() >= arbiter.accounted_bytes()
        # ...and every memtable's running counter must match its O(n)
        # recompute oracle.
        for dataset in datasets:
            trees = [dataset.primary, dataset.secondary_tree("value_idx")]
            for tree in trees:
                assert (
                    tree.memtable.memory_bytes()
                    == tree.memtable.recompute_memory_bytes()
                )


def test_record_footprint_is_deterministic():
    assert record_footprint(Record.matter(1, {"id": 1})) == record_footprint(
        Record.matter(2, {"id": 2})
    )
    # Wider documents cost more; tombstones cost less than documents.
    assert record_footprint(
        Record.matter(1, {"id": 1, "value": 2})
    ) > record_footprint(Record.matter(1, {"id": 1}))
    assert record_footprint(Record.anti(1)) < record_footprint(
        Record.matter(1, {"id": 1})
    )


def test_arbiter_rejects_non_positive_budget():
    with pytest.raises(ConfigurationError):
        MemoryArbiter(0)


def test_early_flush_decision_is_a_pure_allowance_comparison():
    with use_registry(MetricsRegistry()):
        arbiter = MemoryArbiter(_BUDGET)
    arbiter.register_dataset("a")
    allowance = arbiter.write_allowance()
    assert not arbiter.should_early_flush(allowance)
    assert arbiter.should_early_flush(allowance + 1)


def test_shares_sum_to_the_budget():
    shares = (
        MemoryArbiter.WRITE_SHARE,
        MemoryArbiter.IMMUTABLE_SHARE,
        MemoryArbiter.BLOOM_SHARE,
        MemoryArbiter.CACHE_SHARE,
    )
    assert sum(shares) == 1.0


@settings(max_examples=50, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["usage", "cache_put", "cache_drop", "early_flush"]),
            st.integers(0, 1 << 16),
        ),
        max_size=40,
    )
)
def test_allowance_moves_only_with_registration(calls):
    with use_registry(MetricsRegistry()):
        arbiter = MemoryArbiter(_BUDGET)
        cache = MergedSynopsisCache()
    arbiter.attach_cache(cache)
    arbiter.register_dataset("a")
    allowance = arbiter.write_allowance()
    for kind, arg in calls:
        if kind == "usage":
            # (bloom bytes far past their headroom squeeze the cache
            # pool, never the write arena)
            arbiter.update_usage("a", arg, arg // 2, 4 * arg, arg)
        elif kind == "cache_put":
            cache.put(f"idx{arg % 5}", _synopsis(), _synopsis(), arg)
        elif kind == "cache_drop":
            cache.invalidate(f"idx{arg % 5}")
        else:
            arbiter.should_early_flush(arg)
        assert arbiter.write_allowance() == allowance
    arbiter.register_dataset("a")  # a restart re-registers the same key
    assert arbiter.write_allowance() == allowance
    arbiter.register_dataset("b")
    assert arbiter.write_allowance() == max(
        MemoryArbiter.MIN_WRITE_ALLOWANCE, arbiter.write_pool_bytes() // 2
    )


def test_single_writer_peak_is_within_budget_and_seed_invariant():
    """`repro bench`'s memory gate in small: three datasets, half the
    static arena, one DML thread under the virtual scheduler.  Without
    writer threads sealing generations at the same moment the accounted
    peak is a property of the arbiter, not of thread timing: inside the
    budget, and at this size the same number whichever ready lane the
    seed picks (a run long enough to stack merges can differ by one
    merge's footprint across seeds -- never across machines)."""
    writers, capacity, per_writer = 3, 512, 600
    budget = writers * capacity * record_footprint(Record.matter(0, {"id": 0})) // 2
    peaks = set()
    for seed in range(4):
        registry = MetricsRegistry()
        with use_registry(registry):
            arbiter = MemoryArbiter(budget)
            scheduler = make_scheduler("virtual", seed=seed)
            datasets = [
                Dataset(
                    f"peak{writer}",
                    SimulatedDisk(),
                    primary_key="id",
                    primary_domain=Domain(0, 1 << 20),
                    memtable_capacity=capacity,
                    merge_policy=ConstantMergePolicy(max_components=4),
                    scheduler=scheduler,
                    maintenance_lane=f"peak.{writer}",
                    memory_arbiter=arbiter,
                )
                for writer in range(writers)
            ]
            try:
                for i in range(per_writer):
                    for writer, dataset in enumerate(datasets):
                        dataset.insert({"id": (writer + i * 514_229) % (1 << 20)})
                for dataset in datasets:
                    dataset.flush()
            finally:
                scheduler.shutdown()
        counters = registry.snapshot()["counters"]
        assert counters["memory.pressure.early_flush"] > 0
        assert 0 < arbiter.peak_bytes() <= budget
        peaks.add(arbiter.peak_bytes())
    assert len(peaks) == 1
