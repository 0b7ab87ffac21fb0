"""Event groups: one lifecycle event, one hand-off per observer.

A dataset flush, a merge (its write *and* the retirement of its
inputs), a bulkload and a recovery's re-derivation each reach the
statistics sink as exactly one :class:`StatisticsUpdate`; nested groups
hand off once, at the outermost close; a raising event hands off
nothing; a bare write outside any group is a group of one.
"""

import threading

import pytest

from repro.core.collector import StatisticsCollector
from repro.core.config import StatisticsConfig
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.events import EventBus, stage
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.types import Domain


class _Member:
    def __init__(self):
        self.closed = []

    def close_group(self, staged, committed):
        self.closed.append((list(staged), committed))


def _stage(member, item):
    staged = stage(member, list)
    assert staged is not None
    staged.append(item)


def test_nested_groups_hand_off_once_at_the_outermost_close():
    bus, member = EventBus(), _Member()
    assert stage(member, list) is None  # outside any group
    with bus.group():
        _stage(member, 1)
        with bus.group():
            _stage(member, 2)
        assert member.closed == []
        _stage(member, 3)
    assert member.closed == [([1, 2, 3], True)]


def test_a_raising_event_hands_off_uncommitted():
    bus, member = EventBus(), _Member()
    with pytest.raises(RuntimeError):
        with bus.group():
            _stage(member, 1)
            raise RuntimeError("the event failed")
    assert member.closed == [([1], False)]
    with bus.group():  # the next group starts clean
        _stage(member, 2)
    assert member.closed[-1] == ([2], True)


def test_groups_are_per_thread():
    bus, member = EventBus(), _Member()
    seen = []
    with bus.group():
        _stage(member, "main")
        worker = threading.Thread(target=lambda: seen.append(stage(member, list)))
        worker.start()
        worker.join()
    assert seen == [None]
    assert member.closed == [(["main"], True)]


def test_an_owner_raising_on_close_is_counted_not_raised():
    registry = MetricsRegistry()
    with use_registry(registry):
        bus = EventBus()

    class _Broken:
        def close_group(self, staged, committed):
            raise RuntimeError("sink down")

    healthy = _Member()
    with bus.group():
        stage(_Broken(), list)
        _stage(healthy, 1)
    assert healthy.closed == [([1], True)]
    assert registry.counter("lsm.observer.failures").value == 1


class _Sink:
    def __init__(self):
        self.updates = []

    def publish(self, update):
        self.updates.append(update)


def _dataset(ndv=True, **kwargs):
    sink = _Sink()
    collector = StatisticsCollector(
        StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=16, ndv_enabled=ndv), sink
    )
    dataset = Dataset(
        "ds",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 999),
        indexes=[IndexSpec("v_idx", "v", Domain(0, 99))],
        memtable_capacity=10,
        **kwargs,
    )
    collector.register_index(dataset.primary.name, Domain(0, 999))
    collector.register_index(dataset.secondary_tree("v_idx").name, Domain(0, 99))
    dataset.event_bus.subscribe(collector)
    return dataset, sink


def test_a_dataset_flush_is_one_update_over_every_index():
    dataset, sink = _dataset()
    for pk in range(10):  # the tenth insert closes the generation
        dataset.insert({"id": pk, "v": pk % 7})
    (update,) = sink.updates
    assert [key for key, *_ in update.entries] == [
        "ds.primary", "ds.primary#ndv", "ds.v_idx", "ds.v_idx#ndv",
    ]  # fmt: skip
    assert update.retracts == ()
    # Insert-only components: every anti-matter twin travels as None.
    assert all(anti is None for *_, anti in update.entries)


def test_a_merge_is_one_update_carrying_its_retractions():
    dataset, sink = _dataset(
        ndv=False, merge_policy=ConstantMergePolicy(max_components=2)
    )
    for pk in range(30):
        dataset.insert({"id": pk, "v": pk % 7})
    flushes = [u for u in sink.updates if not u.retracts]
    merges = [u for u in sink.updates if u.retracts]
    assert len(flushes) == 3 and len(merges) == 2  # one per index's merge
    for update in merges:
        ((key, uid, _synopsis, _anti),) = update.entries
        ((retracted_key, uids),) = update.retracts
        assert retracted_key == key and len(uids) == 3 and uid not in uids


def test_anti_matter_ships_its_twin():
    dataset, sink = _dataset(ndv=False)
    for pk in range(9):
        dataset.insert({"id": pk, "v": pk % 7})
    dataset.delete(3)
    (update,) = sink.updates
    anti = {key: anti for key, _uid, _synopsis, anti in update.entries}
    assert anti["ds.primary"].total_count == 1
    assert anti["ds.v_idx"].total_count == 1


def test_a_bare_tree_write_is_a_group_of_one():
    sink = _Sink()
    collector = StatisticsCollector(
        StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=16), sink
    )
    tree = LSMTree("t", SimulatedDisk())
    collector.register_index("t", Domain(0, 99))
    tree.event_bus.subscribe(collector)
    for key in range(5):
        tree.upsert(key, key)
    tree.flush()
    tree.upsert(7, 7)
    tree.flush()
    tree.merge(tree.components)
    assert [(len(u.entries), len(u.retracts)) for u in sink.updates] == [
        (1, 0), (1, 0), (1, 1),
    ]  # fmt: skip
