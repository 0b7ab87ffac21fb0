"""The component-write path's oracle: bit-identity with the naive reference.

docs/DATAPATH.md promises that the columnar chunk representation is a
*pure* optimisation: for any operation sequence and any chunk size,
every component written -- its leaves, Bloom bits, record counts and
every synopsis payload published for it, across every synopsis family
(GK compress cadence and reservoir RNG draws are sequence-sensitive, so
this is a strong property) -- equals what ``tests/lsm/reference.py`` builds one record
at a time from the same stream.  Hypothesis drives the operation
sequences; scripted dataset lifecycles additionally cover secondary,
composite and spatial indexes with their 2-D statistics, attribute
statistics, merge and crash recovery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import StatisticsCollector
from repro.core.config import StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.errors import ConfigurationError
from repro.lsm.dataset import (
    CompositeIndexSpec,
    Dataset,
    IndexSpec,
    SpatialIndexSpec,
)
from repro.lsm.events import EventBus
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.record import Record
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.synopses.multidim import Synopsis2DType
from repro.types import Domain
from tests.lsm.reference import ReferenceObserver

DOMAIN = Domain(0, 1023)
VALUE_DOMAIN = Domain(0, 255)
BUDGET = 16

ALL_TYPES = sorted(SynopsisType, key=lambda t: t.value)
UNSORTED_TYPES = [t for t in ALL_TYPES if not t.requires_sorted_input]


def _observe(bus, trees, synopsis_type):
    """Subscribe a collector plus the reference observer checking it."""
    observer = ReferenceObserver(trees)
    observer.collector = StatisticsCollector(
        StatisticsConfig(synopsis_type, budget=BUDGET), observer
    )
    bus.subscribe(observer.collector)
    bus.subscribe(observer)
    return observer


def _tree_lifecycle(synopsis_type, ops, batch):
    """Bulkload + upserts/deletes + flushes + merge under one config,
    every component checked against the reference as it is written."""
    with use_registry(MetricsRegistry()):
        tree = LSMTree(
            "t.primary",
            SimulatedDisk(),
            event_bus=EventBus(),
            write_batch_size=batch,
        )
        observer = _observe(tree.event_bus, [tree], synopsis_type)
        observer.collector.register_index(tree.name, DOMAIN)
        tree.bulkload(
            (Record.matter(key, {"k": key}) for key in range(0, 64, 2)),
            expected_records=32,
        )
        # The model: key -> (value, seqnum) of the newest live write.
        model = {key: ({"k": key}, key // 2) for key in range(0, 64, 2)}
        seqnum = 32
        for op, key in ops:
            if op == "upsert":
                tree.upsert(key, {"k": key})
                model[key] = ({"k": key}, seqnum)
            elif op == "delete":
                tree.delete(key)
                model.pop(key, None)
            else:
                tree.flush()
                continue
            seqnum += 1
        tree.flush()
        if len(tree.components) >= 2:
            tree.merge(tree.components)
        assert tree.observer_failures == 0
        assert observer.mismatches() == []
        assert [(r.key, r.value, r.seqnum) for r in tree.scan()] == [
            (key, *model[key]) for key in sorted(model)
        ]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["upsert", "delete", "flush"]),
        st.integers(DOMAIN.lo, DOMAIN.hi),
    ),
    min_size=0,
    max_size=60,
)


@pytest.mark.parametrize("synopsis_type", ALL_TYPES, ids=lambda t: t.value)
@given(ops=_OPS, batch=st.sampled_from([1, 7, 512]))
@settings(max_examples=10, deadline=None)
def test_columnar_lifecycle_bit_identical(synopsis_type, ops, batch):
    _tree_lifecycle(synopsis_type, ops, batch)


def _with_batch(dataset, batch):
    """Every tree of ``dataset`` writes its components in chunks of
    ``batch`` records."""
    for tree in dataset._all_trees():
        tree.write_batch_size = batch
    return dataset


def _make_dataset(disk, batch, recover=False):
    dataset = Dataset(
        "ds",
        disk,
        primary_key="id",
        primary_domain=DOMAIN,
        indexes=[
            IndexSpec("value_idx", "value", VALUE_DOMAIN),
            CompositeIndexSpec(
                "pair_idx", ("value", "extra"), (VALUE_DOMAIN, VALUE_DOMAIN)
            ),
        ],
        memtable_capacity=64,
        merge_policy=ConstantMergePolicy(max_components=3),
        durable=True,
        recover=recover,
    )
    return _with_batch(dataset, batch)


def _attach(dataset, synopsis_type):
    observer = _observe(
        dataset.event_bus, list(dataset._all_trees()), synopsis_type
    )
    collector = observer.collector
    collector.register_index(dataset.primary.name, DOMAIN)
    collector.register_index(
        dataset.secondary_tree("value_idx").name, VALUE_DOMAIN
    )
    collector.register_composite_index(
        dataset.secondary_tree("pair_idx").name,
        (VALUE_DOMAIN, VALUE_DOMAIN),
        budget=BUDGET,
    )
    if not synopsis_type.requires_sorted_input:
        collector.register_attribute(
            dataset.primary.name, "extra", VALUE_DOMAIN
        )
    return observer


def _doc(pk):
    return {"id": pk, "value": (pk * 13) % 256, "extra": (pk * 7) % 256}


def _dataset_lifecycle(synopsis_type, batch):
    """Bulkload, DML with automatic flush/merge, crash, recovery."""
    with use_registry(MetricsRegistry()):
        disk = SimulatedDisk()
        dataset = _make_dataset(disk, batch)
        observer = _attach(dataset, synopsis_type)
        dataset.bulkload(_doc(pk) for pk in range(128))
        for pk in range(128, 400):
            dataset.insert(_doc(pk))
        for pk in range(0, 100, 3):
            dataset.delete(pk)
        dataset.flush()
        for pk in range(400, 410):  # acknowledged, still only in the WAL
            dataset.insert(_doc(pk))
        live = [_doc(pk) for pk in range(410) if pk >= 100 or pk % 3]
        assert observer.mismatches() == []
        assert dataset.primary.merge_count > 0
        assert [r.value for r in dataset.primary.scan()] == live
        assert [r.key for r in dataset.scan_secondary("value_idx")] == sorted(
            (doc["value"], doc["id"]) for doc in live
        )
        # "Crash": abandon the instance, recover from disk and let the
        # collector re-derive statistics by scanning the components.
        recovered = _make_dataset(disk, batch, recover=True)
        recovery_observer = _attach(recovered, synopsis_type)
        recovered.complete_recovery()
        assert [r.value for r in recovered.primary.scan()] == live
        # A recovered component's re-derived synopses equal the ones its
        # live write published.
        rederived = 0
        for tree, recovered_tree in zip(
            dataset._all_trees(), recovered._all_trees()
        ):
            by_id = {c.component_id: c for c in recovered_tree.components}
            for component in tree.components:
                published = _published(observer, component)
                twin = by_id[component.component_id]
                assert _published(recovery_observer, twin) == published
                rederived += len(published)
        assert rederived
        recovered.flush()  # the WAL-replayed tail, through the write path
        assert recovery_observer.mismatches() == []


def _published(observer, component):
    """statistics key -> payload pair published for ``component``."""
    return {
        key[0]: pair
        for key, pair in observer.actual.items()
        if len(key) == 2 and key[1] == component.uid
    }


@pytest.mark.parametrize(
    "synopsis_type",
    [SynopsisType.EQUI_WIDTH, SynopsisType.WAVELET] + UNSORTED_TYPES,
    ids=lambda t: t.value,
)
def test_scripted_dataset_lifecycle_with_recovery(synopsis_type):
    for batch in (7, 512):
        _dataset_lifecycle(synopsis_type, batch)


def _rtree_reads_match(rtree, leaves):
    """An R-tree component's reads against the naive answer over the
    records that streamed into it.  ``search`` walks a stack, so leaves
    come out last first, rows in order within each."""
    records = [record for leaf in leaves for record in leaf]
    keys = [record.key for record in records]
    assert list(rtree.scan()) == records
    assert rtree.min_key() == keys[0] and rtree.max_key() == keys[-1]
    lo, hi = keys[len(keys) // 4], keys[3 * len(keys) // 4]
    assert list(rtree.scan(lo, hi)) == [r for r in records if lo <= r.key <= hi]
    for rect in [(0, 255, 0, 255), (40, 180, 60, 200), (13, 13, 0, 255)]:
        lo_x, hi_x, lo_y, hi_y = rect
        assert list(rtree.search(*rect)) == [
            record
            for leaf in reversed(leaves)
            for record in leaf
            if lo_x <= record.key[0] <= hi_x and lo_y <= record.key[1] <= hi_y
        ]
    assert [rtree.lookup(key) for key in keys] == records
    assert rtree.lookup((256, 0, 0)) is None


@pytest.mark.parametrize("batch", [1, 7, 512])
def test_scripted_spatial_lifecycle(batch):
    """Composite (B-tree) and spatial (R-tree) indexes with 2-D
    statistics on the one collector: every component and synopsis pair
    equals the reference, R-tree reads equal the naive answer, and a
    repeated rectangle estimate is served from the merged-synopsis
    cache."""
    for synopsis_type in Synopsis2DType:
        _spatial_lifecycle(batch, synopsis_type)


def _spatial_lifecycle(batch, synopsis_type):
    with use_registry(MetricsRegistry()):
        dataset = Dataset(
            "geo",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=DOMAIN,
            indexes=[
                CompositeIndexSpec(
                    "pair_idx", ("value", "extra"), (VALUE_DOMAIN, VALUE_DOMAIN)
                ),
                SpatialIndexSpec(
                    "point_idx", ("value", "extra"), (VALUE_DOMAIN, VALUE_DOMAIN)
                ),
            ],
            memtable_capacity=48,
            merge_policy=ConstantMergePolicy(max_components=3),
        )
        _with_batch(dataset, batch)
        observer = _observe(
            dataset.event_bus, list(dataset._all_trees()), SynopsisType.EQUI_WIDTH
        )
        for name in ("pair_idx", "point_idx"):
            observer.collector.register_composite_index(
                dataset.secondary_tree(name).name,
                (VALUE_DOMAIN, VALUE_DOMAIN),
                synopsis_type,
                BUDGET,
            )
        manager = StatisticsManager(StatisticsConfig())
        manager.attach_composite(dataset, synopsis_type, BUDGET)
        dataset.bulkload(_doc(pk) for pk in range(100))
        for pk in range(100, 300):
            dataset.insert(_doc(pk))
        for pk in range(0, 300, 5):
            dataset.update({**_doc(pk), "extra": (pk * 11) % 256})
        for pk in range(0, 100, 3):
            dataset.delete(pk)
        dataset.flush()
        point_tree = dataset.secondary_tree("point_idx")
        assert point_tree.merge_count > 0
        assert observer.mismatches() == []
        assert sum(key[0] != "component" for key in observer.expected) > 4
        assert len(point_tree.components) > 1
        for component in point_tree.components:
            leaves = observer.expected["component", point_tree.name, component.uid][0]
            _rtree_reads_match(component.btree, leaves)
        rect = (40, 180, 60, 200)
        for index_name in ("pair_idx", "point_idx"):
            first = manager.estimate_detailed(dataset, index_name, *rect)
            again = manager.estimate_detailed(dataset, index_name, *rect)
            assert not first.from_cache and first.synopses_consulted > 1
            assert again.from_cache and again.estimate == first.estimate
            if synopsis_type is Synopsis2DType.GROUND_TRUTH:
                assert first.estimate == dataset.count_spatial_range(
                    "point_idx", *rect
                )


def test_extractor_without_a_column_is_rejected_when_the_tap_opens():
    """No per-record slow path: statistics on an extractor the columnar
    registry cannot map fail the component write, typed."""
    with use_registry(MetricsRegistry()):
        tree = LSMTree(
            "t.custom",
            SimulatedDisk(),
            event_bus=EventBus(),
            key_extractor=lambda record: record.key,
        )
        collector = StatisticsCollector(
            StatisticsConfig(SynopsisType.GK_SKETCH, budget=BUDGET),
            ReferenceObserver([tree]),
        )
        tree.event_bus.subscribe(collector)
        collector.register_index(tree.name, DOMAIN)
        tree.upsert(1)
        with pytest.raises(ConfigurationError, match="no column twin"):
            tree.flush()

        plain = LSMTree("t.plain", SimulatedDisk(), event_bus=tree.event_bus)
        collector.register_attribute(
            plain.name, "k", DOMAIN, value_extractor=lambda r: r.value["k"]
        )
        plain.upsert(1, {"k": 1})
        with pytest.raises(ConfigurationError, match="no column twin"):
            plain.flush()
