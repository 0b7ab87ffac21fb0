"""The component-write path's oracle: bit-identity with the naive reference.

docs/DATAPATH.md promises that the columnar chunk representation is a
*pure* optimisation: for any operation sequence and any chunk size,
every component written -- its leaves, Bloom bits, record counts and
every synopsis payload published for it, across every synopsis family
(GK compress cadence and reservoir RNG draws are sequence-sensitive, so
this is a strong property) -- equals what ``tests/lsm/reference.py`` builds one record
at a time from the same stream.  Hypothesis drives the operation
sequences; scripted dataset lifecycles additionally cover secondary,
composite and spatial indexes, attribute statistics, merge and crash
recovery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import StatisticsCollector
from repro.core.config import StatisticsConfig
from repro.core.spatial import SpatialStatisticsCollector, SpatialStatisticsConfig
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
from repro.synopses.multidim.factory2d import create_builder_2d
from repro.types import Domain
from tests.lsm.reference import ReferenceObserver, reference_synopsis_pair

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
            memtable_capacity=4096,
            event_bus=EventBus(),
            auto_flush=False,
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


def _make_dataset(disk, batch, recover=False):
    return Dataset(
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
        write_batch_size=batch,
        durable=True,
        recover=recover,
    )


def _attach(dataset, synopsis_type):
    observer = _observe(
        dataset.event_bus, list(dataset._all_trees()), synopsis_type
    )
    collector = observer.collector
    collector.register_index(dataset.primary.name, DOMAIN)
    collector.register_index(
        dataset.secondary_tree("value_idx").name, VALUE_DOMAIN
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


class _SpatialReferenceObserver(ReferenceObserver):
    """The reference observer for the 2-D collector (``self.spatial``)."""

    def _check(self, context, component, records):
        super()._check(context, component, records)
        domains = self.spatial._domains.get(context.index_name)
        if domains is not None:
            config = self.spatial.config
            self.expected[context.index_name, component.uid] = (
                reference_synopsis_pair(
                    records,
                    context.key_extractor,
                    lambda: create_builder_2d(
                        config.synopsis_type, domains, config.budget
                    ),
                )
            )


@pytest.mark.parametrize("batch", [1, 7, 512])
def test_scripted_spatial_lifecycle(batch):
    """Composite (B-tree) and spatial (R-tree adapter) indexes with 2-D
    statistics: every component and synopsis pair equals the reference."""
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
            write_batch_size=batch,
        )
        observer = _SpatialReferenceObserver(list(dataset._all_trees()))
        observer.spatial = SpatialStatisticsCollector(
            SpatialStatisticsConfig(budget=BUDGET), observer
        )
        for name in ("pair_idx", "point_idx"):
            observer.spatial.register_index(
                dataset.secondary_tree(name).name, (VALUE_DOMAIN, VALUE_DOMAIN)
            )
        dataset.event_bus.subscribe(observer.spatial)
        dataset.event_bus.subscribe(observer)
        dataset.bulkload(_doc(pk) for pk in range(100))
        for pk in range(100, 300):
            dataset.insert(_doc(pk))
        for pk in range(0, 300, 5):
            dataset.update({**_doc(pk), "extra": (pk * 11) % 256})
        for pk in range(0, 100, 3):
            dataset.delete(pk)
        dataset.flush()
        assert dataset.secondary_tree("point_idx").merge_count > 0
        assert observer.mismatches() == []
        assert sum(key[0] != "component" for key in observer.expected) > 4
