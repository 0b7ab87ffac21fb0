"""End-to-end tests for composite-key (2-D) statistics, which ride
the one collector / catalog / cache / estimator."""

import pytest

from repro.core.config import StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.errors import ConfigurationError, QueryError
from repro.lsm.dataset import CompositeIndexSpec, Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.synopses.multidim import Synopsis2DType
from repro.types import Domain

X_DOMAIN = Domain(0, 999)
Y_DOMAIN = Domain(0, 499)


def _setup(
    synopsis_type=Synopsis2DType.GROUND_TRUTH, budget=1024, disk=None, **kwargs
):
    dataset = Dataset(
        "events",
        disk if disk is not None else SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 10**6),
        indexes=[
            IndexSpec("x_idx", "x", X_DOMAIN),
            CompositeIndexSpec("xy_idx", ("x", "y"), (X_DOMAIN, Y_DOMAIN)),
        ],
        **kwargs,
    )
    manager = StatisticsManager(StatisticsConfig())
    manager.attach_composite(dataset, synopsis_type, budget)
    return dataset, manager


def _doc(pk):
    return {"id": pk, "x": (pk * 7) % 1000, "y": (pk * 13) % 500}


class TestCompositeIndexMaintenance:
    def test_entries_sorted_lexicographically(self):
        dataset, _manager = _setup()
        for pk in range(100):
            dataset.insert(_doc(pk))
        dataset.flush()
        keys = [r.key for r in dataset.scan_composite("xy_idx", None, None)]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_rectangle_scan(self):
        dataset, _manager = _setup()
        for pk in range(200):
            dataset.insert(_doc(pk))
        expected = sum(
            1
            for pk in range(200)
            if 100 <= (pk * 7) % 1000 <= 400 and 50 <= (pk * 13) % 500 <= 250
        )
        assert dataset.count_composite_range("xy_idx", 100, 400, 50, 250) == expected

    def test_update_and_delete_maintain_composite(self):
        dataset, _manager = _setup(memtable_capacity=32)
        for pk in range(100):
            dataset.insert(_doc(pk))
        dataset.flush()
        assert dataset.update({"id": 5, "x": 999, "y": 499})
        assert dataset.delete(6)
        dataset.flush()
        assert dataset.count_composite_range("xy_idx", 999, 999, 499, 499) == 1
        assert dataset.count_composite_range("xy_idx", 0, 999, 0, 499) == 99

    def test_scan_kind_mismatch_rejected(self):
        dataset, _manager = _setup()
        with pytest.raises(QueryError):
            list(dataset.scan_secondary("xy_idx", 0, 10))
        with pytest.raises(QueryError):
            list(dataset.scan_composite("x_idx", 0, 10, 0, 10))

    def test_composite_spec_validation(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            CompositeIndexSpec("bad", ("a",), (X_DOMAIN,))


class TestSpatialStatistics:
    def test_ground_truth_pipeline_exact(self):
        dataset, manager = _setup(memtable_capacity=32)
        for pk in range(300):
            dataset.insert(_doc(pk))
        for pk in range(0, 300, 4):
            dataset.delete(pk)
        dataset.flush()
        for rect in [(0, 999, 0, 499), (100, 600, 100, 400), (7, 7, 91, 91)]:
            true = dataset.count_composite_range("xy_idx", *rect)
            assert manager.estimate(dataset, "xy_idx", *rect) == pytest.approx(true)

    @pytest.mark.parametrize(
        "synopsis_type", [Synopsis2DType.GRID, Synopsis2DType.WAVELET]
    )
    def test_approximate_synopses_track_truth(self, synopsis_type):
        dataset, manager = _setup(synopsis_type, budget=4096, memtable_capacity=256)
        for pk in range(2000):
            dataset.insert(_doc(pk))
        dataset.flush()
        rect = (0, 499, 0, 249)
        true = dataset.count_composite_range("xy_idx", *rect)
        estimate = manager.estimate(dataset, "xy_idx", *rect)
        assert estimate == pytest.approx(true, rel=0.25)

    def test_merge_retracts_entries(self):
        dataset, manager = _setup(memtable_capacity=50)
        for pk in range(200):
            dataset.insert(_doc(pk))
        dataset.flush()
        tree = dataset.secondary_tree("xy_idx")
        assert manager.catalog.entry_count(tree.name) > 1
        tree.merge(tree.components)
        assert manager.catalog.entry_count(tree.name) == 1
        true = dataset.count_composite_range("xy_idx", 0, 999, 0, 499)
        assert manager.estimate(dataset, "xy_idx", 0, 999, 0, 499) == pytest.approx(
            true
        )

    def test_beats_independence_assumption_on_correlated_data(self):
        """The reason for 2-D synopses: rectangle estimates from 1-D
        marginals under the independence assumption collapse on
        correlated attributes; the 2-D synopsis does not."""
        dataset, manager = _setup(Synopsis2DType.GRID, budget=4096)
        # y perfectly correlated with x (y = x // 2).
        documents = [
            {"id": pk, "x": pk % 1000, "y": (pk % 1000) // 2} for pk in range(4000)
        ]
        for document in documents:
            dataset.insert(document)
        dataset.flush()
        # Anti-correlated rectangle: x small, y large -> truly empty.
        rect = (0, 99, 400, 499)
        true = dataset.count_composite_range("xy_idx", *rect)
        assert true == 0
        spatial = manager.estimate(dataset, "xy_idx", *rect)
        # Independence assumption: sel(x) * sel(y) * N.
        n = len(documents)
        sel_x = sum(1 for d in documents if 0 <= d["x"] <= 99) / n
        sel_y = sum(1 for d in documents if 400 <= d["y"] <= 499) / n
        independence = sel_x * sel_y * n
        assert independence > 50  # the classic estimator is badly wrong
        assert spatial < independence / 5  # the 2-D synopsis is not

    def test_constant_policy_with_spatial_stats(self):
        dataset, manager = _setup(
            Synopsis2DType.GROUND_TRUTH,
            memtable_capacity=32,
            merge_policy=ConstantMergePolicy(3),
        )
        for pk in range(400):
            dataset.insert(_doc(pk))
        dataset.flush()
        true = dataset.count_composite_range("xy_idx", 0, 999, 0, 499)
        assert manager.estimate(dataset, "xy_idx", 0, 999, 0, 499) == pytest.approx(
            true
        )

    @pytest.mark.parametrize("synopsis_type", list(Synopsis2DType))
    def test_statistics_survive_a_crash(self, synopsis_type):
        """2-D registrations ride ``components_recovered`` like any
        other: a crash-restart re-derives every payload bit for bit."""
        disk = SimulatedDisk()
        dataset, manager = _setup(
            synopsis_type, disk=disk, memtable_capacity=64, durable=True
        )
        manager.attach(dataset)
        for pk in range(300):
            dataset.insert(_doc(pk))
        for pk in range(0, 300, 4):
            dataset.delete(pk)
        dataset.flush()

        def image(dataset, manager):
            name = dataset.secondary_tree("xy_idx").name
            rects = [(0, 999, 0, 499), (100, 600, 100, 400), (7, 7, 91, 91)]
            return (
                [manager.estimate(dataset, "xy_idx", *rect) for rect in rects],
                manager.estimate(dataset, "x_idx", 100, 600),
                [
                    (e.synopsis.to_payload(), e.anti_synopsis.to_payload())
                    for e in manager.catalog.entries_for(name)
                ],
            )

        before = image(dataset, manager)
        assert before[0][0] > 0 and before[2]
        # "Crash": abandon the instance and rebuild it from the disk.
        recovered, recovered_manager = _setup(
            synopsis_type,
            disk=disk,
            memtable_capacity=64,
            durable=True,
            recover=True,
        )
        recovered_manager.attach(recovered)
        recovered.complete_recovery()
        assert image(recovered, recovered_manager) == before

    def test_config_validation(self):
        dataset, manager = _setup()
        with pytest.raises(ConfigurationError):
            manager.attach_composite(dataset, budget=0)
