"""Tests for catalog persistence and collector metrics."""

import zlib

import pytest

from repro.cluster import wire
from repro.core import StatisticsConfig, StatisticsManager
from repro.core.estimator import CardinalityEstimator
from repro.core.persistence import (
    CATALOG_FORMAT_VERSION,
    load_catalog,
    save_catalog,
)
from repro.errors import CatalogError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses import SynopsisType
from repro.types import Domain

VALUE_DOMAIN = Domain(0, 999)


def _populated_manager(synopsis_type=SynopsisType.WAVELET, **kwargs):
    dataset = Dataset(
        "ds",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 10**6),
        indexes=[IndexSpec("value_idx", "value", VALUE_DOMAIN)],
        memtable_capacity=64,
        **kwargs,
    )
    manager = StatisticsManager(StatisticsConfig(synopsis_type, 128))
    manager.attach(dataset)
    for pk in range(500):
        dataset.insert({"id": pk, "value": (pk * 3) % 1000})
    for pk in range(0, 500, 9):
        dataset.delete(pk)
    dataset.flush()
    return dataset, manager


class TestPersistence:
    def test_roundtrip_preserves_estimates(self, tmp_path):
        dataset, manager = _populated_manager()
        path = tmp_path / "catalog.json"
        written = save_catalog(manager.catalog, path)
        assert written == manager.catalog.entry_count()

        restored = load_catalog(path)
        # Compare cache-free estimators on both catalogs: the cached
        # merged-synopsis path intentionally differs slightly for
        # wavelets (re-thresholding loss, Section 3.5).
        estimator = CardinalityEstimator(restored)
        baseline = CardinalityEstimator(manager.catalog)
        index_name = dataset.secondary_tree("value_idx").name
        for lo, hi in [(0, 999), (100, 400), (42, 42)]:
            assert estimator.estimate(index_name, lo, hi) == pytest.approx(
                baseline.estimate(index_name, lo, hi)
            )

    @pytest.mark.parametrize(
        "synopsis_type",
        [
            SynopsisType.EQUI_WIDTH,
            SynopsisType.EQUI_HEIGHT,
            SynopsisType.GK_SKETCH,
            SynopsisType.RESERVOIR_SAMPLE,
        ],
    )
    def test_roundtrip_all_types(self, tmp_path, synopsis_type):
        dataset, manager = _populated_manager(synopsis_type)
        path = tmp_path / "catalog.json"
        save_catalog(manager.catalog, path)
        restored = load_catalog(path)
        assert restored.entry_count() == manager.catalog.entry_count()
        assert restored.index_names() == manager.catalog.index_names()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(tmp_path / "ghost.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_bytes(b"\xffnot a frame")
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "future.cat"
        frame = wire.encode([])
        path.write_bytes(
            wire.encode(
                {"format": 99, "checksum": zlib.crc32(frame), "entries": frame}
            )
        )
        with pytest.raises(CatalogError, match=r"format 99 \(expected 3\)"):
            load_catalog(path)

    def test_format_2_json_file_rejected_naming_both_versions(self, tmp_path):
        # What the parent commit's save_catalog wrote: JSON text.
        path = tmp_path / "old.json"
        path.write_text('{"format": 2, "checksum": 223132457, "entries": []}')
        with pytest.raises(CatalogError, match=r"format-3 .* format 2 or older"):
            load_catalog(path)

    def test_empty_catalog(self, tmp_path):
        from repro.core.catalog import StatisticsCatalog

        path = tmp_path / "empty.cat"
        assert save_catalog(StatisticsCatalog(), path) == 0
        assert load_catalog(path).entry_count() == 0

    def test_checksum_covers_exactly_the_entry_frame(self, tmp_path):
        _dataset, manager = _populated_manager()
        path = tmp_path / "catalog.cat"
        save_catalog(manager.catalog, path)
        document = wire.decode(path.read_bytes())
        assert document["format"] == CATALOG_FORMAT_VERSION == 3
        assert document["checksum"] == zlib.crc32(document["entries"])
        assert len(wire.decode(document["entries"])) == manager.catalog.entry_count()

    def test_checksum_rejects_payload_tampering(self, tmp_path):
        _dataset, manager = _populated_manager()
        path = tmp_path / "catalog.cat"
        save_catalog(manager.catalog, path)
        document = wire.decode(path.read_bytes())
        entries = wire.decode(document["entries"])
        entries[0]["partition"] += 1  # single flipped field
        document["entries"] = wire.encode(entries)
        path.write_bytes(wire.encode(document))
        with pytest.raises(CatalogError, match="checksum"):
            load_catalog(path)

    def test_checksum_rejects_truncated_entry_list(self, tmp_path):
        _dataset, manager = _populated_manager()
        path = tmp_path / "catalog.cat"
        save_catalog(manager.catalog, path)
        document = wire.decode(path.read_bytes())
        document["entries"] = wire.encode(wire.decode(document["entries"])[:-1])
        path.write_bytes(wire.encode(document))
        with pytest.raises(CatalogError, match="checksum"):
            load_catalog(path)

    def test_truncated_file_rejected_at_every_length(self, tmp_path):
        data = self._small_catalog_file(tmp_path)
        path = tmp_path / "cut.cat"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(CatalogError):
                load_catalog(path)

    def test_every_flipped_bit_rejected(self, tmp_path):
        data = self._small_catalog_file(tmp_path)
        path = tmp_path / "flipped.cat"
        for position in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[position] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(CatalogError):
                    load_catalog(path)

    @staticmethod
    def _small_catalog_file(tmp_path):
        from repro.core.catalog import StatisticsCatalog
        from repro.synopses import create_builder

        catalog = StatisticsCatalog()
        for family, budget in [(SynopsisType.EQUI_WIDTH, 8), (SynopsisType.HLL_SKETCH, 16)]:
            builder = create_builder(family, VALUE_DOMAIN, budget, 3)
            builder.add_many([1, 5, 900])
            synopsis = builder.build()
            catalog.put(family.value, "n1", 0, 1, synopsis, synopsis, epoch=1)
        path = tmp_path / "small.cat"
        save_catalog(catalog, path)
        assert load_catalog(path).entry_count() == 2
        return path.read_bytes()

    def test_malformed_entry_named_in_error(self, tmp_path):
        frame = wire.encode([{"index": "idx"}])  # missing every other field
        path = tmp_path / "partial.cat"
        path.write_bytes(
            wire.encode(
                {
                    "format": CATALOG_FORMAT_VERSION,
                    "checksum": zlib.crc32(frame),
                    "entries": frame,
                }
            )
        )
        with pytest.raises(CatalogError, match="entry 0"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "counts", [[-5, 10, 1.5, 0], [True, 2**70, 0, 0], [0, 2**63, 0, 0]]
    )
    def test_impossible_histogram_counts_are_catalog_errors(self, tmp_path, counts):
        good = {"type": "equi_width", "domain": [0, 99], "budget": 4, "counts": [0] * 4}
        entry = {
            "index": "idx",
            "node": "n1",
            "partition": 0,
            "component_uid": 1,
            "synopsis": {**good, "counts": counts},
            "anti_synopsis": good,
        }
        frame = wire.encode([entry])
        path = tmp_path / "counts.cat"
        path.write_bytes(
            wire.encode(
                {
                    "format": CATALOG_FORMAT_VERSION,
                    "checksum": zlib.crc32(frame),
                    "entries": frame,
                }
            )
        )
        with pytest.raises(CatalogError, match="entry 0"):
            load_catalog(path)

    def test_epoch_survives_roundtrip(self, tmp_path):
        from repro.core.catalog import StatisticsCatalog
        from repro.synopses import create_builder

        builder = create_builder(SynopsisType.EQUI_WIDTH, VALUE_DOMAIN, 8, 1)
        builder.add(1)
        synopsis = builder.build()
        catalog = StatisticsCatalog()
        catalog.put("idx", "n1", 0, 1, synopsis, synopsis, epoch=3)
        path = tmp_path / "epoch.json"
        save_catalog(catalog, path)
        restored = load_catalog(path)
        assert restored.entries_for("idx")[0].epoch == 3


class TestCollectorMetrics:
    """The collector's counts are its registry instruments."""

    def test_counters_track_workload(self):
        with use_registry(MetricsRegistry()) as registry:
            _populated_manager()
        counters = registry.snapshot()["counters"]
        writes = counters["collector.component_writes"]
        assert writes > 0
        assert counters["lsm.flush.count"] > 0
        assert counters["collector.synopses.published"] == 2 * writes
        # 500 inserts into primary + secondary observations; deletes add
        # anti-matter on both indexes.
        assert counters["collector.records.matter"] > 0
        assert counters["collector.records.antimatter"] > 0
        assert registry.histogram("synopsis.build.seconds").sum > 0

    def test_merge_events_counted(self):
        with use_registry(MetricsRegistry()) as registry:
            _populated_manager(merge_policy=ConstantMergePolicy(2))
        counters = registry.snapshot()["counters"]
        assert counters["lsm.merge.count"] > 0
        # Statistics ride every index, so the collector taps every
        # component write: flushes and merges alike.
        assert counters["collector.component_writes"] == (
            counters["lsm.flush.count"] + counters["lsm.merge.count"]
        )
