"""End-to-end: real flushes/merges produce the documented metrics."""

from pathlib import Path

from repro.core.config import StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import (
    MetricsRegistry,
    NOOP_REGISTRY,
    use_registry,
)
from repro.obs.selfcheck import (
    documented_metric_names,
    is_documented,
    run_scripted_ingest,
    selfcheck,
)
from repro.synopses.base import SynopsisType
from repro.types import Domain

DOCS = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def ingest(registry) -> None:
    """One bulkload, several flushes, at least one merge, estimates."""
    with use_registry(registry):
        dataset = Dataset(
            "t",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=Domain(0, 2**16 - 1),
            indexes=[IndexSpec("v_idx", "v", Domain(0, 255))],
            memtable_capacity=64,
            merge_policy=ConstantMergePolicy(max_components=2),
        )
        stats = StatisticsManager(StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=16))
        stats.attach(dataset)
        dataset.bulkload({"id": pk, "v": pk % 256} for pk in range(128))
        for pk in range(128, 384):
            dataset.insert({"id": pk, "v": pk % 256})
        dataset.flush()
        for _ in range(4):
            stats.estimate(dataset, "v_idx", 10, 99)


class TestFlushAndMergeMetrics:
    def test_lifecycle_counters_are_plausible(self):
        registry = MetricsRegistry()
        ingest(registry)
        counters = registry.snapshot()["counters"]
        # 128 bulkloaded + 256 inserted, on primary + one secondary.
        assert counters["lsm.bulkload.count"] == 2
        assert counters["lsm.flush.count"] >= 4
        assert counters["lsm.merge.count"] >= 1
        assert counters["lsm.records.matter"] >= 2 * 384
        assert counters["lsm.observer.failures"] == 0
        # The collector tapped every component write the bus announced.
        assert (
            counters["collector.component_writes"]
            == counters["lsm.events.component_writes"]
        )
        assert counters["collector.synopses.published"] == (
            2 * counters["collector.component_writes"]
        )
        assert counters["estimator.estimate.count"] == 4
        assert counters["cache.merged.hit"] + counters["cache.merged.miss"] == 4

    def test_latency_histograms_are_populated(self):
        registry = MetricsRegistry()
        ingest(registry)
        histograms = registry.snapshot()["histograms"]
        for name in (
            "lsm.flush.seconds",
            "lsm.merge.seconds",
            "lsm.bulkload.seconds",
            "synopsis.build.seconds",
            "estimator.estimate.seconds",
            "estimator.estimate.seconds.equi_width",
        ):
            assert histograms[name]["count"] > 0, name
            assert histograms[name]["sum"] >= 0.0
            assert histograms[name]["max"] >= histograms[name]["min"]

    def test_component_gauges_track_live_components(self):
        registry = MetricsRegistry()
        ingest(registry)
        gauges = registry.snapshot()["gauges"]
        # Constant policy caps at 2 components; the merge that fires on
        # overflow leaves exactly one.
        assert 1 <= gauges["lsm.components.t.primary"] <= 2
        assert 1 <= gauges["lsm.components.t.v_idx"] <= 2

    def test_every_emitted_metric_is_documented(self):
        registry = MetricsRegistry()
        ingest(registry)
        documented = documented_metric_names(DOCS)
        assert documented, "docs/OBSERVABILITY.md must declare metric names"
        snapshot = registry.snapshot()
        emitted = (
            list(snapshot["counters"])
            + list(snapshot["gauges"])
            + list(snapshot["histograms"])
        )
        undocumented = [
            name for name in emitted if not is_documented(name, documented)
        ]
        assert not undocumented, (
            f"metrics emitted but missing from docs/OBSERVABILITY.md: "
            f"{undocumented}"
        )


class TestNoopMode:
    def test_ingestion_works_and_records_nothing(self):
        ingest(NOOP_REGISTRY)
        assert NOOP_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_legacy_counters_survive_noop_registry(self):
        with use_registry(NOOP_REGISTRY):
            dataset = Dataset(
                "t",
                SimulatedDisk(),
                primary_key="id",
                primary_domain=Domain(0, 1023),
                memtable_capacity=16,
            )
            for pk in range(32):
                dataset.insert({"id": pk})
            dataset.flush()
            assert dataset.primary.flush_count >= 2


class TestSelfcheck:
    def test_scripted_ingest_passes_selfcheck(self):
        problems = selfcheck(run_scripted_ingest(), docs_path=DOCS)
        assert problems == []

    def test_selfcheck_flags_missing_and_undocumented(self):
        snapshot = run_scripted_ingest()
        snapshot["counters"].pop("lsm.flush.count")
        snapshot["counters"]["made.up.metric"] = 1
        problems = selfcheck(snapshot, docs_path=DOCS)
        assert any("lsm.flush.count" in p for p in problems)
        assert any("made.up.metric" in p for p in problems)

    def test_selfcheck_reports_missing_docs(self):
        problems = selfcheck(
            run_scripted_ingest(), docs_path=Path("/nonexistent/OBS.md")
        )
        assert any("not found" in p for p in problems)

    def test_placeholder_matching(self):
        documented = ["lsm.components.<index>", "lsm.flush.count"]
        assert is_documented("lsm.components.t.primary", documented)
        assert is_documented("lsm.flush.count", documented)
        assert not is_documented("lsm.flushes.count", documented)
        assert not is_documented("lsm.components", documented)


class TestClusterCounterAgreement:
    def test_master_legacy_counter_matches_metric(self):
        """``stats_messages_received`` and ``cluster.stats.messages``
        count the same thing (publishes *and* retracts); they drifted
        apart before the semantics were pinned down."""
        from repro.cluster.cluster import LSMCluster

        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = LSMCluster(
                num_nodes=2,
                partitions_per_node=1,
                stats_config=StatisticsConfig(
                    SynopsisType.EQUI_WIDTH, budget=16
                ),
            )
            cluster.create_dataset(
                "t",
                primary_key="id",
                primary_domain=Domain(0, 2**16 - 1),
                memtable_capacity=16,
                merge_policy_factory=lambda: ConstantMergePolicy(
                    max_components=2
                ),
            )
            for pk in range(200):
                cluster.insert("t", {"id": pk})
            cluster.flush_all("t")
        counters = registry.snapshot()["counters"]
        # The ingest must have produced retract traffic (merges ran),
        # otherwise the regression this guards against cannot show.
        assert counters["cluster.retractions.sent"] > 0
        assert (
            cluster.master.stats_messages_received
            == counters["cluster.stats.messages"]
        )


class TestSketchCompressionRatio:
    """``sketch.compression.ratio`` is the registry-wide
    ``sketch.registers.bytes / sketch.wire.bytes``, not the ratio of
    whichever collector published last."""

    @staticmethod
    def _ship(values, registry):
        """One collector with the NDV lane on ``registry`` ships one
        component holding ``values``."""
        from repro.core.collector import StatisticsCollector
        from repro.lsm.columnar import ColumnarChunk
        from repro.lsm.events import ComponentWriteContext, LSMEventType
        from repro.lsm.record import Record
        from repro.lsm.tree import _default_key_extractor

        class _Component:
            uid = 0

        class _Sink:
            def publish(self, update):
                pass

        with use_registry(registry):
            collector = StatisticsCollector(
                StatisticsConfig(
                    SynopsisType.EQUI_WIDTH, budget=16, ndv_enabled=True
                ),
                _Sink(),
            )
        collector.register_index("idx", Domain(0, 2**20 - 1))
        tap = collector.begin_component_write(
            ComponentWriteContext(
                index_name="idx",
                event_type=LSMEventType.FLUSH,
                expected_records=len(values),
                key_extractor=_default_key_extractor,
            )
        )
        tap.accept_many(
            ColumnarChunk.from_records([Record.matter(v, None, 1) for v in values])
        )
        tap.finish(_Component())

    def test_two_collectors_on_one_registry(self):
        sparse, dense = list(range(4)), list(range(0, 2**20, 97))
        ratios = []
        for values in (sparse, dense):
            alone = MetricsRegistry()
            self._ship(values, alone)
            ratios.append(alone.gauge("sketch.compression.ratio").value)
        assert ratios[0] != ratios[1]  # the two publishers disagree

        registry = MetricsRegistry()
        self._ship(sparse, registry)
        self._ship(dense, registry)
        counters = registry.snapshot()["counters"]
        assert registry.gauge("sketch.compression.ratio").value == (
            counters["sketch.registers.bytes"] / counters["sketch.wire.bytes"]
        )

    def test_noop_registry_ships_without_a_ratio(self):
        self._ship(list(range(4)), NOOP_REGISTRY)
