"""Statistics on composite-key indexes (2-D; the paper's Section 5).

Wires the multidimensional synopses of :mod:`repro.synopses.multidim`
into the same event-driven framework as the 1-D statistics: a
:class:`SpatialStatisticsCollector` taps the component streams of
composite-key indexes (whose bulkload order is lexicographic in
``(SK1, SK2)`` -- exactly what the 2-D builders require), builds a
regular and an anti-matter synopsis per component, and a
:class:`SpatialCardinalityEstimator` combines the catalogued entries
into rectangle-cardinality estimates with the same
regular-minus-anti-matter rule as the paper's Algorithm 2.

The catalog is shared infrastructure: :class:`~repro.core.catalog.
StatisticsCatalog` only needs ``payload_bytes``/``estimate`` duck
typing from what it stores, so 2-D entries live in their own catalog
instance with identical versioning semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.catalog import StatisticsCatalog
from repro.core.collector import StatisticsSink
from repro.errors import ConfigurationError
from repro.lsm.columnar import ColumnarChunk, split_matter_anti
from repro.lsm.component import DiskComponent
from repro.lsm.dataset import Dataset
from repro.lsm.events import ComponentWriteContext, RecordSink
from repro.synopses.multidim.base2d import (
    Synopsis2D,
    Synopsis2DBuilder,
    Synopsis2DType,
)
from repro.synopses.multidim.factory2d import create_builder_2d
from repro.types import Domain

__all__ = [
    "SpatialStatisticsConfig",
    "SpatialStatisticsCollector",
    "SpatialEstimateResult",
    "SpatialCardinalityEstimator",
    "SpatialStatisticsManager",
]


@dataclass(frozen=True)
class SpatialStatisticsConfig:
    """Configuration of the 2-D statistics framework."""

    synopsis_type: Synopsis2DType = Synopsis2DType.GRID
    budget: int = 1024

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")


class _SpatialComponentSink:
    """Per-component-write tap feeding the 2-D builders."""

    def __init__(
        self,
        context: ComponentWriteContext,
        builder: Synopsis2DBuilder,
        anti_builder: Synopsis2DBuilder,
        sink: StatisticsSink,
    ) -> None:
        self._context = context
        self._builder = builder
        self._anti_builder = anti_builder
        self._sink = sink

    def accept_many(self, chunk: ColumnarChunk) -> None:
        extractor = self._context.key_extractor
        split = split_matter_anti(chunk, extractor)
        if split is None:  # extractor without a registered column twin
            records = chunk.records()
            split = (
                [extractor(r) for r in records if not r.antimatter],
                [extractor(r) for r in records if r.antimatter],
                0,
            )
        points, anti_points, _skipped = split
        for x, y in points:
            self._builder.add(x, y)
        for x, y in anti_points:
            self._anti_builder.add(x, y)

    def finish(self, component: DiskComponent) -> None:
        self._sink.publish(
            self._context.index_name,
            component.uid,
            self._builder.build(),  # type: ignore[arg-type]
            self._anti_builder.build(),  # type: ignore[arg-type]
        )


class SpatialStatisticsCollector:
    """LSM event observer for composite-key indexes."""

    def __init__(
        self, config: SpatialStatisticsConfig, sink: StatisticsSink
    ) -> None:
        self.config = config
        self.sink = sink
        self._domains: dict[str, tuple[Domain, Domain]] = {}

    def register_index(
        self, index_name: str, domains: tuple[Domain, Domain]
    ) -> None:
        """Enable 2-D statistics for one composite-key index."""
        self._domains[index_name] = domains

    # -- LSMEventObserver -----------------------------------------------------

    def begin_component_write(
        self, context: ComponentWriteContext
    ) -> RecordSink | None:
        domains = self._domains.get(context.index_name)
        if domains is None:
            return None
        return _SpatialComponentSink(
            context,
            create_builder_2d(self.config.synopsis_type, domains, self.config.budget),
            create_builder_2d(self.config.synopsis_type, domains, self.config.budget),
            self.sink,
        )

    def component_replaced(
        self,
        index_name: str,
        old_components: tuple[DiskComponent, ...],
        new_component: DiskComponent,
    ) -> None:
        if index_name not in self._domains:
            return
        self.sink.retract(index_name, [c.uid for c in old_components])


@dataclass(frozen=True)
class SpatialEstimateResult:
    """A rectangle estimate plus diagnostics."""

    estimate: float
    synopses_consulted: int
    overhead_seconds: float


class SpatialCardinalityEstimator:
    """Rectangle-cardinality estimation over catalogued 2-D synopses."""

    def __init__(self, catalog: StatisticsCatalog) -> None:
        self.catalog = catalog

    def estimate(
        self, index_name: str, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> float:
        """Estimated records inside the inclusive rectangle."""
        return self.estimate_detailed(index_name, lo_x, hi_x, lo_y, hi_y).estimate

    def estimate_detailed(
        self, index_name: str, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> SpatialEstimateResult:
        """Estimate with diagnostics (per-component combination)."""
        started = time.perf_counter()
        entries = self.catalog.entries_for(index_name)
        total = 0.0
        for entry in entries:
            synopsis = entry.synopsis
            anti = entry.anti_synopsis
            assert isinstance(synopsis, Synopsis2D) and isinstance(anti, Synopsis2D)
            total += synopsis.estimate(lo_x, hi_x, lo_y, hi_y)
            total -= anti.estimate(lo_x, hi_x, lo_y, hi_y)
        return SpatialEstimateResult(
            max(total, 0.0), len(entries), time.perf_counter() - started
        )


class _CatalogSink:
    """Statistics sink writing into a dedicated 2-D catalog."""

    def __init__(self, catalog: StatisticsCatalog) -> None:
        self.catalog = catalog

    def publish(self, index_name, component_uid, synopsis, anti_synopsis):
        self.catalog.put(
            index_name, "local", 0, component_uid, synopsis, anti_synopsis
        )

    def retract(self, index_name, component_uids):
        self.catalog.retract(index_name, "local", 0, component_uids)


class SpatialStatisticsManager:
    """Catalog + collector + estimator for composite-key statistics."""

    def __init__(self, config: SpatialStatisticsConfig) -> None:
        self.config = config
        self.catalog = StatisticsCatalog()
        self.collector = SpatialStatisticsCollector(
            config, _CatalogSink(self.catalog)
        )
        self.estimator = SpatialCardinalityEstimator(self.catalog)

    def attach(self, dataset: Dataset) -> None:
        """Enable 2-D statistics for every composite-key and R-tree
        index of a dataset (both stream lexicographically ordered
        (x, y) pairs)."""
        for spec in dataset.composite_indexes.values():
            self.register(dataset, spec)
        for spatial_spec in dataset.spatial_indexes.values():
            self.register(dataset, spatial_spec)
        dataset.event_bus.subscribe(self.collector)

    def register(self, dataset: Dataset, spec) -> None:
        """Enable 2-D statistics for one composite or spatial index."""
        tree = dataset.secondary_tree(spec.name)
        self.collector.register_index(tree.name, spec.domains)

    def estimate(
        self,
        dataset: Dataset,
        index_name: str,
        lo_x: int,
        hi_x: int,
        lo_y: int,
        hi_y: int,
    ) -> float:
        """Rectangle-cardinality estimate on a composite index."""
        full_name = dataset.secondary_tree(index_name).name
        return self.estimator.estimate(full_name, lo_x, hi_x, lo_y, hi_y)
