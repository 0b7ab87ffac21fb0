"""Single-node convenience wiring of the statistics framework.

:class:`StatisticsManager` bundles a catalog, a merged-synopsis cache,
a collector and an estimator, and attaches them to datasets -- the
whole paper pipeline without the cluster simulation.  The distributed
variant lives in :mod:`repro.cluster`, which reuses the same pieces but
ships synopses over the simulated network.
"""

from __future__ import annotations

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.collector import StatisticsCollector, StatisticsUpdate
from repro.core.config import StatisticsConfig
from repro.core.estimator import (
    CardinalityEstimator,
    EstimateResult,
    NDVEstimate,
)
from repro.lsm.dataset import Dataset
from repro.synopses.multidim import Synopsis2DType

__all__ = ["LocalStatisticsSink", "StatisticsManager"]

LOCAL_NODE_ID = "local"


class LocalStatisticsSink:
    """Statistics sink writing straight into an in-process catalog."""

    def __init__(
        self,
        catalog: StatisticsCatalog,
        cache: MergedSynopsisCache | None = None,
        node_id: str = LOCAL_NODE_ID,
        partition_id: int = 0,
    ) -> None:
        self.catalog = catalog
        self.cache = cache
        self.node_id = node_id
        self.partition_id = partition_id

    def publish(self, update: StatisticsUpdate) -> None:
        """Apply one lifecycle event's statistics as one catalog
        transition; drop the cached merge of every index it moved."""
        moved = self.catalog.apply(update, self.node_id, self.partition_id)
        if self.cache is not None:
            for index_name in moved:
                self.cache.invalidate(index_name)


class StatisticsManager:
    """Catalog + cache + collector + estimator for a local deployment."""

    def __init__(self, config: StatisticsConfig) -> None:
        self.config = config
        self.catalog = StatisticsCatalog()
        self.cache = MergedSynopsisCache() if config.cache_merged else None
        self.collector: StatisticsCollector | None = None
        if config.enabled:
            sink = LocalStatisticsSink(self.catalog, self.cache)
            self.collector = StatisticsCollector(config, sink)
        self.estimator = CardinalityEstimator(self.catalog, self.cache)

    def attach(self, dataset: Dataset) -> None:
        """Enable statistics for a dataset's primary and secondary keys.

        A no-op under the NoStats baseline, so callers can attach
        unconditionally and switch behaviour purely via configuration.
        """
        if self.collector is None:
            return
        self.collector.register_index(
            dataset.primary.name, dataset.primary_domain
        )
        for spec in dataset.indexes.values():
            tree = dataset.secondary_tree(spec.name)
            self.collector.register_index(tree.name, spec.domain)
        dataset.event_bus.subscribe(self.collector)

    def attach_composite(
        self,
        dataset: Dataset,
        synopsis_type: Synopsis2DType = Synopsis2DType.GRID,
        budget: int = 1024,
    ) -> None:
        """Enable 2-D statistics for every composite-key and R-tree
        index of a dataset (both stream lexicographically ordered
        ``(x, y)`` pairs); :meth:`estimate` then takes a rectangle."""
        if self.collector is None:
            return
        for spec in (
            *dataset.composite_indexes.values(),
            *dataset.spatial_indexes.values(),
        ):
            self.collector.register_composite_index(
                dataset.secondary_tree(spec.name).name,
                spec.domains,
                synopsis_type,
                budget,
            )
        dataset.event_bus.subscribe(self.collector)

    def register_attribute(
        self, dataset: Dataset, attribute: str, domain
    ) -> None:
        """Enable statistics on a non-indexed attribute (Section 5
        future work); requires an order-insensitive synopsis type."""
        if self.collector is None:
            return
        self.collector.register_attribute(
            dataset.primary.name, attribute, domain
        )

    def estimate_attribute(
        self, dataset: Dataset, attribute: str, lo: int, hi: int
    ) -> float:
        """Range-cardinality estimate on a registered attribute."""
        from repro.core.collector import attribute_statistics_key

        key = attribute_statistics_key(dataset.primary.name, attribute)
        return self.estimator.estimate(key, lo, hi)

    def estimate(self, dataset: Dataset, index_name: str, *bounds: int) -> float:
        """Cardinality estimate on one of the dataset's indexes
        (``"primary"`` or a secondary index name): ``lo, hi`` for a
        range, ``lo_x, hi_x, lo_y, hi_y`` for a rectangle on a
        composite-key or R-tree index."""
        return self.estimate_detailed(dataset, index_name, *bounds).estimate

    def estimate_detailed(
        self, dataset: Dataset, index_name: str, *bounds: int
    ) -> EstimateResult:
        """Like :meth:`estimate`, with overhead/caching diagnostics."""
        return self.estimator.estimate_detailed(
            self._full_name(dataset, index_name), *bounds
        )

    def estimate_ndv(self, dataset: Dataset, index_name: str = "primary") -> float:
        """Distinct-value estimate for one of the dataset's indexes
        (requires ``ndv_enabled`` in the configuration)."""
        return self.estimate_ndv_detailed(dataset, index_name).ndv

    def estimate_ndv_detailed(
        self, dataset: Dataset, index_name: str = "primary"
    ) -> NDVEstimate:
        """Like :meth:`estimate_ndv`, with the anti-matter interval and
        caching diagnostics."""
        return self.estimator.estimate_ndv_detailed(
            self._full_name(dataset, index_name)
        )

    @staticmethod
    def _full_name(dataset: Dataset, index_name: str) -> str:
        if index_name == "primary":
            return dataset.primary.name
        return dataset.secondary_tree(index_name).name
