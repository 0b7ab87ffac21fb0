"""The lightweight statistics-collection framework (Section 3)."""

from repro.core.cache import CachedMergedSynopsis, MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog, StatisticsEntry
from repro.core.collector import (
    CollectorMetrics,
    StatisticsCollector,
    StatisticsSink,
    attribute_statistics_key,
)
from repro.core.persistence import load_catalog, save_catalog
from repro.core.config import DEFAULT_BUDGET, StatisticsConfig
from repro.core.estimator import CardinalityEstimator, EstimateResult
from repro.core.manager import LocalStatisticsSink, StatisticsManager

__all__ = [
    "StatisticsConfig",
    "DEFAULT_BUDGET",
    "StatisticsCatalog",
    "StatisticsEntry",
    "MergedSynopsisCache",
    "CachedMergedSynopsis",
    "StatisticsCollector",
    "StatisticsSink",
    "CollectorMetrics",
    "attribute_statistics_key",
    "save_catalog",
    "load_catalog",
    "CardinalityEstimator",
    "EstimateResult",
    "LocalStatisticsSink",
    "StatisticsManager",
]
