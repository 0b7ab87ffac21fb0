"""repro: Lightweight Cardinality Estimation in LSM-based Systems.

A from-scratch reproduction of Absalyamov, Carey & Tsotras (SIGMOD
2018): a statistics-collection framework that piggybacks on LSM
lifecycle events (flush/merge/bulkload) to keep equi-width histograms,
equi-height histograms and wavelet synopses in sync with rapidly
changing data at negligible ingestion cost -- plus the LSM storage
engine, shared-nothing cluster simulation, query optimizer hooks and
the full evaluation harness the paper's experiments require.

Quickstart::

    from repro import (
        Dataset, IndexSpec, SimulatedDisk, Domain,
        StatisticsConfig, StatisticsManager, SynopsisType,
    )

    dataset = Dataset(
        "tweets", SimulatedDisk(), primary_key="id",
        primary_domain=Domain(0, 2**31 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 999))],
    )
    stats = StatisticsManager(StatisticsConfig(SynopsisType.WAVELET, 256))
    stats.attach(dataset)
    for pk in range(10_000):
        dataset.insert({"id": pk, "value": pk % 1000})
    dataset.flush()
    print(stats.estimate(dataset, "value_idx", 100, 199))
"""

from repro.core import (
    CardinalityEstimator,
    EstimateResult,
    MergedSynopsisCache,
    StatisticsCatalog,
    StatisticsCollector,
    StatisticsConfig,
    StatisticsManager,
)
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    NOOP_REGISTRY,
    NoopRegistry,
    get_registry,
    set_registry,
    span,
    use_registry,
)
from repro.lsm import (
    ConstantMergePolicy,
    Dataset,
    DiskComponent,
    EventBus,
    IndexSpec,
    LSMTree,
    NoMergePolicy,
    Record,
    SimulatedDisk,
    StackMergePolicy,
)
from repro.synopses import (
    EquiHeightHistogram,
    EquiWidthHistogram,
    Synopsis,
    SynopsisType,
    WaveletSynopsis,
    create_builder,
)
from repro.types import Domain, IntType

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Domain",
    "IntType",
    "Record",
    "LSMTree",
    "Dataset",
    "IndexSpec",
    "DiskComponent",
    "EventBus",
    "SimulatedDisk",
    "NoMergePolicy",
    "ConstantMergePolicy",
    "StackMergePolicy",
    "Synopsis",
    "SynopsisType",
    "EquiWidthHistogram",
    "EquiHeightHistogram",
    "WaveletSynopsis",
    "create_builder",
    "StatisticsConfig",
    "StatisticsManager",
    "StatisticsCatalog",
    "StatisticsCollector",
    "MergedSynopsisCache",
    "CardinalityEstimator",
    "EstimateResult",
    "MetricsRegistry",
    "NoopRegistry",
    "NOOP_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "span",
]
