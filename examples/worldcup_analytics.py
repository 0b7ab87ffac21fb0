"""Real-world-shaped data: synopsis accuracy on WorldCup-like logs.

Indexes six fields of a synthetic WorldCup'98-style web log and
contrasts the three synopsis families, reproducing Figure 9's findings
in miniature: equi-width histograms collapse on clustered fields
(Timestamp/ClientID/ObjectID), equi-height histograms and wavelets
adapt, and spiky categorical fields are hard for everyone.

Run:  python examples/worldcup_analytics.py
"""

from repro.core import (
    CardinalityEstimator,
    LocalStatisticsSink,
    MergedSynopsisCache,
    StatisticsCatalog,
    StatisticsCollector,
    StatisticsConfig,
)
from repro.eval.truth import FrequencyIndex
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.synopses import SynopsisType
from repro.types import Domain
from repro.workloads import WORLDCUP_FIELDS, WorldCupGenerator

NUM_RECORDS = 15_000
BUDGET = 64


def main() -> None:
    dataset = Dataset(
        "worldcup",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 2**62),
        indexes=[
            IndexSpec(f"{field.name}_idx", field.name, field.domain)
            for field in WORLDCUP_FIELDS
        ],
        memtable_capacity=1_500,
        merge_policy=ConstantMergePolicy(5),
    )

    # One collector per synopsis family, all piggybacking on the same
    # ingestion -- the framework's superpower.
    slots = {}
    for synopsis_type in (
        SynopsisType.EQUI_WIDTH,
        SynopsisType.EQUI_HEIGHT,
        SynopsisType.WAVELET,
    ):
        catalog = StatisticsCatalog()
        cache = MergedSynopsisCache()
        collector = StatisticsCollector(
            StatisticsConfig(synopsis_type, BUDGET),
            LocalStatisticsSink(catalog, cache),
        )
        for field in WORLDCUP_FIELDS:
            collector.register_index(
                dataset.secondary_tree(f"{field.name}_idx").name, field.domain
            )
        dataset.event_bus.subscribe(collector)
        slots[synopsis_type] = CardinalityEstimator(catalog, cache)

    print(
        f"Ingesting {NUM_RECORDS} log records (Constant merge policy, 5 components)..."
    )
    documents = list(WorldCupGenerator(NUM_RECORDS, seed=4).generate())
    for document in documents:
        dataset.insert(document)
    dataset.flush()

    print(f"\nPer-field relative error of a 1%-of-range query (budget {BUDGET}):")
    header = f"{'field':>10} {'true':>7}" + "".join(f" {t.value:>12}" for t in slots)
    print(header)
    for field in WORLDCUP_FIELDS:
        truth = FrequencyIndex(doc[field.name] for doc in documents)
        assert truth.min_value is not None and truth.max_value is not None
        length = max(1, (truth.max_value - truth.min_value) // 100)
        mid = (truth.min_value + truth.max_value) // 2
        lo, hi = mid, min(mid + length, field.domain.hi)
        true_count = truth.count(lo, hi)
        cells = []
        index_name = dataset.secondary_tree(f"{field.name}_idx").name
        for estimator in slots.values():
            estimate = estimator.estimate(index_name, lo, hi)
            cells.append(f"{estimate:>12.1f}")
        print(f"{field.name:>10} {true_count:>7}" + " ".join([""] + cells))

    print(
        "\nNote how the equi-width column degenerates on the clustered "
        "int32 fields\n(timestamp/client_id/object_id): every record falls "
        "into one domain-wide bucket."
    )


if __name__ == "__main__":
    main()
