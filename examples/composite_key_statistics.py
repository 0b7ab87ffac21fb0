"""Composite-key (2-D) statistics: the paper's future work, running.

Indexes an (x, y) attribute pair with a composite-key B-tree, registers
2-D statistics on it with the same manager that keeps the 1-D ones, and
shows why they exist: on correlated attributes, rectangle estimates
from per-attribute statistics under the independence assumption are
wildly wrong, while the 2-D grid synopsis -- maintained through the
same LSM lifecycle events, catalog and estimator as everything else --
tracks the truth.

Run:  python examples/composite_key_statistics.py
"""

from repro.core import StatisticsConfig, StatisticsManager
from repro.lsm.dataset import CompositeIndexSpec, Dataset, IndexSpec
from repro.lsm.storage import SimulatedDisk
from repro.synopses import SynopsisType
from repro.synopses.multidim import Synopsis2DType
from repro.types import Domain

X_DOMAIN = Domain(0, 999)  # e.g. order amount
Y_DOMAIN = Domain(0, 999)  # e.g. shipping cost (correlated with amount)
NUM_RECORDS = 10_000


def main() -> None:
    dataset = Dataset(
        "orders",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 2**62),
        indexes=[
            IndexSpec("amount_idx", "amount", X_DOMAIN),
            IndexSpec("shipping_idx", "shipping", Y_DOMAIN),
            CompositeIndexSpec(
                "amount_shipping_idx",
                ("amount", "shipping"),
                (X_DOMAIN, Y_DOMAIN),
            ),
        ],
        memtable_capacity=2_000,
    )
    # 1-D statistics for the marginals, 2-D for the composite index --
    # one manager, all piggybacking on the same flushes.
    manager = StatisticsManager(StatisticsConfig(SynopsisType.EQUI_WIDTH, 256))
    manager.attach(dataset)
    manager.attach_composite(dataset, Synopsis2DType.GRID, budget=1024)

    print(f"Ingesting {NUM_RECORDS} orders (shipping ~ amount / 2 + noise)...")
    for pk in range(NUM_RECORDS):
        amount = (pk * 17) % 1000
        shipping = min(999, amount // 2 + (pk % 50))
        dataset.insert({"id": pk, "amount": amount, "shipping": shipping})
    dataset.flush()

    print(f"\n{'rectangle':>38} {'true':>6} {'indep.':>8} {'2-D grid':>9}")
    rectangles = [
        ("cheap orders, cheap shipping", (0, 199, 0, 149)),
        ("cheap orders, PRICY shipping", (0, 199, 500, 999)),
        ("expensive orders, matching band", (800, 999, 400, 549)),
    ]
    for label, (lo_x, hi_x, lo_y, hi_y) in rectangles:
        true = dataset.count_composite_range(
            "amount_shipping_idx", lo_x, hi_x, lo_y, hi_y
        )
        sel_x = manager.estimate(dataset, "amount_idx", lo_x, hi_x)
        sel_y = manager.estimate(dataset, "shipping_idx", lo_y, hi_y)
        independence = sel_x * sel_y / NUM_RECORDS
        grid = manager.estimate(
            dataset, "amount_shipping_idx", lo_x, hi_x, lo_y, hi_y
        )
        print(f"{label:>38} {true:>6} {independence:>8.1f} {grid:>9.1f}")

    print(
        "\nThe independence assumption invents matches in the anti-"
        "correlated rectangle\nand destroys them in the correlated band; "
        "the 2-D synopsis tracks both."
    )


if __name__ == "__main__":
    main()
