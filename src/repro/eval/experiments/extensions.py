"""Drivers for the beyond-the-paper extension experiments.

Two experiments the paper's Section 5 sketches but does not run:

* :func:`run_multidim` -- rectangle-cardinality accuracy of the 2-D
  synopses against the classic attribute-independence assumption, as
  attribute correlation grows;
* :func:`run_rtree` -- the LSM-ified R-tree's MBR page pruning and the
  accuracy of 2-D statistics piggybacked on its component streams.

Both are also wired into the CLI (``python -m repro run ext-multidim``)
and asserted by their ``benchmarks/bench_extension_*.py`` twins.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.eval.experiments.common import ExperimentScale, SMALL_SCALE
from repro.eval.metrics import ErrorAccumulator
from repro.eval.reporting import format_table
from repro.lsm.dataset import Dataset, SpatialIndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.synopses import SynopsisType, create_builder
from repro.synopses.multidim import Synopsis2DType, create_builder_2d
from repro.types import Domain

__all__ = [
    "run_multidim",
    "format_multidim_results",
    "run_rtree",
    "format_rtree_results",
]

# -- 2-D synopses vs. the independence assumption ---------------------------

_MD_X = Domain(0, 1023)
_MD_Y = Domain(0, 1023)
MULTIDIM_BUDGET = 1024
MULTIDIM_CORRELATIONS = [0.0, 0.5, 1.0]
_MD_RECORDS = 8000
_MD_QUERIES = 150


def _make_pairs(correlation: float, rng: np.random.Generator):
    """y mixes a copy of x with independent noise by ``correlation``."""
    x = rng.integers(0, _MD_X.length, size=_MD_RECORDS)
    independent = rng.integers(0, _MD_Y.length, size=_MD_RECORDS)
    take_x = rng.random(_MD_RECORDS) < correlation
    y = np.where(take_x, x, independent)
    return sorted(zip(x.tolist(), y.tolist()))


def _build_estimators(pairs):
    grid_builder = create_builder_2d(
        Synopsis2DType.GRID, (_MD_X, _MD_Y), MULTIDIM_BUDGET
    )
    wavelet_builder = create_builder_2d(
        Synopsis2DType.WAVELET, (_MD_X, _MD_Y), MULTIDIM_BUDGET
    )
    # The 1-D marginals share the same total space: budget/2 each.
    x_builder = create_builder(
        SynopsisType.EQUI_WIDTH, _MD_X, MULTIDIM_BUDGET // 2, len(pairs)
    )
    y_builder = create_builder(
        SynopsisType.EQUI_WIDTH, _MD_Y, MULTIDIM_BUDGET // 2, len(pairs)
    )
    for x, y in pairs:
        grid_builder.add(x, y)
        wavelet_builder.add(x, y)
        x_builder.add(x)
    for y in sorted(y for _x, y in pairs):
        y_builder.add(y)
    return (
        grid_builder.build(),
        wavelet_builder.build(),
        x_builder.build(),
        y_builder.build(),
    )


def run_multidim(scale: ExperimentScale = SMALL_SCALE) -> list[dict]:
    """One row per (correlation, estimation method)."""
    rng = np.random.default_rng(scale.seed)
    rows = []
    for correlation in MULTIDIM_CORRELATIONS:
        pairs = _make_pairs(correlation, rng)
        grid, wavelet, x_marginal, y_marginal = _build_estimators(pairs)
        xs = np.array([x for x, _y in pairs])
        ys = np.array([y for _x, y in pairs])
        accumulators = {
            "independence": ErrorAccumulator(_MD_RECORDS),
            "grid_2d": ErrorAccumulator(_MD_RECORDS),
            "wavelet_2d": ErrorAccumulator(_MD_RECORDS),
        }
        for _ in range(_MD_QUERIES):
            corners = rng.integers(0, _MD_X.length, size=4)
            lo_x, hi_x = sorted((int(corners[0]), int(corners[1])))
            lo_y, hi_y = sorted((int(corners[2]), int(corners[3])))
            true = int(
                np.sum((xs >= lo_x) & (xs <= hi_x) & (ys >= lo_y) & (ys <= hi_y))
            )
            independence = (
                x_marginal.estimate(lo_x, hi_x)
                * y_marginal.estimate(lo_y, hi_y)
                / _MD_RECORDS
            )
            accumulators["independence"].add(true, independence)
            accumulators["grid_2d"].add(true, grid.estimate(lo_x, hi_x, lo_y, hi_y))
            accumulators["wavelet_2d"].add(
                true, wavelet.estimate(lo_x, hi_x, lo_y, hi_y)
            )
        for method, accumulator in accumulators.items():
            rows.append(
                {
                    "correlation": correlation,
                    "method": method,
                    "l1_error": accumulator.metrics().l1_error,
                }
            )
    return rows


def format_multidim_results(rows: list[dict]) -> str:
    """Render the correlation sweep."""
    return format_table(
        ["correlation", "method", "normalized L1 error"],
        [[r["correlation"], r["method"], r["l1_error"]] for r in rows],
        title=(
            "Extension — 2-D synopses vs. the independence assumption "
            f"(budget {MULTIDIM_BUDGET})"
        ),
    )


# -- LSM-ified R-tree ---------------------------------------------------------

_RT_X = Domain(0, 4095)
_RT_Y = Domain(0, 4095)
_RT_POINTS = 10_000
_RT_QUERIES = 100
_RT_WINDOW = 256


def run_rtree(scale: ExperimentScale = SMALL_SCALE) -> dict:
    """Pruning + piggybacked-statistics metrics of the spatial index."""
    rng = np.random.default_rng(scale.seed)
    dataset = Dataset(
        "geo",
        SimulatedDisk(),
        primary_key="id",
        primary_domain=Domain(0, 2**62),
        indexes=[SpatialIndexSpec("loc_idx", ("x", "y"), (_RT_X, _RT_Y))],
        memtable_capacity=_RT_POINTS // 8,
        merge_policy=ConstantMergePolicy(4),
    )
    manager = StatisticsManager(StatisticsConfig())
    manager.attach_composite(dataset, Synopsis2DType.GRID, budget=1024)

    xs = rng.integers(0, _RT_X.length, size=_RT_POINTS)
    ys = np.clip(xs + rng.integers(-300, 300, size=_RT_POINTS), 0, _RT_Y.hi)
    for pk in range(_RT_POINTS):
        dataset.insert({"id": pk, "x": int(xs[pk]), "y": int(ys[pk])})
    dataset.flush()

    disk = dataset.primary.disk
    tree = dataset.secondary_tree("loc_idx")

    def random_rect():
        corner_x = int(rng.integers(0, _RT_X.length - _RT_WINDOW))
        corner_y = int(rng.integers(0, _RT_Y.length - _RT_WINDOW))
        return (
            corner_x,
            corner_x + _RT_WINDOW - 1,
            corner_y,
            corner_y + _RT_WINDOW - 1,
        )

    before = disk.stats.snapshot()
    found = 0
    for _ in range(_RT_QUERIES):
        found += sum(1 for _r in dataset.search_spatial("loc_idx", *random_rect()))
    search_pages = disk.stats.delta(before).pages_read

    before = disk.stats.snapshot()
    for component in tree.components:
        for _record in component.scan():
            pass
    full_scan_pages = disk.stats.delta(before).pages_read * _RT_QUERIES

    errors = ErrorAccumulator(_RT_POINTS)
    for _ in range(_RT_QUERIES):
        rect = random_rect()
        true = dataset.count_spatial_range("loc_idx", *rect)
        errors.add(true, manager.estimate(dataset, "loc_idx", *rect))

    return {
        "search_pages_per_query": search_pages / _RT_QUERIES,
        "full_scan_pages_per_query": full_scan_pages / _RT_QUERIES,
        "matches_found": found,
        "stats_l1_error": errors.metrics().l1_error,
        "components": len(tree.components),
    }


def format_rtree_results(row: dict) -> str:
    """Render the R-tree metric row."""
    return format_table(
        ["metric", "value"],
        [[key, value] for key, value in row.items()],
        title="Extension — LSM-ified R-tree: pruning + piggybacked 2-D stats",
    )
