"""NDV sketch lane accuracy/size trade-off (docs/SKETCHES.md).

Sweeps the HLL precision ``p`` and the true distinct cardinality,
measuring the relative NDV error of the *lazily unioned* sketch (the
stream is split across several simulated components and folded by
register union, exactly as the master does) against the theoretical
standard error ``1.04/sqrt(2**p)``, alongside the wire cost: dense
register bytes vs the HBS-encoded form actually shipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.eval.experiments.common import ExperimentScale
from repro.eval.reporting import format_table
from repro.synopses.hll import HyperLogLogBuilder
from repro.types import Domain

__all__ = ["run_ndv", "format_ndv_results", "NDV_PRECISIONS"]

NDV_PRECISIONS = [4, 6, 8, 10, 12]
_COMPONENTS = 8
_TRIALS = 5
_VALUE_DOMAIN = Domain(0, 2**62 - 1)


@dataclass(frozen=True)
class NDVCell:
    """One (precision, cardinality) sweep cell."""

    precision: int
    registers: int
    cardinality: int
    mean_rel_error: float
    theory_sigma: float
    dense_bytes: int
    mean_wire_bytes: float
    compression_ratio: float


def _unioned_sketch(values, precision: int):
    """Build one sketch per component slice, union them (the master's
    lazy fold) -- exactness of the union is what makes this equal to a
    single sketch over the whole stream."""
    sketches = []
    for i in range(_COMPONENTS):
        builder = HyperLogLogBuilder(_VALUE_DOMAIN, 1 << precision)
        for value in values[i::_COMPONENTS]:
            builder.add(value)
        sketches.append(builder.build())
    return sketches[0].merge_with(*sketches[1:])


def run_ndv(scale: ExperimentScale) -> list[NDVCell]:
    """Run the sweep at ``scale`` (cardinalities derive from
    ``scale.total_records``)."""
    cardinalities = [
        max(10, scale.total_records // 100),
        max(100, scale.total_records // 10),
        scale.total_records,
    ]
    cells: list[NDVCell] = []
    for precision in NDV_PRECISIONS:
        m = 1 << precision
        for cardinality in cardinalities:
            errors = []
            wire_bytes = []
            for trial in range(_TRIALS):
                rng = random.Random(
                    f"{scale.seed}:{precision}:{cardinality}:{trial}"
                )
                values = rng.sample(range(2**62 - 1), cardinality)
                sketch = _unioned_sketch(values, precision)
                estimate = sketch.cardinality()
                errors.append(abs(estimate - cardinality) / cardinality)
                wire_bytes.append(sketch.encoded_bytes())
            mean_wire = sum(wire_bytes) / len(wire_bytes)
            cells.append(
                NDVCell(
                    precision=precision,
                    registers=m,
                    cardinality=cardinality,
                    mean_rel_error=sum(errors) / len(errors),
                    theory_sigma=1.04 / m**0.5,
                    dense_bytes=m,
                    mean_wire_bytes=mean_wire,
                    compression_ratio=m / mean_wire if mean_wire else 0.0,
                )
            )
    return cells


def format_ndv_results(cells: list[NDVCell]) -> str:
    rows = [
        (
            cell.precision,
            cell.registers,
            cell.cardinality,
            cell.mean_rel_error,
            cell.theory_sigma,
            cell.dense_bytes,
            cell.mean_wire_bytes,
            cell.compression_ratio,
        )
        for cell in cells
    ]
    return format_table(
        (
            "p",
            "registers",
            "true NDV",
            "rel error",
            "sigma=1.04/sqrt(m)",
            "dense B",
            "HBS B",
            "ratio",
        ),
        rows,
        title="NDV sketch accuracy vs precision and HBS wire size",
    )
