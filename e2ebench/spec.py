"""The benchmark's contract, read from ``BENCHMARK.json`` at the repo root.

``BENCHMARK.json`` is the single place where workload names, metric
names, units, directions and regression bounds are written down; the
runner, ``compare`` and the tests all read it through this module.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = [
    "ROOT",
    "load",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "worse_by",
]

ROOT = Path(__file__).resolve().parent.parent


def load() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


_SPEC = load()

WORKLOADS: tuple[str, ...] = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END: dict[str, dict[str, Any]] = {m["name"]: m for m in _SPEC["end_to_end"]}
PER_LAYER: dict[str, dict[str, Any]] = {m["name"]: m for m in _SPEC["per_layer"]}
RUN_SECONDS: int = _SPEC["run_seconds"]


def worse_by(metric: dict[str, Any], base: float, now: float) -> float:
    """How much worse ``now`` is than ``base``, as a share of ``base``
    (negative when better), in the metric's own bad direction."""
    if base == 0:
        return 0.0 if now == 0 else float("inf")
    change = (now - base) / abs(base)
    return change if metric["better"] == "lower" else -change
