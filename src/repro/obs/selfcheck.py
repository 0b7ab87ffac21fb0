"""Scripted ingest + snapshot validation behind ``repro stats``.

``repro stats`` needs something to measure, so this module drives a
small but complete statistics pipeline -- bulkload, flushes, merges,
deletes (anti-matter) and repeated estimates -- against a fresh
registry and returns the resulting snapshot.  The ``--selfcheck`` mode
then validates two contracts:

1. the scripted ingest produced every metric the observability layer
   promises (flush/merge/bulkload counts, cache traffic, estimation
   latency histograms) with plausible values, and
2. every metric the system emitted is documented in the
   ``docs/OBSERVABILITY.md`` naming table -- so docs can't silently rot
   while code grows new instruments.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from repro.core.config import StatisticsConfig
from repro.core.manager import StatisticsManager
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.types import Domain

__all__ = [
    "run_scripted_ingest",
    "selfcheck",
    "documented_metric_names",
    "is_documented",
    "EXPECTED_COUNTERS",
    "EXPECTED_HISTOGRAMS",
]

EXPECTED_COUNTERS = (
    "lsm.flush.count",
    "lsm.merge.count",
    "lsm.bulkload.count",
    "lsm.records.matter",
    "lsm.events.component_writes",
    "cache.merged.hit",
    "cache.merged.miss",
    "collector.component_writes",
    "collector.synopses.published",
    "estimator.estimate.count",
    "estimator.cache_hit.count",
    "sketch.registers.bytes",
    "sketch.wire.bytes",
    "sketch.union.count",
)
"""Counters the scripted ingest must produce with value > 0."""

EXPECTED_HISTOGRAMS = (
    "lsm.flush.seconds",
    "lsm.merge.seconds",
    "lsm.bulkload.seconds",
    "synopsis.build.seconds",
    "estimator.estimate.seconds",
)
"""Latency histograms the scripted ingest must populate."""

_DOCS_PATH = Path(__file__).resolve().parents[3] / "docs" / "OBSERVABILITY.md"


def run_scripted_ingest() -> dict[str, Any]:
    """Drive bulkload + flushes + merges + deletes + estimates and
    return the metrics snapshot (plus a ``derived`` section).

    Runs against a fresh registry installed as the process-global one
    for the duration, so every layer's constructor-bound instruments
    land in the same snapshot.
    """
    reg = MetricsRegistry()
    with use_registry(reg):
        dataset = Dataset(
            "readings",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=Domain(0, 2**20 - 1),
            indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
            memtable_capacity=256,
            merge_policy=ConstantMergePolicy(max_components=3),
        )
        stats = StatisticsManager(
            StatisticsConfig(
                SynopsisType.EQUI_WIDTH,
                budget=64,
                ndv_enabled=True,
                ndv_precision=6,
            ),
        )
        stats.attach(dataset)

        # Bulkload (1 component), then enough inserts for several
        # flushes and at least one constant-policy merge.
        dataset.bulkload(
            {"id": pk, "value": (pk * 13) % 1024} for pk in range(512)
        )
        for pk in range(512, 1_536):
            dataset.insert({"id": pk, "value": (pk * 13) % 1024})
        for pk in range(512, 544):  # anti-matter
            dataset.delete(pk)
        dataset.flush()

        # Estimates: the first takes Algorithm 2's slow path and caches
        # the lazily merged pair; the rest hit the cache.
        for _ in range(16):
            stats.estimate(dataset, "value_idx", 128, 383)
        # NDV estimates exercise the sketch lane the same way: one lazy
        # register union, then cache hits.
        for _ in range(4):
            stats.estimate_ndv(dataset, "value_idx")

    snapshot = reg.snapshot()
    counters = snapshot.get("counters", {})
    hits = counters.get("cache.merged.hit", 0)
    misses = counters.get("cache.merged.miss", 0)
    lookups = hits + misses
    snapshot["derived"] = {
        "cache.merged.hit_ratio": (hits / lookups) if lookups else 0.0,
    }
    return snapshot


def documented_metric_names(docs_path: Path | None = None) -> list[str] | None:
    """Metric names (and ``<placeholder>`` patterns) declared in the
    observability contract's tables, or ``None`` when the docs file is
    unavailable (e.g. an installed package without the repo checkout).
    """
    path = docs_path if docs_path is not None else _DOCS_PATH
    if not path.is_file():
        return None
    names: list[str] = []
    for line in path.read_text().splitlines():
        if not line.lstrip().startswith("|"):
            continue
        names.extend(re.findall(r"`([a-z0-9_#.<>\-]+)`", line))
    return names


def is_documented(name: str, documented: list[str]) -> bool:
    """Whether ``name`` matches a documented name or placeholder pattern
    (``<index>`` and friends match any non-empty suffix segment run)."""
    for pattern in documented:
        if pattern == name:
            return True
        if "<" in pattern:
            # re.escape leaves '<'/'>' alone, so placeholders survive
            # escaping and can be widened to wildcards here.
            regex = re.sub(r"<[a-z0-9_\-]+>", ".+", re.escape(pattern))
            if re.fullmatch(regex, name):
                return True
    return False


def selfcheck(
    snapshot: dict[str, Any], docs_path: Path | None = None
) -> list[str]:
    """Validate a scripted-ingest snapshot; returns the problems found
    (empty means the observability contract holds)."""
    problems: list[str] = []
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    for name in EXPECTED_COUNTERS:
        if counters.get(name, 0) <= 0:
            problems.append(f"expected counter {name} > 0, got {counters.get(name)}")
    for name in EXPECTED_HISTOGRAMS:
        histogram = histograms.get(name)
        if not histogram or histogram.get("count", 0) <= 0:
            problems.append(f"expected histogram {name} with observations")
        elif histogram["sum"] < 0 or histogram["max"] < histogram["min"]:
            problems.append(f"implausible histogram {name}: {histogram}")

    documented = documented_metric_names(docs_path)
    if documented is None:
        problems.append(
            "docs/OBSERVABILITY.md not found: cannot verify the naming contract"
        )
        return problems
    emitted = (
        list(counters)
        + list(snapshot.get("gauges", {}))
        + list(histograms)
        + list(snapshot.get("derived", {}))
    )
    for name in emitted:
        if not is_documented(name, documented):
            problems.append(
                f"metric {name} is emitted but not documented in "
                "docs/OBSERVABILITY.md"
            )
    return problems
