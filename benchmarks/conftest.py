"""Shared fixtures for the reproduction benchmarks.

Every figure benchmark runs its experiment once under pytest-benchmark
timing, asserts the result *shape* the paper reports, and writes the
formatted result table to ``benchmarks/results/`` so EXPERIMENTS.md can
reference concrete numbers.  ``REPRO_BENCH_RESULTS_DIR`` names another
directory for the tables and the snapshot (CI points it at a temporary
one, so a run never dirties the checkout).

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default, minutes for the whole directory) or ``medium``
(closer to the paper's ratios).

Every bench session also dumps a metrics snapshot of the process-global
registry (``benchmarks/results/metrics_snapshot_<scale>.json``) so
throughput numbers can be read next to the flush/merge/estimate
counters that produced them (see docs/OBSERVABILITY.md).  The filename
is scale-suffixed and the payload stamped with the scale and the
session's collected-test count, so a small run no longer silently
clobbers a medium run's snapshot (and a partial ``-k`` session is
distinguishable from a full one).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

import pytest

from repro.eval.experiments.common import (
    MEDIUM_SCALE,
    SMALL_SCALE,
    ExperimentScale,
)
from repro.obs.export import write_snapshot
from repro.obs.registry import get_registry

RESULTS_DIR = Path(
    os.environ.get("REPRO_BENCH_RESULTS_DIR") or Path(__file__).parent / "results"
)


def _scale_name() -> str:
    """The (validated) scale selected via REPRO_BENCH_SCALE."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if name not in ("small", "medium"):
        raise ValueError(f"unknown REPRO_BENCH_SCALE={name!r} (small|medium)")
    return name


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The experiment scale selected via REPRO_BENCH_SCALE."""
    return MEDIUM_SCALE if _scale_name() == "medium" else SMALL_SCALE


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the formatted result tables are written into."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def metrics_snapshot_dump(request: pytest.FixtureRequest) -> Iterator[None]:
    """Write the session's metrics snapshot next to the result tables.

    One file per scale (``metrics_snapshot_small.json`` / ``_medium``),
    stamped with the scale and this session's collected-test count, so
    runs at different scales coexist and partial sessions are visible.
    """
    yield
    scale = _scale_name()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    target = RESULTS_DIR / f"metrics_snapshot_{scale}.json"
    write_snapshot(get_registry(), target)
    payload = json.loads(target.read_text())
    payload["bench_session"] = {
        "scale": scale,
        "tests_collected": request.session.testscollected,
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_once(benchmark, func):
    """Run an experiment exactly once under benchmark timing.

    The experiments are full pipelines (ingest + evaluate), so a single
    timed round is the meaningful measurement -- pytest-benchmark's
    default multi-round calibration would re-ingest dozens of times.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
