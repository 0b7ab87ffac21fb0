"""Run with ``PYTHONPATH=src python -m pytest e2ebench/tests -q`` from the
repo root (tier-1's ``testpaths`` does not collect this directory)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2ebench import spec  # noqa: E402


def run_workload(workload: str, trace: int, tmp: Path, seed: int = 0) -> dict:
    """One ``--quick`` run of ``e2ebench/run.py`` in a fresh process."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "e2ebench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1.5",
            "--trace", str(trace),
            "--scale", "quick",
            "--spans", str(tmp / f"spans_{workload}.json"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return {
        "stdout": done.stdout,
        "result": json.loads(done.stdout.strip().splitlines()[-1]),
    }


@pytest.fixture(scope="session")
def quick_runs(tmp_path_factory) -> dict:
    """Every workload once untraced and once traced, at smoke scale."""
    tmp = tmp_path_factory.mktemp("e2ebench")
    return {
        (workload, trace): run_workload(workload, trace, tmp)
        for workload in spec.WORKLOADS
        for trace in (0, 1)
    }
