"""Apply each end-to-end metric's bound to two sets of runs.

A *set* maps a workload to a list of runs, each a ``{metric: value}``
dict (``python -m e2ebench run --runs N --set FILE`` writes one).  For
every (metric, workload) pair the verdict follows the choosing-metrics
guide: the change's median may be worse than the parent's by at most the
metric's bound; where the run-to-run spread (interquartile range over
median, of either set) is wider than the bound the pair is *unresolved*,
not unchanged -- unless every run of the change reads better than every
run of the parent.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from e2ebench import spec

__all__ = ["spread", "verdict", "compare_sets", "format_rows", "load_set"]

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(metric: dict[str, Any], parent: list[float], change: list[float]) -> dict[str, Any]:
    """One (metric, workload) row: medians, spreads, worse-by, verdict."""
    base, now = statistics.median(parent), statistics.median(change)
    worse = spec.worse_by(metric, base, now)
    widest = max(spread(parent), spread(change))
    lower = metric["better"] == "lower"
    all_better = (
        max(change) < min(parent) if lower else min(change) > max(parent)
    )
    if widest > metric["bound"] and not all_better:
        outcome = UNRESOLVED
    elif worse > metric["bound"]:
        outcome = REGRESSED
    else:
        outcome = OK
    return {
        "parent": base,
        "change": now,
        "worse_by": worse,
        "spread": widest,
        "bound": metric["bound"],
        "verdict": outcome,
    }


def compare_sets(
    parent: dict[str, list[dict[str, float]]], change: dict[str, list[dict[str, float]]]
) -> list[dict[str, Any]]:
    """A row per (metric, workload) present in both sets."""
    rows = []
    for workload in spec.WORKLOADS:
        if not parent.get(workload) or not change.get(workload):
            continue
        for name, metric in spec.END_TO_END.items():
            row = verdict(
                metric,
                [run[name] for run in parent[workload]],
                [run[name] for run in change[workload]],
            )
            rows.append(dict(row, metric=name, workload=workload))
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'metric':<28} {'workload':<14} {'parent':>12} {'change':>12} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<28} {row['workload']:<14} {row['parent']:>12.6g} "
            f"{row['change']:>12.6g} {row['worse_by']:>+9.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    counts = {
        outcome: sum(1 for row in rows if row["verdict"] == outcome)
        for outcome in (OK, REGRESSED, UNRESOLVED)
    }
    lines.append(
        f"{len(rows)} pairs: {counts[OK]} ok, {counts[REGRESSED]} regressed, "
        f"{counts[UNRESOLVED]} unresolved"
    )
    return "\n".join(lines)


def load_set(path: str | Path) -> dict[str, list[dict[str, float]]]:
    """The ``runs`` of a set file."""
    return json.loads(Path(path).read_text())["runs"]
