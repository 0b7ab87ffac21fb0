"""Human-readable output of one run."""

from __future__ import annotations

from typing import Any

from e2ebench.harness import Context


def format_run(ctx: Context, specs: dict[str, dict[str, Any]], values: dict[str, float]) -> str:
    """Every metric by name with value, unit, good direction and bound."""
    kind = "per-layer (traced run)" if ctx.tracing else "end-to-end"
    lines = [
        f"e2ebench {ctx.workload}: seed {ctx.seed}, {ctx.seconds:g} s, {kind} metrics"
    ]
    width = max(len(name) for name in specs)
    for name, metric in specs.items():
        bound = f"  bound {metric['bound']:.0%}" if "bound" in metric else ""
        lines.append(
            f"  {name:<{width}}  {values[name]:>14.6g} {metric['unit']:<8} "
            f"{metric['better']} is better{bound}"
        )
    lines.append(
        f"  machine: {ctx.speed.slowdown():.3f} x the reference spin; durations "
        "are restated at reference speed (README)"
    )
    oracle = ctx.oracle
    verdict = "pass" if oracle.failed == 0 else "FAIL"
    lines.append(
        f"  correctness: {verdict} ({oracle.failed} failed and {oracle.late} late of "
        f"{oracle.attempted} ops and checks; failed_op_ratio "
        f"{oracle.failed / max(oracle.attempted, 1):g})"
    )
    lines.extend(f"    - {failure}" for failure in oracle.failures)
    return "\n".join(lines)

