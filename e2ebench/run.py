"""One workload, one process: the command ``BENCHMARK.json`` names.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing (the program is pure Python under ``src/``), makes its
inputs from ``--seed``, measures for about ``--seconds`` seconds, checks
the program's outputs, prints every metric by name and, as the last
line of standard output, one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits non-zero
without a result when the program is not there, and with one when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHDOG_SECONDS = 170
"""A hung run dumps every thread's stack and exits before the driver's
180 s limit, instead of being killed without a word."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--out", default=None, help="also write the full report here")
    parser.add_argument(
        "--spans",
        default=None,
        help="where a traced run writes its stored spans "
        "(default e2ebench/results/spans_<workload>.json)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under {source}", file=sys.stderr)
        return 2
    # The script's own directory leads sys.path when run by file name;
    # replace it so stdlib names (trace) are not shadowed by ours.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(source))
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)

    from e2ebench import harness, report, spec, workloads
    from e2ebench.scenarios import SCENARIOS
    from e2ebench.trace import Tracer
    from repro.util.npbackend import numpy_backend_enabled

    if args.workload not in SCENARIOS:
        print(
            f"e2ebench: unknown workload {args.workload!r}; "
            f"known: {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec.RUN_SECONDS)
    tracer = Tracer() if args.trace else None
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        scale=harness.FULL if args.scale == "full" else harness.QUICK,
        tracer=tracer,
    )
    SCENARIOS[args.workload].run(ctx)
    ctx.end_to_end["ontime_op_ratio"] = ctx.oracle.ontime_ratio
    ctx.notes["machine_slowdown"] = ctx.speed.slowdown()

    specs = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = ctx.per_layer if args.trace else ctx.end_to_end
    missing = [name for name in specs if name not in values]
    if missing:
        print(f"e2ebench: workload emitted no {missing}", file=sys.stderr)
        return 3
    oracle = ctx.oracle
    result = {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": values[name], "unit": specs[name]["unit"]}
            for name in specs
        },
    }
    print(report.format_run(ctx, specs, values))
    if args.out:
        full = dict(
            result,
            workload=args.workload,
            why=SCENARIOS[args.workload].WHY,
            seed=args.seed,
            seconds=seconds,
            scale=args.scale,
            trace=bool(args.trace),
            failures=oracle.failures,
            notes=ctx.notes,
            generators=workloads.RATIONALE,
            env={
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "REPRO_COLUMNAR_NUMPY": os.environ.get("REPRO_COLUMNAR_NUMPY"),
                "numpy_backend": numpy_backend_enabled(),
            },
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        spans = Path(
            args.spans or ROOT / "e2ebench" / "results" / f"spans_{args.workload}.json"
        )
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(
            json.dumps(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op", "thread"],
                    "spans": tracer.spans(),
                }
            )
            + "\n"
        )
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
