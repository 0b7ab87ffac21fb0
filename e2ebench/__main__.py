"""``python -m e2ebench``: the benchmark's one command.

    python -m e2ebench run --workload all --seed 0            # every metric, checked
    python -m e2ebench run --workload all --seed 0 --trace    # per-layer attribution
    python -m e2ebench run --workload all --quick             # <= 20 s smoke
    python -m e2ebench run --runs 10 --set A.json             # a set for compare
    python -m e2ebench compare A.json B.json                  # ok / regressed / unresolved
    python -m e2ebench compare --runs 5                       # A/A: same code twice

Each workload of each run is a fresh ``e2ebench/run.py`` process, so
``peak_rss_mb`` is per workload and nothing leaks between runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from e2ebench import compare, spec

RESULTS = spec.ROOT / "e2ebench" / "results"
QUICK_SECONDS = 2.0


def _run_one(workload: str, seed: int, args: argparse.Namespace, quiet: bool) -> dict[str, Any]:
    """One workload in a fresh process; returns its parsed result line."""
    prefix = "trace_" if args.trace else ""
    command = [
        sys.executable,
        str(spec.ROOT / "e2ebench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if args.trace else "0",
        "--scale", "quick" if args.quick else "full",
        "--out", str(RESULTS / f"{prefix}{workload}.json"),
    ]
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else None
    )
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"e2ebench: {workload} exited {done.returncode} without a result")
    if done.returncode == 1:
        sys.stderr.write(done.stderr)
    return json.loads(lines[-1])


def _run_sets(
    args: argparse.Namespace, labels: tuple[str, ...] = ("",)
) -> tuple[list[dict[str, list[dict[str, float]]]], bool]:
    """``args.runs`` runs of every selected workload for each label;
    returns ``(one set per label, all correct)``.  Several labels (the A/A
    mode) take turns run by run, and swap who goes first, so a drift of
    the machine falls on both sets alike."""
    workloads = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    sets = [{workload: [] for workload in workloads} for _ in labels]
    correct = True
    for number in range(args.runs):
        order = list(range(len(labels)))
        if number % 2:
            order.reverse()
        for which in order:
            for workload in workloads:
                if args.runs > 1:
                    print(f"{labels[which]}run {number + 1}/{args.runs} {workload}", flush=True)
                result = _run_one(workload, args.seed, args, quiet=args.runs > 1)
                correct = correct and result["correct"]
                sets[which][workload].append(
                    {name: entry["value"] for name, entry in result["metrics"].items()}
                )
    return sets, correct


def _write_set(path: str, runs: dict[str, list[dict[str, float]]], args: argparse.Namespace) -> None:
    payload = {"seed": args.seed, "trace": bool(args.trace), "quick": bool(args.quick), "runs": runs}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="all", choices=("all",) + spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per workload (default {spec.RUN_SECONDS})")
    parser.add_argument("--quick", action="store_true", help="smoke scale, <= 20 s for all")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2ebench", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print and check every metric")
    _add_run_options(run)
    run.add_argument("--trace", action="store_true", help="the traced run: per-layer metrics")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--set", default=None, help="write the runs as a set for compare")
    comp = commands.add_parser("compare", help="apply the bounds to two sets of runs")
    comp.add_argument("sets", nargs="*", help="PARENT.json CHANGE.json")
    _add_run_options(comp)
    comp.add_argument("--runs", type=int, default=0,
                      help="A/A mode: run the same code twice, N runs each, and compare")
    args = parser.parse_args(argv)

    if args.command == "run":
        (runs,), correct = _run_sets(args)
        if args.set:
            _write_set(args.set, runs, args)
        return 0 if correct else 1

    args.trace = False
    if args.runs:
        (parent, change), correct = _run_sets(args, ("A ", "B "))
        _write_set(str(RESULTS / "aa_parent.json"), parent, args)
        _write_set(str(RESULTS / "aa_change.json"), change, args)
        if not correct:
            print("e2ebench: a correctness check failed during the A/A runs")
    elif len(args.sets) == 2:
        parent, change = (compare.load_set(path) for path in args.sets)
    else:
        parser.error("compare needs PARENT.json CHANGE.json, or --runs N")
    rows = compare.compare_sets(parent, change)
    print(compare.format_rows(rows))
    return 0 if all(row["verdict"] == compare.OK for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
