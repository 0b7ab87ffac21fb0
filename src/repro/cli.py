"""Command-line harness for the reproduction experiments.

Regenerates any (or every) figure of the paper's evaluation section and
prints/saves the result tables::

    python -m repro list
    python -m repro run fig3 --scale small
    python -m repro run-all --scale medium --out results/

Scales: ``small`` (default; the whole suite takes a couple of minutes)
and ``medium`` (closer to the paper's ratios).

The ``stats`` subcommand exercises the observability layer: it drives a
scripted ingest (bulkload, flushes, merges, deletes, estimates) and
dumps the resulting metrics snapshot::

    python -m repro stats                  # JSON snapshot to stdout
    python -m repro stats --format text
    python -m repro stats --selfcheck      # validate against docs/OBSERVABILITY.md

The ``faultcheck`` subcommand runs a seeded chaos ingest (dropped,
duplicated, reordered and delayed statistics messages plus a master
outage window) and verifies the catalog converges bit-identically to a
fault-free run::

    python -m repro faultcheck
    python -m repro faultcheck --seed 7 --records 1024 --drop 0.2

The ``crashcheck`` subcommand kills the cluster at every registered
crash point (seeded), restarts and recovers it, and verifies that
partition contents, the statistics catalog and a sweep of estimates
are bit-identical to a crash-free run -- plus a WAL-disabled negative
control that must demonstrably lose acknowledged records::

    python -m repro crashcheck
    python -m repro crashcheck --seed 7 --records 1024

The ``racecheck`` subcommand sweeps seeds x scheduler modes: the same
scripted ingest runs with background flushes/merges on the
deterministic virtual scheduler and on real worker threads, and every
run must end bit-identical -- partition contents, statistics catalog
and a sweep of estimates -- to the synchronous baseline::

    python -m repro racecheck
    python -m repro racecheck --quick
    python -m repro racecheck --seed 7 --records 1024
    python -m repro racecheck --quick --paced  # with merge pacing armed
    python -m repro racecheck --quick --memory  # with a tight memory budget

The ``servecheck`` subcommand exercises the resilient serving layer:
a seeded changestream feed is killed mid-consumption and must resume
from its durable cursor bit-identically (with feed faults armed), and
a bounded concurrent estimate service is saturated and must shed load
with typed rejections -- no deadlocks, no unbounded queues::

    python -m repro servecheck
    python -m repro servecheck --seed 7 --records 1024

The ``bench`` subcommand runs the perf suite (ingest-throughput,
flush-latency, merge-throughput, estimate-latency, network-ship, the
multi-writer ``stability`` tail-latency scenario, ...), writes a
schema-versioned ``BENCH_<timestamp>.json`` report, and can gate
against a committed baseline (see docs/BENCHMARKING.md)::

    python -m repro bench --quick
    python -m repro bench --quick --compare benchmarks/baseline.json
    python -m repro bench --quick --suite stability
    python -m repro bench --quick --suite memory-budget

Exit codes for ``bench``: 0 on success, 1 when any metric regresses
beyond tolerance or an ingest stall window exceeds its budget, 2 when
a report or baseline is malformed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.eval.experiments import (
    MEDIUM_SCALE,
    SMALL_SCALE,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
)
from repro.eval.experiments import extensions, ndv
from repro.cluster import crashcheck, faultcheck, racecheck, servecheck
from repro.cluster.racecheck import DEFAULT_SEEDS, QUICK_SEEDS
from repro.errors import ClusterError
from repro.eval.experiments.common import ExperimentScale
from repro.obs.export import render_json, render_text, write_snapshot
from repro.obs.selfcheck import run_scripted_ingest, selfcheck

__all__ = ["main", "EXPERIMENTS"]

_Descriptor = tuple[str, Callable[[ExperimentScale], Any], Callable[[Any], str]]

EXPERIMENTS: dict[str, _Descriptor] = {
    "fig2": (
        "Ingestion overhead: NoStats vs EquiWidth/EquiHeight/Wavelet "
        "(bulkload + feeds)",
        lambda scale: fig2.run(scale),
        fig2.format_results,
    ),
    "fig3": (
        "Accuracy vs synopsis size (16..1024), 3 frequency x 6 spread dists",
        lambda scale: fig3.run(scale),
        fig3.format_results,
    ),
    "fig4": (
        "Accuracy vs query type (Point/FixedLength/HalfOpen/Random)",
        lambda scale: fig4.run(scale),
        fig4.format_results,
    ),
    "fig5": (
        "Accuracy vs FixedLength query length (8..256)",
        lambda scale: fig5.run(scale),
        fig5.format_results,
    ),
    "fig6": (
        "Accuracy + query overhead vs number of LSM components (8..128)",
        lambda scale: fig6.run(scale),
        fig6.format_results,
    ),
    "fig7": (
        "Accuracy vs update/delete (anti-matter) ratio (0..0.3)",
        lambda scale: fig7.run(scale),
        fig7.format_results,
    ),
    "fig8": (
        "Query overhead: Bulkload (1 component) vs NoMerge (many)",
        lambda scale: fig8.run(scale),
        fig8.format_results,
    ),
    "fig9": (
        "Accuracy on the WorldCup-like dataset, 6 fields x budgets 16..256",
        lambda scale: fig9.run(scale),
        fig9.format_results,
    ),
    "ext-multidim": (
        "[extension] 2-D synopses vs the independence assumption on "
        "correlated attributes",
        lambda scale: extensions.run_multidim(scale),
        extensions.format_multidim_results,
    ),
    "ext-rtree": (
        "[extension] LSM-ified R-tree: MBR pruning + piggybacked 2-D stats",
        lambda scale: extensions.run_rtree(scale),
        extensions.format_rtree_results,
    ),
    "ndv-accuracy": (
        "[extension] NDV sketch error vs HLL precision p and HBS wire "
        "size (docs/SKETCHES.md)",
        lambda scale: ndv.run_ndv(scale),
        ndv.format_ndv_results,
    ),
}

_SCALES = {"small": SMALL_SCALE, "medium": MEDIUM_SCALE}


def _run_experiment(
    name: str, scale: ExperimentScale, out_dir: Path | None
) -> str:
    description, run, render = EXPERIMENTS[name]
    print(f"== {name}: {description}", file=sys.stderr)
    started = time.perf_counter()
    results = run(scale)
    elapsed = time.perf_counter() - started
    print(f"   done in {elapsed:.1f}s", file=sys.stderr)
    text = render(results)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
    return text


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's evaluation figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_common(run_parser)

    all_parser = subparsers.add_parser("run-all", help="run every experiment")
    _add_common(all_parser)

    stats_parser = subparsers.add_parser(
        "stats",
        help="run a scripted ingest and dump the metrics snapshot",
    )
    stats_parser.add_argument(
        "--format",
        dest="fmt",
        choices=["json", "text"],
        default="json",
        help="snapshot rendering (default: json)",
    )
    stats_parser.add_argument(
        "--out",
        default=None,
        help="file to write the snapshot to (in addition to stdout)",
    )
    stats_parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="validate the snapshot against the documented metrics "
        "contract; exit non-zero on any violation",
    )

    fault_parser = subparsers.add_parser(
        "faultcheck",
        help="seeded chaos ingest: verify the statistics transport "
        "converges the catalog despite injected network faults",
    )
    fault_parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan RNG seed (default: 0)"
    )
    fault_parser.add_argument(
        "--records",
        type=int,
        default=512,
        help="documents to ingest per run (default: 512)",
    )
    fault_parser.add_argument(
        "--drop", type=float, default=0.10, help="per-send drop probability"
    )
    fault_parser.add_argument(
        "--duplicate",
        type=float,
        default=0.10,
        help="per-send duplication probability",
    )
    fault_parser.add_argument(
        "--reorder",
        type=float,
        default=0.10,
        help="per-send reordering probability",
    )
    fault_parser.add_argument(
        "--delay", type=float, default=0.05, help="per-send delay probability"
    )

    crash_parser = subparsers.add_parser(
        "crashcheck",
        help="seeded crash injection: verify node recovery restores "
        "contents, catalog and estimates bit-identically at every "
        "registered crash point",
    )
    crash_parser.add_argument(
        "--seed", type=int, default=0, help="crash-plan RNG seed (default: 0)"
    )
    crash_parser.add_argument(
        "--records",
        type=int,
        default=512,
        help="documents to ingest per run (default: 512)",
    )

    race_parser = subparsers.add_parser(
        "racecheck",
        help="seeded scheduler sweep: verify concurrent background "
        "flushes/merges (virtual and real threads) end bit-identical "
        "to synchronous maintenance",
    )
    race_parser.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="sweep seed (repeatable; default: the standard sweep "
        f"{list(DEFAULT_SEEDS)})",
    )
    race_parser.add_argument(
        "--records",
        type=int,
        default=512,
        help="documents to ingest per run (default: 512)",
    )
    race_parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI-sized sweep (seeds {list(QUICK_SEEDS)}); ignored when "
        "--seed is given",
    )
    race_parser.add_argument(
        "--paced",
        action="store_true",
        help="run every cluster (sync baseline included) with merge "
        "pacing enabled, proving pacing never changes what merges "
        "produce",
    )
    race_parser.add_argument(
        "--memory",
        action="store_true",
        help="run every cluster (sync baseline included) under a tight "
        "memory-arbiter budget, proving arbitration-triggered early "
        "flushes are image-neutral across scheduler modes",
    )

    serve_parser = subparsers.add_parser(
        "servecheck",
        help="seeded serving chaos: verify crash-resumable feeds "
        "converge from their durable cursors and the bounded estimate "
        "service sheds overload with typed rejections",
    )
    serve_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="feed/fault/kill RNG seed (default: 0)",
    )
    serve_parser.add_argument(
        "--records",
        type=int,
        default=512,
        help="changestream records per run (default: 512)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the perf suite, write a BENCH_<timestamp>.json report, "
        "optionally gate against a baseline",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-friendly scale (seconds instead of minutes)",
    )
    bench_parser.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default: 0)"
    )
    bench_parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override the scale preset's repetition count",
    )
    bench_parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run just this benchmark (repeatable); see docs/BENCHMARKING.md",
    )
    bench_parser.add_argument(
        "--suite",
        default=None,
        metavar="SUITE",
        help="run a named benchmark subset (e.g. 'stability', "
        "'memory-budget'); mutually exclusive with --only",
    )
    bench_parser.add_argument(
        "--out",
        default="benchmarks/results",
        help="directory for the BENCH_<timestamp>.json report "
        "(default: benchmarks/results)",
    )
    bench_parser.add_argument(
        "--no-report",
        action="store_true",
        help="skip writing the report file (print-only / compare-only)",
    )
    bench_parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH json to gate against; exit 1 on regression",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="fractional regression tolerance for --compare (default: 0.25)",
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (description, _run, _render) in sorted(EXPERIMENTS.items()):
            print(f"{name}: {description}")
        return 0

    if args.command == "stats":
        return _run_stats(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command in _CHECKS:
        arguments, run, render = _CHECKS[args.command]
        try:
            report = run(**arguments(args))
        except (ClusterError, ValueError) as exc:
            # A plan hostile enough that recovery cannot converge (e.g.
            # faultcheck --drop 1.0), or invalid probabilities.
            print(f"{args.command} failed: {exc}", file=sys.stderr)
            return 1
        print(render(report))
        return 0 if report.converged else 1

    scale = _SCALES[args.scale]
    out_dir = Path(args.out) if args.out else None
    names = [args.experiment] if args.command == "run" else sorted(EXPERIMENTS)
    for name in names:
        print(_run_experiment(name, scale, out_dir))
        print()
    return 0


def _flags_as_given(args: argparse.Namespace) -> dict[str, Any]:
    """Every flag of these commands is named after the runner keyword
    it sets, so the parsed namespace passes straight through."""
    arguments = dict(vars(args))
    del arguments["command"]
    return arguments


def _race_arguments(args: argparse.Namespace) -> dict[str, Any]:
    if args.seed is not None:
        seeds = tuple(args.seed)
    else:
        seeds = QUICK_SEEDS if args.quick else DEFAULT_SEEDS
    return {
        "seeds": seeds,
        "records": args.records,
        "paced": args.paced,
        "memory": args.memory,
    }


# command -> (parsed arguments -> runner keywords, runner, report formatter)
_CHECKS: dict[str, tuple[Callable, Callable, Callable]] = {
    "faultcheck": (
        _flags_as_given,
        faultcheck.run_faultcheck,
        faultcheck.format_report,
    ),
    "crashcheck": (
        _flags_as_given,
        crashcheck.run_crashcheck,
        crashcheck.format_report,
    ),
    "racecheck": (
        _race_arguments,
        racecheck.run_racecheck,
        racecheck.format_report,
    ),
    "servecheck": (
        _flags_as_given,
        servecheck.run_servecheck,
        servecheck.format_report,
    ),
}


def _run_stats(args: argparse.Namespace) -> int:
    """Handle ``repro stats``: scripted ingest, snapshot, selfcheck."""
    snapshot = run_scripted_ingest()
    rendered = (
        render_json(snapshot) if args.fmt == "json" else render_text(snapshot)
    )
    print(rendered)
    if args.out is not None:
        write_snapshot(snapshot, args.out, fmt=args.fmt)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    if args.selfcheck:
        problems = selfcheck(snapshot)
        if problems:
            for problem in problems:
                print(f"selfcheck: {problem}", file=sys.stderr)
            return 1
        print("selfcheck: ok", file=sys.stderr)
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """Handle ``repro bench``: run suite, write report, gate baseline.

    Exit codes: 0 ok, 1 regression beyond tolerance or a stall-budget
    violation, 2 malformed report/baseline or invalid suite arguments.
    """
    # Imported here: the perf suite pulls in the cluster stack, which
    # `repro list` etc. should not pay for.
    from repro.errors import BenchmarkError
    from repro.eval import perfsuite

    only = tuple(args.only) if args.only else None
    if args.suite is not None:
        if only is not None:
            print(
                "bench failed: --suite and --only are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        suite = perfsuite.SUITES.get(args.suite)
        if suite is None:
            print(
                f"bench failed: unknown suite {args.suite!r}; known: "
                f"{sorted(perfsuite.SUITES)}",
                file=sys.stderr,
            )
            return 2
        only = suite
    try:
        report = perfsuite.run_suite(
            quick=args.quick,
            seed=args.seed,
            repetitions=args.repetitions,
            only=only,
        )
    except BenchmarkError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 2
    print(perfsuite.format_report(report))
    if not args.no_report:
        target = perfsuite.write_report(report, args.out)
        print(f"report written to {target}", file=sys.stderr)
    # The absolute stall-budget gate applies whenever the budgeted
    # metrics were measured, with or without a baseline.
    violations = perfsuite.check_budgets(report)
    for violation in violations:
        print(f"bench budget: {violation}", file=sys.stderr)
    if args.compare is None:
        return 1 if violations else 0
    try:
        baseline = perfsuite.load_report(args.compare)
        regressions = perfsuite.compare_reports(
            report, baseline, tolerance=args.tolerance
        )
    except BenchmarkError as exc:
        print(f"bench compare failed: {exc}", file=sys.stderr)
        return 2
    print(perfsuite.format_regressions(regressions))
    return 1 if regressions or violations else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write the result tables into",
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
