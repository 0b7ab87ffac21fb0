"""Unit tests for the perf suite: report schema + regression gate."""

import copy
import json

import pytest

from repro.errors import BenchmarkError
from repro.eval import perfsuite
from repro.eval.perfsuite import (
    BENCHMARK_NAMES,
    SCHEMA_VERSION,
    compare_reports,
    load_report,
    report_filename,
    run_suite,
    write_report,
)


def _fake_report(**medians):
    """A structurally valid report with the given metric medians."""
    metrics = {}
    for name, median in medians.items():
        unit, direction = perfsuite.METRIC_SPECS.get(name, ("x/s", "higher"))
        metrics[name] = {
            "unit": unit,
            "direction": direction,
            "median": median,
            "p95": median,
            "samples": [median],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "repro-perfsuite",
        "quick": True,
        "seed": 0,
        "repetitions": 1,
        "benchmarks": list(BENCHMARK_NAMES),
        "scale": perfsuite.QUICK_SCALE.as_dict(),
        "env": {"python": "3.x"},
        "created_unix": 1_700_000_000.0,
        "metrics": metrics,
    }


class TestRunSuite:
    def test_quick_single_benchmark_schema(self):
        # network-ship is the cheapest benchmark; one repetition keeps
        # this a schema test, not a perf test.
        report = run_suite(quick=True, seed=3, repetitions=1, only=("network-ship",))
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["quick"] is True
        assert report["seed"] == 3
        assert report["benchmarks"] == ["network-ship"]
        assert report["scale"] == perfsuite.QUICK_SCALE.as_dict()
        assert "python" in report["env"]
        entry = report["metrics"]["ship.throughput"]
        assert entry["unit"] == "messages/s"
        assert entry["direction"] == "higher"
        assert entry["median"] > 0
        assert len(entry["samples"]) == 1
        # Everything must survive a JSON round-trip (the report IS the
        # interchange format).
        assert json.loads(json.dumps(report)) == report

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown benchmark"):
            run_suite(quick=True, only=("no-such-bench",))

    def test_bad_repetitions_rejected(self):
        with pytest.raises(BenchmarkError, match="repetitions"):
            run_suite(quick=True, repetitions=0)

    def test_every_benchmark_name_registered(self):
        assert set(BENCHMARK_NAMES) == set(perfsuite._BENCHMARKS)

    def test_ingest_benchmark_emits_fig2_overhead_ratios(self):
        report = run_suite(
            quick=True, seed=1, repetitions=1, only=("ingest-throughput",)
        )
        metrics = report["metrics"]
        assert metrics["ingest.throughput.columnar"]["median"] > 0
        for family in ("equi_width", "equi_height", "wavelet"):
            ratio = metrics[f"ingest.stats_overhead.{family}"]
            assert (ratio["unit"], ratio["direction"]) == ("ratio", "lower")
            # Same process, same stream, a collector added: a schema
            # test, so only the sign of the overhead is asserted (with
            # slack for timer noise on a loaded runner).
            assert ratio["median"] > 0.5

    def test_ndv_benchmark_metrics(self):
        report = run_suite(quick=True, seed=5, repetitions=1, only=("ndv",))
        metrics = report["metrics"]
        assert metrics["ndv.build.throughput"]["median"] > 0
        assert metrics["ndv.union.latency"]["median"] > 0
        # The HBS wire form is deterministic for a given register file,
        # so the ratio is exact, hardware-free, and >1 at the default
        # precision on this workload (docs/SKETCHES.md).
        ratio = metrics["ndv.wire.compression_ratio"]
        assert ratio["direction"] == "higher"
        assert ratio["median"] > 1.0


class TestReportFiles:
    def test_write_and_load_roundtrip(self, tmp_path):
        report = _fake_report(**{"ship.throughput": 100.0})
        target = write_report(report, tmp_path)
        assert target.name == report_filename(report)
        assert target.name.startswith("BENCH_") and target.name.endswith(".json")
        assert load_report(target) == report

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BenchmarkError, match="does not exist"):
            load_report(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(bad)

    def test_load_wrong_schema_version(self, tmp_path):
        report = _fake_report(**{"ship.throughput": 100.0})
        report["schema_version"] = SCHEMA_VERSION + 1
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps(report))
        with pytest.raises(BenchmarkError, match="schema_version"):
            load_report(bad)

    def test_load_missing_metrics(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(BenchmarkError, match="metrics"):
            load_report(bad)


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = _fake_report(
            **{"ship.throughput": 100.0, "flush.latency": 0.5}
        )
        assert compare_reports(report, copy.deepcopy(report)) == []

    def test_higher_is_better_regression(self):
        baseline = _fake_report(**{"ship.throughput": 100.0})
        current = _fake_report(**{"ship.throughput": 70.0})
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert "ship.throughput" in regressions[0]

    def test_higher_is_better_within_tolerance(self):
        baseline = _fake_report(**{"ship.throughput": 100.0})
        current = _fake_report(**{"ship.throughput": 80.0})
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_lower_is_better_regression(self):
        baseline = _fake_report(**{"flush.latency": 1.0})
        current = _fake_report(**{"flush.latency": 1.5})
        regressions = compare_reports(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        assert "flush.latency" in regressions[0]

    def test_lower_is_better_improvement_passes(self):
        baseline = _fake_report(**{"flush.latency": 1.0})
        current = _fake_report(**{"flush.latency": 0.1})
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_huge_improvement_passes(self):
        baseline = _fake_report(**{"ship.throughput": 100.0})
        current = _fake_report(**{"ship.throughput": 100_000.0})
        assert compare_reports(current, baseline, tolerance=0.0) == []

    def test_metric_missing_from_current_run_fails(self):
        baseline = _fake_report(
            **{"ship.throughput": 100.0, "merge.throughput": 50.0}
        )
        current = _fake_report(**{"ship.throughput": 100.0})
        regressions = compare_reports(current, baseline)
        assert len(regressions) == 1
        assert "merge.throughput" in regressions[0]

    def test_suite_subset_skips_unselected_baseline_metrics(self):
        """A --suite/--only run compares only what it measured: a
        baseline metric from a benchmark the current run never selected
        is not a regression."""
        baseline = _fake_report(
            **{"ship.throughput": 100.0, "ingest.stall.max_window": 0.1}
        )
        current = _fake_report(**{"ingest.stall.max_window": 0.1})
        current["benchmarks"] = ["stability"]  # network-ship unselected
        assert compare_reports(current, baseline) == []
        # ...but a metric the selected benchmark should have produced
        # and did not is still a failure.
        partial = _fake_report(**{"stability.ingest.throughput": 10.0})
        partial["benchmarks"] = ["stability"]
        regressions = compare_reports(partial, baseline)
        assert len(regressions) == 1
        assert "ingest.stall.max_window" in regressions[0]

    def test_new_metric_in_current_run_ignored(self):
        baseline = _fake_report(**{"ship.throughput": 100.0})
        current = _fake_report(
            **{"ship.throughput": 100.0, "merge.throughput": 50.0}
        )
        assert compare_reports(current, baseline) == []

    def test_negative_tolerance_rejected(self):
        report = _fake_report(**{"ship.throughput": 100.0})
        with pytest.raises(BenchmarkError, match="tolerance"):
            compare_reports(report, report, tolerance=-0.1)

    def test_malformed_baseline_rejected(self):
        report = _fake_report(**{"ship.throughput": 100.0})
        broken = copy.deepcopy(report)
        broken["metrics"]["ship.throughput"]["median"] = "fast"
        with pytest.raises(BenchmarkError, match="numeric median"):
            compare_reports(report, broken)

    def test_bad_direction_rejected(self):
        report = _fake_report(**{"ship.throughput": 100.0})
        broken = copy.deepcopy(report)
        broken["metrics"]["ship.throughput"]["direction"] = "sideways"
        with pytest.raises(BenchmarkError, match="direction"):
            compare_reports(report, broken)


class TestPercentile:
    def test_single_sample(self):
        assert perfsuite._percentile([4.2], 0.95) == 4.2

    def test_orders_input(self):
        assert perfsuite._percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert perfsuite._percentile([3.0, 1.0, 2.0], 1.0) == 3.0


class TestSuitesAndBudgets:
    def test_suites_name_only_registered_benchmarks(self):
        for name, members in perfsuite.SUITES.items():
            assert members, name
            assert set(members) <= set(BENCHMARK_NAMES)
        assert tuple(perfsuite.SUITES["all"]) == tuple(BENCHMARK_NAMES)
        assert "stability" in perfsuite.SUITES

    def test_every_metric_has_a_source_benchmark(self):
        assert set(perfsuite.METRIC_SOURCES) == set(perfsuite.METRIC_SPECS)
        assert set(perfsuite.METRIC_SOURCES.values()) <= set(BENCHMARK_NAMES)

    def test_budget_passes_under_the_ceiling(self):
        budget = perfsuite.STABILITY_STALL_BUDGET_SECONDS
        report = _fake_report(**{"ingest.stall.max_window": budget * 0.5})
        assert perfsuite.check_budgets(report) == []

    def test_budget_fails_on_worst_sample_not_median(self):
        budget = perfsuite.STABILITY_STALL_BUDGET_SECONDS
        report = _fake_report(**{"ingest.stall.max_window": budget * 0.5})
        entry = report["metrics"]["ingest.stall.max_window"]
        entry["samples"] = [budget * 0.5, budget * 1.5]  # median still ok
        violations = perfsuite.check_budgets(report)
        assert len(violations) == 1
        assert "ingest.stall.max_window" in violations[0]

    def test_budget_ignores_reports_without_the_metric(self):
        report = _fake_report(**{"ship.throughput": 100.0})
        assert perfsuite.check_budgets(report) == []
