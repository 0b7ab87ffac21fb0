"""``compare``: ok / regressed / unresolved per (metric, workload)."""

from __future__ import annotations

from e2ebench import compare, spec

LOWER = {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10}


def test_within_the_bound_is_ok():
    row = compare.verdict(LOWER, [10.0, 10.1, 10.2, 10.3], [10.6, 10.7, 10.8, 10.9])
    assert row["verdict"] == compare.OK and 0 < row["worse_by"] < 0.10


def test_beyond_the_bound_is_regressed_in_the_bad_direction_only():
    assert compare.verdict(LOWER, [10.0] * 4, [11.5] * 4)["verdict"] == compare.REGRESSED
    assert compare.verdict(LOWER, [10.0] * 4, [5.0] * 4)["verdict"] == compare.OK
    assert compare.verdict(HIGHER, [100.0] * 4, [85.0] * 4)["verdict"] == compare.REGRESSED
    assert compare.verdict(HIGHER, [100.0] * 4, [150.0] * 4)["verdict"] == compare.OK


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(LOWER, noisy, [9.0, 10.0, 11.0, 13.0])["verdict"] == compare.UNRESOLVED
    assert compare.verdict(LOWER, noisy, [4.0, 5.0, 6.0, 7.0])["verdict"] == compare.OK


def test_a_single_run_per_side_still_compares():
    assert compare.spread([3.0]) == 0.0
    assert compare.verdict(LOWER, [10.0], [10.5])["verdict"] == compare.OK


def test_sets_compare_per_workload_and_metric():
    run = {name: 1.0 for name in spec.END_TO_END}
    worse = dict(run, ingest_records_per_s=0.5)
    rows = compare.compare_sets(
        {"bulkload": [run, run], "feed_churn": [run]},
        {"bulkload": [run, worse, worse], "htap_openloop": [run]},
    )
    assert {row["workload"] for row in rows} == {"bulkload"}
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("ingest_records_per_s") != compare.OK
    assert set(verdicts.values()) == {compare.OK}
    assert "regressed" in compare.format_rows(rows) or "unresolved" in compare.format_rows(rows)
