"""``BENCHMARK.json`` meets the contract, and runs emit what it names."""

from __future__ import annotations

import json
import re

from e2ebench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_the_contract():
    raw = (spec.ROOT / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    contract = json.loads(raw)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["e2ebench"]
    assert contract["command"][:2] == ["python3", "e2ebench/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = spec.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # 4 + 22 x workloads runs, with set-up, inside the driver's 3420 s.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 15) <= 3420
    assert spec.WORKLOADS == ("bulkload", "feed_churn", "estimate_mix", "htap_openloop")


def test_quick_smoke_passes_its_oracle_on_every_workload(quick_runs):
    for (workload, trace), run in quick_runs.items():
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace, run["stdout"][-1500:])
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_named_metric_is_emitted_with_its_unit(quick_runs):
    for (workload, trace), run in quick_runs.items():
        specs = spec.PER_LAYER if trace else spec.END_TO_END
        metrics = run["result"]["metrics"]
        assert list(metrics) == list(specs), (workload, trace)
        for name, metric in specs.items():
            assert metrics[name]["unit"] == metric["unit"]
            assert isinstance(metrics[name]["value"], (int, float))
            # The printed table names every metric with direction and bound.
            line = next(
                line for line in run["stdout"].splitlines()
                if line.split()[:1] == [name]
            )
            assert metric["unit"] in line and f"{metric['better']} is better" in line
            if not trace:
                assert f"bound {metric['bound']:.0%}" in line
                assert metrics[name]["value"] > 0, (workload, name)
