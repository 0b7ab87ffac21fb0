"""The bypass predictions: which layers a workload must leave idle."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry, use_registry

from e2ebench import harness, layers
from e2ebench.trace import Tracer


def _values(quick_runs, workload):
    metrics = quick_runs[(workload, 1)]["result"]["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def test_bulkload_leaves_memtable_and_wal_idle(quick_runs):
    values = _values(quick_runs, "bulkload")
    for name, value in values.items():
        if name.startswith(("lsm.memtable.", "lsm.wal.", "lsm.cursor.", "lsm.scheduler.")):
            assert value == 0, name
    assert values["lsm.tree.flush.calls"] == values["lsm.tree.merge.calls"] == 0
    assert values["lsm.btree.build.self_s"] > 0 and values["lsm.bloom.add_all.self_s"] > 0
    for family in ("equi_width", "equi_height", "wavelet", "hll"):
        assert values[f"synopses.{family}.add_many.self_s"] > 0
        assert values[f"synopses.{family}.overhead_ratio"] > 0
    assert values["trace.attributed_share"] > 0.8


def test_estimate_mix_leaves_every_lsm_layer_idle(quick_runs):
    values = _values(quick_runs, "estimate_mix")
    for name, value in values.items():
        if name.startswith("lsm.") and name != "lsm.storage.live_bytes_per_user_byte":
            assert value == 0, name
    for family in ("equi_width", "equi_height", "wavelet", "hll"):
        assert values[f"synopses.{family}.add_many.records"] == 0
    assert values["core.estimator.self_s"] > 0
    assert values["synopses.equi_width.merge_with.self_s"] > 0
    assert values["synopses.hll.merge_with.self_s"] > 0
    assert values["query.optimizer.calls"] > 0
    assert values["core.cache.evictions"] > 0
    assert values["core.cache.hit_ratio.fits"] > values["core.cache.hit_ratio.spills"]
    assert values["core.estimator.cold_us"] > values["core.estimator.warm_us"] > 0


def test_feed_churn_exercises_the_write_path_and_the_wire(quick_runs):
    values = _values(quick_runs, "feed_churn")
    for name in (
        "lsm.dataset.insert_many.self_s", "lsm.dataset.update_delete.self_s",
        "lsm.memtable.write.self_s", "lsm.wal.log_op.self_s", "lsm.tree.flush.self_s",
        "lsm.tree.merge.self_s", "lsm.cursor.merge.self_s", "cluster.feeds.consumer.self_s",
        "cluster.network.send.self_s", "cluster.master.handle.self_s",
        "core.catalog.retracts", "cluster.node.retractions", "cluster.feeds.checkpoints",
    ):
        assert values[name] > 0, name
    assert values["lsm.wal.log_op.calls"] == values["cluster.feeds.applied"]
    assert values["lsm.tree.bulkload.calls"] == 0


def test_serving_and_scheduler_work_only_under_the_open_loop(quick_runs):
    for workload in ("bulkload", "feed_churn", "estimate_mix"):
        values = _values(quick_runs, workload)
        for name, value in values.items():
            if name.startswith(("cluster.serving.", "lsm.scheduler.")):
                assert value == 0, (workload, name)
        assert values["cluster.feeds.applied"] == (0 if workload != "feed_churn" else values["cluster.feeds.applied"])
    values = _values(quick_runs, "htap_openloop")
    assert values["cluster.serving.estimate.self_s"] > 0
    assert values["lsm.scheduler.tasks"] > 0 and values["lsm.scheduler.task_s"] > 0
    assert values["client.generator_late_p99_ms"] > 0
    assert values["trace.overhead_ratio"] > 0


RECOVERY = (
    "lsm.wal.replay.self_s", "lsm.manifest.replay.self_s",
    "lsm.tree.recover.self_s", "core.collector.rederive.self_s",
)


def test_crash_recovery_is_traced_where_it_is_the_workloads_own(quick_runs):
    for workload in ("feed_churn", "htap_openloop"):
        values = _values(quick_runs, workload)
        for name in RECOVERY:
            assert values[name] > 0, (workload, name)
    for workload in ("bulkload", "estimate_mix"):
        values = _values(quick_runs, workload)
        for name in RECOVERY:
            assert values[name] == 0, (workload, name)


def test_the_open_loop_clients_view_is_reported(quick_runs):
    values = _values(quick_runs, "htap_openloop")
    assert values["client.ingest_mean_ms"] > 0 and values["client.estimate_mean_us"] > 0
    assert values["client.ingest_p99_ms"] >= values["client.ingest_mean_ms"]
    assert 0 <= values["client.ingest_late_ratio"] < 1
    assert 0 <= values["client.estimate_late_ratio"] < 1
    ratio = quick_runs[("htap_openloop", 0)]["result"]["metrics"]["ontime_op_ratio"]["value"]
    assert 0 < ratio <= 1
    for workload in ("bulkload", "feed_churn", "estimate_mix"):
        metrics = quick_runs[(workload, 0)]["result"]["metrics"]
        assert metrics["ontime_op_ratio"]["value"] == 1  # nothing failed, nothing is due


def test_a_metric_without_a_source_is_an_error_not_a_zero():
    section = layers.Section({}, {}, {}, 1.0, 1.0)
    with use_registry(MetricsRegistry()):
        # Nothing is registered: as if the program had renamed its counters.
        with pytest.raises(LookupError, match="registers no metric"):
            layers.assemble("bulkload", [section], {}, Tracer(table=()))
        cluster = harness.build_cluster(harness.STATS_ON, durable=True)
        harness.create_orders(cluster)
        # The counters are there now; the workload's own readings are not.
        with pytest.raises(KeyError):
            layers.assemble("bulkload", [section], {}, Tracer(table=()))
        # feed_churn builds a feed consumer, so its counters must exist too.
        with pytest.raises(LookupError, match="feed"):
            layers.assemble("feed_churn", [section], {}, Tracer(table=()))
