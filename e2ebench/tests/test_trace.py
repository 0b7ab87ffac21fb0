"""The wrappers go on, account correctly, and come off without a trace."""

from __future__ import annotations

import importlib
import time

from e2ebench import harness, workloads
from e2ebench.trace import TABLE, Tracer


def _current(row):
    module = importlib.import_module(row.module)
    owner = module
    *parents, attr = row.path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if row.dict_key is not None:
        return getattr(owner, attr)[getattr(module, row.dict_key)]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_attribute_is_the_original_object_after_a_run():
    originals = [_current(row) for row in TABLE]
    tracer = Tracer()
    with tracer.installed():
        assert all(_current(row) is not original for row, original in zip(TABLE, originals))
        assert len(tracer.traced_attributes()) == len(TABLE)
        # Drive the stack end to end with the wrappers on: durable ingest
        # with flushes and merges, estimates, restart and recovery.
        cluster = harness.build_cluster(harness.STATS_ON, durable=True)
        harness.create_orders(cluster, memtable_capacity=32)
        docs = workloads.documents(1, 1_200)
        cluster.insert_many(harness.DATASET, docs)
        cluster.flush_all(harness.DATASET)
        cluster.recover_statistics()
        before = cluster.estimate(harness.DATASET, "value_idx", 0, 1_000)
        cluster.restart_nodes()
        cluster.recover_statistics()
        assert cluster.estimate(harness.DATASET, "value_idx", 0, 1_000) == before
        assert cluster.count_records(harness.DATASET) == len(docs)
    assert all(_current(row) is original for row, original in zip(TABLE, originals))
    assert tracer.traced_attributes() == []

    totals = tracer.totals()
    assert totals["lsm.dataset.insert_many"][0] == 4  # one call per partition
    assert totals["lsm.dataset.insert_many"][3] == len(docs)
    assert totals["lsm.wal.log_op"][0] == len(docs)
    assert totals["lsm.memtable.write"][0] >= 3 * len(docs)  # + WAL replay of none
    for name in (
        "lsm.tree.flush", "lsm.tree.merge", "lsm.btree.build", "lsm.bloom.add_all",
        "lsm.cursor.merge", "lsm.memtable.sorted_chunks", "lsm.manifest",
        "synopses.equi_width.add_many", "synopses.hll.add_many", "synopses.hll.hbs_encode",
        "core.collector.accept_many", "core.collector.finish", "core.collector.rederive",
        "core.catalog.put", "core.catalog.retract", "core.estimator",
        "cluster.node.sink.publish", "cluster.network.send", "cluster.master.handle",
        "lsm.tree.recover", "lsm.wal.replay",
    ):
        assert totals[name][0] > 0 and totals[name][2] >= 0, name
    # Every span names a parent recorded before it, or is a root.
    spans = tracer.spans()
    ids = {span[0] for span in spans}
    assert spans and all(span[4] == -1 or span[4] in ids for span in spans)


def test_self_time_is_duration_minus_children():
    tracer = Tracer(table=())
    with tracer.frame("outer", store=True):
        time.sleep(0.02)
        with tracer.frame("inner"):
            time.sleep(0.03)
        with tracer.frame("outer"):  # same-name nesting is one layer
            time.sleep(0.01)
    totals = tracer.totals()
    calls, total, self_s, _ = totals["outer"]
    assert calls == 1
    assert 0.055 < total < 0.2
    assert abs(totals["inner"][2] - 0.03) < 0.015
    assert abs(self_s - (total - totals["inner"][1])) < 1e-6
    assert abs(tracer.root_seconds() - total) < 1e-9
    (span,) = tracer.spans()
    assert span[1] == "outer" and span[4] == -1


def test_pulled_input_is_charged_to_the_caller_not_the_builder():
    tracer = Tracer()
    with tracer.installed():
        cluster = harness.build_cluster("nostats")
        harness.create_orders(cluster)
        cluster.bulkload(harness.DATASET, workloads.documents(2, 2_000))
    totals = tracer.totals()
    # Leaf packing alone is a small share of what the tree spans cover;
    # before the upstream split it swallowed the whole pull pipeline.
    assert totals["lsm.btree.build"][2] < totals["lsm.tree.bulkload"][2]
    assert totals["lsm.btree.build"][3] == 3 * 2_000
