"""Cluster-level crash restart: epoch fencing and statistics recovery."""

import pytest

from repro import verify
from repro.cluster import wire
from repro.cluster.cluster import LSMCluster
from repro.cluster.crashcheck import format_report, run_crashcheck
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.cluster.node import RetryPolicy
from repro.core.config import StatisticsConfig
from repro.errors import ClusterError
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.synopses.base import SynopsisType
from repro.types import Domain


def _build_cluster(durable=True, wal_enabled=True, fault_plan=None):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        durable=durable,
        wal_enabled=wal_enabled,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=16,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    return cluster


def _ingest(cluster, records=100):
    for pk in range(records):
        cluster.insert("ds", {"id": pk, "value": (pk * 13) % 1024})
    for pk in range(0, records, 9):
        cluster.delete("ds", pk)


def test_durable_restart_preserves_contents_and_estimates():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    before_count = cluster.count_records("ds")
    before_estimates = [
        cluster.estimate("ds", "value_idx", lo, lo + 63)
        for lo in range(0, 1024, 128)
    ]
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == before_count
    assert [
        cluster.estimate("ds", "value_idx", lo, lo + 63)
        for lo in range(0, 1024, 128)
    ] == before_estimates


def test_restart_preserves_unflushed_acked_writes():
    cluster = _build_cluster()
    _ingest(cluster, records=20)  # nothing flushed (capacity 16/partition)
    before = cluster.count_records("ds")
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == before
    assert cluster.get("ds", 1) is not None


def test_non_durable_restart_loses_everything():
    cluster = _build_cluster(durable=False)
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == 0
    # The epoch reset also cleared the now-meaningless catalog entries.
    assert cluster.master.catalog.entry_count() == 0


def test_restart_bumps_epoch_and_resets_catalog_generation():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    epochs_before = [node.epoch for node in cluster.nodes]
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert [node.epoch for node in cluster.nodes] == [
        epoch + 1 for epoch in epochs_before
    ]
    # Every surviving catalog entry was published under the new epoch.
    catalog = cluster.master.catalog
    for index_name in catalog.index_names():
        for entry in catalog.entries_for(index_name):
            assert entry.epoch == 1


def test_stale_epoch_messages_are_fenced_out():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    cluster.restart_nodes()
    cluster.recover_statistics()
    master = cluster.master
    entries_before = master.catalog.entry_count()
    # A straggler publish from the crashed incarnation (epoch 0).
    index_name = master.catalog.index_names()[0]
    straggler = master.catalog.entries_for(index_name)[0]
    master._on_message(
        cluster.nodes[0].node_id,
        wire.encode(
            {
                "kind": "stats.publish",
                "index": index_name,
                "partition": 0,
                "seq": 10**6,
                "epoch": 0,
                "component_uid": 10**6,
                "synopsis": straggler.synopsis.to_payload(),
                "anti_synopsis": straggler.anti_synopsis.to_payload(),
            }
        ),
    )
    assert master.catalog.entry_count() == entries_before


def test_unknown_message_kind_still_rejected():
    cluster = _build_cluster()
    with pytest.raises(ClusterError):
        cluster.master._on_message("nc1", wire.encode({"kind": "stats.gossip"}))


def test_recover_statistics_reports_per_node_backlog():
    # A wire that drops everything: recovery cannot converge and the
    # error must name each node's parked backlog.
    hostile = FaultPlan(seed=0, default=LinkFaults(drop=1.0))
    cluster = _build_cluster(fault_plan=hostile)
    _ingest(cluster)
    cluster.flush_all("ds")
    with pytest.raises(ClusterError, match=r"nc1=\d+, nc2=\d+"):
        cluster.recover_statistics(max_rounds=5)


def test_crashcheck_converges():
    # 512 records is the smallest workload whose per-partition share
    # produces enough flushes to reach the merge crash points.
    report = run_crashcheck(seed=1, records=512)
    assert report.converged, format_report(report)
    assert report.crashes_fired == len(report.points_checked)
    assert report.control_records_lost > 0
    # The concurrent sweep (virtual scheduler) must actually crash
    # inside background maintenance tasks, not degrade to a no-op.
    assert report.concurrent_points_checked
    assert report.concurrent_crashes_fired == len(
        report.concurrent_points_checked
    )


def test_recovered_merged_component_keeps_its_build_geometry():
    # A merge sizes its Bloom filter and (equi-height) bucket height
    # from the sum of its inputs *before* reconciliation; the merged
    # component must remember that number, or recovery re-derives both
    # from the smaller reconciled count and stops being bit-identical.
    cluster = LSMCluster(
        num_nodes=1,
        partitions_per_node=1,
        stats_config=StatisticsConfig(SynopsisType.EQUI_HEIGHT, budget=8),
        durable=True,
    )
    cluster.create_dataset(
        verify.DATASET,
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=32,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=2),
    )
    for pk in range(64):
        cluster.insert(verify.DATASET, verify.doc(pk))
    for pk in range(0, 64, 2):
        cluster.delete(verify.DATASET, pk)
    for pk in range(64, 96):
        cluster.insert(verify.DATASET, verify.doc(pk))
    cluster.flush_all(verify.DATASET)
    cluster.recover_statistics()

    def geometry():
        primary = cluster.nodes[0].dataset(verify.DATASET, 0).primary
        return [
            (c.record_count, c.expected_records, c.bloom.num_bits)
            for c in primary.components
        ]

    live_geometry, live = geometry(), verify.image(cluster)
    # Newest first: the last flush, then the merge of three 32-record
    # flushes whose 32 deletes annihilated 32 inserts.
    assert [g[:2] for g in live_geometry] == [(32, 32), (32, 96)]
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert geometry() == live_geometry
    assert verify.compare("restart", live, verify.image(cluster)) == []
