"""Integration tests for the simulated cluster."""

import pytest

from repro.cluster import LSMCluster
from repro.core import StatisticsConfig
from repro.errors import ClusterError
from repro.lsm.dataset import CompositeIndexSpec, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.synopses import SynopsisType
from repro.types import Domain

VALUE_DOMAIN = Domain(0, 999)


def _cluster(synopsis_type=SynopsisType.GROUND_TRUTH, **kwargs):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(synopsis_type, budget=128),
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 10**6),
        indexes=[IndexSpec("value_idx", "value", VALUE_DOMAIN)],
        **kwargs,
    )
    return cluster


def _doc(pk, value):
    return {"id": pk, "value": value}


class TestTopology:
    def test_default_matches_paper(self):
        cluster = LSMCluster()
        assert len(cluster.nodes) == 4
        assert cluster.num_partitions == 8

    def test_invalid_topology(self):
        with pytest.raises(ClusterError):
            LSMCluster(num_nodes=0)

    def test_duplicate_dataset(self):
        cluster = _cluster()
        with pytest.raises(ClusterError):
            cluster.create_dataset("ds", "id", Domain(0, 10))

    def test_unknown_dataset(self):
        cluster = LSMCluster(num_nodes=1)
        with pytest.raises(ClusterError):
            cluster.insert("nope", {"id": 1})

    def test_composite_spec_beside_statistics(self):
        # DDL registers 1-D statistics for single-field specs only; a
        # composite spec is maintained without any (it has no .domain).
        cluster = LSMCluster(
            num_nodes=2,
            partitions_per_node=2,
            stats_config=StatisticsConfig(SynopsisType.GROUND_TRUTH, budget=128),
        )
        cluster.create_dataset(
            "ds",
            primary_key="id",
            primary_domain=Domain(0, 10**6),
            indexes=[
                IndexSpec("value_idx", "value", VALUE_DOMAIN),
                CompositeIndexSpec(
                    "pair_idx", ("value", "id"), (VALUE_DOMAIN, Domain(0, 10**6))
                ),
            ],
            memtable_capacity=16,
        )
        for pk in range(100):
            cluster.insert("ds", _doc(pk, pk * 7 % 1000))
        cluster.flush_all("ds")
        true = cluster.count_secondary_range("ds", "value_idx", 100, 500)
        assert cluster.estimate("ds", "value_idx", 100, 500) == true


class TestDistributedIngestion:
    def test_records_spread_over_partitions(self):
        cluster = _cluster(memtable_capacity=16)
        for pk in range(200):
            cluster.insert("ds", _doc(pk, pk % 1000))
        cluster.flush_all("ds")
        assert cluster.count_records("ds") == 200
        per_node = [node.count_records("ds") for node in cluster.nodes]
        assert all(count > 0 for count in per_node)

    def test_update_and_delete_route_correctly(self):
        cluster = _cluster(memtable_capacity=16)
        for pk in range(100):
            cluster.insert("ds", _doc(pk, pk))
        assert cluster.update("ds", _doc(7, 900))
        assert cluster.delete("ds", 13)
        assert not cluster.delete("ds", 13)
        cluster.flush_all("ds")
        assert cluster.count_records("ds") == 99
        assert cluster.count_secondary_range("ds", "value_idx", 900, 900) == 1

    def test_bulkload_partitions(self):
        cluster = _cluster()
        cluster.bulkload("ds", [_doc(pk, pk % 1000) for pk in range(400)])
        assert cluster.count_records("ds") == 400
        # One component per partition.
        assert cluster.component_count("ds", "value_idx") == cluster.num_partitions


class TestDistributedStatistics:
    def test_synopses_shipped_to_master(self):
        cluster = _cluster(memtable_capacity=16)
        for pk in range(100):
            cluster.insert("ds", _doc(pk, pk))
        cluster.flush_all("ds")
        assert cluster.master.stats_messages_received > 0
        assert cluster.network.stats.bytes_sent > 0
        assert cluster.master.catalog.entry_count() > 0

    def test_ground_truth_estimate_is_exact_across_nodes(self):
        cluster = _cluster(memtable_capacity=16)
        for pk in range(300):
            cluster.insert("ds", _doc(pk, (pk * 7) % 1000))
        for pk in range(0, 300, 5):
            cluster.delete("ds", pk)
        cluster.flush_all("ds")
        for lo, hi in [(0, 999), (100, 400), (777, 777)]:
            true = cluster.count_secondary_range("ds", "value_idx", lo, hi)
            assert cluster.estimate("ds", "value_idx", lo, hi) == pytest.approx(true)

    def test_merge_policy_runs_per_partition(self):
        cluster = _cluster(
            memtable_capacity=8,
            merge_policy_factory=lambda: ConstantMergePolicy(2),
        )
        for pk in range(400):
            cluster.insert("ds", _doc(pk, pk % 1000))
        cluster.flush_all("ds")
        assert cluster.component_count("ds", "value_idx") <= 2 * cluster.num_partitions
        true = cluster.count_secondary_range("ds", "value_idx", 0, 999)
        assert cluster.estimate("ds", "value_idx", 0, 999) == pytest.approx(true)

    def test_wavelet_estimates_over_cluster(self):
        cluster = _cluster(SynopsisType.WAVELET, memtable_capacity=32)
        for pk in range(500):
            cluster.insert("ds", _doc(pk, pk % 1000))
        cluster.flush_all("ds")
        true = cluster.count_secondary_range("ds", "value_idx", 100, 299)
        estimate = cluster.estimate("ds", "value_idx", 100, 299)
        assert estimate == pytest.approx(true, rel=0.2)

    def test_estimation_needs_no_node_io(self):
        cluster = _cluster(memtable_capacity=16)
        for pk in range(100):
            cluster.insert("ds", _doc(pk, pk))
        cluster.flush_all("ds")
        before = [node.disk.stats.snapshot() for node in cluster.nodes]
        cluster.estimate("ds", "value_idx", 0, 999)
        for node, snapshot in zip(cluster.nodes, before):
            delta = node.disk.stats.delta(snapshot)
            assert delta.pages_read == 0


class TestInsertMany:
    def test_routed_batch_matches_per_document(self):
        many = _cluster()
        loop = _cluster()
        docs = [_doc(pk, pk % 1000) for pk in range(300)]
        assert many.insert_many("ds", docs) == 300
        for doc in docs:
            loop.insert("ds", doc)
        assert many.count_records("ds") == loop.count_records("ds") == 300
        assert many.count_secondary_range(
            "ds", "value_idx", 0, 499
        ) == loop.count_secondary_range("ds", "value_idx", 0, 499)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ClusterError):
            _cluster().insert_many("nope", [_doc(1, 1)])
