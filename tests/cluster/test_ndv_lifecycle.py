"""NDV sketch lane lifecycle under the cluster's failure modes.

The lane's promise (docs/SKETCHES.md): register unions are exact and
HBS encoding is a pure function of the registers, so at-least-once
delivery, straggler redeliveries and crash-recovery re-derivation must
all leave the master's unioned sketch *bit-identical* to the one a
perfect wire would have produced.
"""

from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.util.retry import RetryPolicy
from repro.core.config import StatisticsConfig
from repro.lsm.dataset import IndexSpec, secondary_index_name
from repro.synopses.base import SynopsisType
from repro.synopses.hll import ndv_statistics_key
from repro.types import Domain

PK_DOMAIN = Domain(0, 2**20 - 1)
VALUE_DOMAIN = Domain(0, 1023)


def _build_cluster(fault_plan=None, durable=False):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(
            SynopsisType.EQUI_WIDTH,
            budget=32,
            ndv_enabled=True,
            ndv_precision=7,
        ),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy.immediate(max_attempts=4),
        durable=durable,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=PK_DOMAIN,
        indexes=[IndexSpec("value_idx", "value", VALUE_DOMAIN)],
        memtable_capacity=32,
    )
    return cluster


def _ingest(cluster, records=400):
    for pk in range(records):
        cluster.insert("ds", {"id": pk * 17 % 2**20, "value": pk % 1024})
    for pk in range(0, records, 10):
        cluster.delete("ds", pk * 17 % 2**20)
    cluster.flush_all("ds")
    cluster.recover_statistics()


def _unioned_payloads(cluster, index_name="primary"):
    """The master catalog's NDV entries as canonical sketch bytes.

    Component uids are allocated from a process-global counter, so two
    cluster instances (or two node incarnations) number components
    differently; the identity that must survive faults is the multiset
    of per-partition HBS payload pairs."""
    key = ndv_statistics_key(secondary_index_name("ds", index_name))
    entries = cluster.master.catalog.entries_for(key)
    return sorted(
        (
            entry.node_id,
            entry.partition_id,
            entry.synopsis.to_payload()["hbs"],
            entry.anti_synopsis.to_payload()["hbs"],
        )
        for entry in entries
    )


def test_ndv_end_to_end_through_cluster_ingest():
    cluster = _build_cluster()
    _ingest(cluster)
    detail = cluster.estimate_ndv_detailed("ds")
    true_ndv = cluster.count_records("ds")
    # p=7 -> sigma ~ 9.2%; the interval must bracket sanity.
    assert detail.lower <= detail.upper
    assert detail.upper == detail.matter_ndv
    assert abs(detail.matter_ndv - 400) / 400 <= 3 * 1.04 / 128**0.5
    assert true_ndv <= 400
    # Secondary lane answers too.
    assert cluster.estimate_ndv("ds", "value_idx") > 0


def test_cached_union_matches_slow_path_and_survives_redundant_queries():
    cluster = _build_cluster()
    _ingest(cluster)
    slow = cluster.estimate_ndv_detailed("ds")
    assert not slow.from_cache
    for _ in range(3):
        cached = cluster.estimate_ndv_detailed("ds")
        assert cached.from_cache
        assert cached.ndv == slow.ndv
        assert (cached.lower, cached.upper) == (slow.lower, slow.upper)


def test_faulty_wire_converges_to_clean_wire_bit_identically():
    """Duplicates, reordering and drops (with retry + recovery rounds)
    must leave the catalog -- and therefore the lazily unioned sketch --
    exactly as a perfect wire would have."""
    clean = _build_cluster()
    _ingest(clean)
    faulty = _build_cluster(
        fault_plan=FaultPlan(
            seed=5,
            default=LinkFaults(drop=0.2, duplicate=0.3, reorder=0.2),
        )
    )
    _ingest(faulty)
    for index_name in ("primary", "value_idx"):
        assert _unioned_payloads(faulty, index_name) == _unioned_payloads(
            clean, index_name
        )
        faulty_detail = faulty.estimate_ndv_detailed("ds", index_name)
        clean_detail = clean.estimate_ndv_detailed("ds", index_name)
        assert faulty_detail.ndv == clean_detail.ndv
        assert faulty_detail.upper == clean_detail.upper


def test_duplicate_deliveries_leave_unioned_sketch_unchanged():
    cluster = _build_cluster(
        fault_plan=FaultPlan(seed=3, default=LinkFaults(duplicate=0.5))
    )
    _ingest(cluster)
    before = cluster.estimate_ndv_detailed("ds")
    payloads = _unioned_payloads(cluster)
    # Re-deliver everything again: flush outboxes + drain the wire.
    cluster.recover_statistics()
    assert _unioned_payloads(cluster) == payloads
    after = cluster.estimate_ndv_detailed("ds")
    assert (after.ndv, after.lower, after.upper) == (
        before.ndv,
        before.lower,
        before.upper,
    )


def test_crash_recovery_rederives_identical_sketches():
    """A durable restart rebuilds every component's HLL pair from disk;
    hashing is deterministic, so the republished payloads -- and the
    resulting NDV interval -- are bit-identical to the pre-crash ones."""
    cluster = _build_cluster(durable=True)
    _ingest(cluster)
    before_payloads = {
        name: _unioned_payloads(cluster, name)
        for name in ("primary", "value_idx")
    }
    before = cluster.estimate_ndv_detailed("ds")
    cluster.restart_nodes()
    cluster.recover_statistics()
    after_payloads = {
        name: _unioned_payloads(cluster, name)
        for name in ("primary", "value_idx")
    }
    assert after_payloads == before_payloads
    after = cluster.estimate_ndv_detailed("ds")
    assert (after.ndv, after.lower, after.upper) == (
        before.ndv,
        before.lower,
        before.upper,
    )
