"""Fault injection, the retrying sink, and master idempotency."""

import pytest

from repro.cluster import wire
from repro.cluster.faultcheck import run_faultcheck
from repro.cluster.faults import FaultDecision, FaultPlan, LinkFaults
from repro.cluster.master import ClusterController
from repro.cluster.network import Network
from repro.cluster.node import NetworkStatisticsSink, RetryPolicy
from repro.errors import NetworkUnavailableError
from repro.obs.registry import MetricsRegistry
from repro.synopses import SynopsisType, create_builder
from repro.types import Domain

DOMAIN = Domain(0, 99)


def _synopsis(values=(1, 2)):
    builder = create_builder(SynopsisType.EQUI_WIDTH, DOMAIN, 8, len(values))
    for value in sorted(values):
        builder.add(value)
    return builder.build()


def _publish_message(uid=1, seq=None, partition=0, values=(1, 2)):
    message = {
        "kind": "stats.publish",
        "index": "idx",
        "partition": partition,
        "component_uid": uid,
        "synopsis": _synopsis(values).to_payload(),
        "anti_synopsis": _synopsis(()).to_payload(),
    }
    if seq is not None:
        message["seq"] = seq
    return wire.encode(message)


def _retract_message(uids, seq=None, partition=0):
    message = {
        "kind": "stats.retract",
        "index": "idx",
        "partition": partition,
        "component_uids": list(uids),
    }
    if seq is not None:
        message["seq"] = seq
    return wire.encode(message)


# -- FaultPlan policy ---------------------------------------------------------


def test_link_faults_validate_probabilities():
    with pytest.raises(ValueError):
        LinkFaults(drop=1.5)
    with pytest.raises(ValueError):
        LinkFaults(reorder=-0.1)


def test_fault_plan_validates_windows():
    with pytest.raises(ValueError):
        FaultPlan(unavailable={"m": [(5, 5)]})
    with pytest.raises(ValueError):
        FaultPlan(unavailable={"m": [(-1, 3)]})


def test_unavailability_window_is_half_open():
    plan = FaultPlan(unavailable={"m": [(2, 4)]})
    assert not plan.unavailable_at("m", 1)
    assert plan.unavailable_at("m", 2)
    assert plan.unavailable_at("m", 3)
    assert not plan.unavailable_at("m", 4)
    assert not plan.unavailable_at("other", 3)


def test_decide_drops_inside_window():
    plan = FaultPlan(unavailable={"m": [(0, 2)]})
    decision = plan.decide("a", "m", 1)
    assert decision.disposition is FaultDecision.DROP
    assert decision.reason == "unavailable"


def test_per_link_overrides_beat_default():
    plan = FaultPlan(
        default=LinkFaults(drop=1.0),
        links={("a", "m"): LinkFaults()},
    )
    assert plan.decide("a", "m", 0).disposition is FaultDecision.DELIVER
    assert plan.decide("b", "m", 0).disposition is FaultDecision.DROP


def test_same_seed_same_decisions():
    def decisions(seed):
        plan = FaultPlan(
            seed=seed,
            default=LinkFaults(drop=0.3, duplicate=0.3, reorder=0.3, delay=0.2),
        )
        return [
            (d.disposition, d.duplicate, d.release_tick, d.reason)
            for d in (plan.decide("a", "m", t) for t in range(50))
        ]

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)


# -- Network fault execution --------------------------------------------------


def test_drop_raises_and_counts():
    registry = MetricsRegistry()
    network = Network(
        registry=registry, fault_plan=FaultPlan(default=LinkFaults(drop=1.0))
    )
    received = []
    network.register("m", lambda s, frame: received.append(wire.decode(frame)))
    with pytest.raises(NetworkUnavailableError):
        network.send("a", "m", wire.encode({"x": 1}))
    assert received == []
    assert registry.counter("network.dropped").value == 1
    assert network.stats.messages == 0  # byte accounting charges deliveries only


def test_duplicate_delivers_twice():
    registry = MetricsRegistry()
    network = Network(
        registry=registry, fault_plan=FaultPlan(default=LinkFaults(duplicate=1.0))
    )
    received = []
    network.register("m", lambda s, frame: received.append(wire.decode(frame)))
    network.send("a", "m", wire.encode({"x": 1}))
    assert received == [{"x": 1}, {"x": 1}]
    assert registry.counter("network.duplicated").value == 1
    assert network.stats.messages == 2


def test_reordering_swaps_past_later_traffic():
    registry = MetricsRegistry()
    plan = FaultPlan(links={("a", "m"): LinkFaults(reorder=1.0)})
    network = Network(registry=registry, fault_plan=plan)
    received = []
    network.register(
        "m", lambda s, frame: received.append((s, wire.decode(frame)["x"]))
    )
    network.send("a", "m", wire.encode({"x": "held"}))  # held until tick >= 1
    network.send("b", "m", wire.encode({"x": "fast"}))  # clean link: releases it
    assert received == [("b", "fast"), ("a", "held")]
    assert registry.counter("network.reordered").value == 1
    assert network.pending_count == 0


def test_delay_parks_until_drain():
    registry = MetricsRegistry()
    plan = FaultPlan(
        links={("a", "m"): LinkFaults(delay=1.0)}, max_delay_ticks=100
    )
    network = Network(registry=registry, fault_plan=plan)
    received = []
    network.register("m", lambda s, frame: received.append(wire.decode(frame)["x"]))
    network.send("a", "m", wire.encode({"x": 1}))
    assert received == []
    assert network.pending_count == 1
    assert registry.counter("network.delayed").value == 1
    assert network.drain() == 1
    assert received == [1]
    assert network.pending_count == 0


def test_sends_fail_during_unavailability_then_recover():
    network = Network(fault_plan=FaultPlan(unavailable={"m": [(0, 2)]}))
    received = []
    network.register("m", lambda s, frame: received.append(wire.decode(frame)))
    for _ in range(2):  # ticks 0 and 1: inside the window
        with pytest.raises(NetworkUnavailableError):
            network.send("a", "m", wire.encode({"x": 1}))
    network.send("a", "m", wire.encode({"x": 2}))  # tick 2: window has passed
    assert received == [{"x": 2}]


# -- NetworkStatisticsSink retry/outbox ---------------------------------------


def _sink_fixture(plan, registry, max_attempts=4, outbox_limit=64):
    network = Network(registry=registry, fault_plan=plan)
    master = ClusterController(network, registry=registry)
    sink = NetworkStatisticsSink(
        network,
        "n1",
        "cc",
        0,
        registry=registry,
        retry_policy=RetryPolicy.immediate(max_attempts=max_attempts),
        outbox_limit=outbox_limit,
    )
    return network, master, sink


def test_sink_retries_through_outage_window():
    registry = MetricsRegistry()
    plan = FaultPlan(unavailable={"cc": [(0, 2)]})
    _network, master, sink = _sink_fixture(plan, registry)
    sink.publish("idx", 1, _synopsis(), _synopsis(()))
    assert sink.outbox_depth == 0
    assert master.catalog.entry_count("idx") == 1
    assert registry.counter("sink.retries").value == 2
    assert registry.counter("sink.send.failures").value == 0


def test_sink_parks_message_and_flushes_after_recovery():
    registry = MetricsRegistry()
    plan = FaultPlan(unavailable={"cc": [(0, 6)]})
    _network, master, sink = _sink_fixture(plan, registry, max_attempts=2)
    sink.publish("idx", 1, _synopsis(), _synopsis(()))  # ticks 0-1: parked
    assert sink.outbox_depth == 1
    assert master.catalog.entry_count("idx") == 0
    assert registry.counter("sink.send.failures").value == 1
    assert registry.gauge("sink.outbox.depth").value == 1
    assert sink.flush_outbox() == 1  # ticks 2-3: still inside the window
    assert sink.flush_outbox() == 1  # ticks 4-5
    assert sink.flush_outbox() == 0  # tick 6: delivered
    assert master.catalog.entry_count("idx") == 1
    assert registry.gauge("sink.outbox.depth").value == 0


def test_sink_outbox_sheds_oldest_on_overflow():
    registry = MetricsRegistry()
    plan = FaultPlan(unavailable={"cc": [(0, 10_000)]})
    _network, _master, sink = _sink_fixture(
        plan, registry, max_attempts=1, outbox_limit=2
    )
    for uid in (1, 2, 3):
        sink.publish("idx", uid, _synopsis(), _synopsis(()))
    assert sink.outbox_depth == 2
    assert registry.counter("sink.outbox.dropped").value == 1
    assert registry.gauge("sink.outbox.depth").value == 2


def test_sink_preserves_fifo_order_across_parking():
    registry = MetricsRegistry()
    plan = FaultPlan(unavailable={"cc": [(0, 4)]})
    network, _master, sink = _sink_fixture(plan, registry, max_attempts=1)
    order = []
    original = network._handlers["cc"]
    network._handlers["cc"] = lambda s, frame: (
        order.append(wire.decode(frame)["component_uid"]),
        original(s, frame),
    )
    sink.publish("idx", 1, _synopsis(), _synopsis(()))  # tick 0: parked
    sink.publish("idx", 2, _synopsis(), _synopsis(()))  # tick 1: parked behind 1
    assert sink.outbox_depth == 2
    while sink.flush_outbox():
        pass
    assert order == [1, 2]


def test_sink_sequences_are_unique_and_monotone():
    registry = MetricsRegistry()
    network = Network(registry=registry)
    seen = []
    network.register("cc", lambda s, frame: seen.append(wire.decode(frame)["seq"]))
    sink = NetworkStatisticsSink(network, "n1", "cc", 0, registry=registry)
    sink.publish("idx", 1, _synopsis(), _synopsis(()))
    sink.retract("idx", [1])
    sink.publish("idx", 2, _synopsis(), _synopsis(()))
    assert seen == [1, 2, 3]


# -- master idempotency -------------------------------------------------------


def test_master_skips_duplicate_deliveries_by_seq():
    registry = MetricsRegistry()
    network = Network(registry=registry)
    master = ClusterController(network, registry=registry)
    message = _publish_message(uid=1, seq=1)
    network.send("n1", "cc", message)
    network.send("n1", "cc", message)  # transport-level redelivery
    assert master.catalog.entry_count("idx") == 1
    assert registry.counter("cluster.stats.duplicates").value == 1
    assert master.stats_messages_received == 2
    assert registry.counter("cluster.stats.messages").value == 2


def test_master_dedup_channels_are_per_node_and_partition():
    registry = MetricsRegistry()
    network = Network(registry=registry)
    master = ClusterController(network, registry=registry)
    network.send("n1", "cc", _publish_message(uid=1, seq=1, partition=0))
    network.send("n1", "cc", _publish_message(uid=2, seq=1, partition=1))
    network.send("n2", "cc", _publish_message(uid=3, seq=1, partition=0))
    assert master.catalog.entry_count("idx") == 3
    assert registry.counter("cluster.stats.duplicates").value == 0


def test_late_publish_cannot_resurrect_retracted_component():
    registry = MetricsRegistry()
    network = Network(registry=registry)
    master = ClusterController(network, registry=registry)
    network.send("n1", "cc", _publish_message(uid=1, seq=1))
    network.send("n1", "cc", _retract_message([1, 2], seq=2))
    # A delayed publish of the already-retracted component 2 arrives late.
    network.send("n1", "cc", _publish_message(uid=2, seq=3))
    assert master.catalog.entry_count("idx") == 0
    assert [e.component_uid for e in master.catalog.entries_for("idx")] == []


def test_duplicate_retract_does_not_bump_version():
    network = Network(registry=MetricsRegistry())
    master = ClusterController(network, registry=MetricsRegistry())
    network.send("n1", "cc", _publish_message(uid=1, seq=1))
    network.send("n1", "cc", _retract_message([1], seq=2))
    version = master.catalog.version_for("idx")
    network.send("n1", "cc", _retract_message([1]))  # unstamped redelivery
    assert master.catalog.version_for("idx") == version


def test_catalog_gauge_tracks_only_actual_change():
    registry = MetricsRegistry()
    network = Network(registry=registry)
    master = ClusterController(network, registry=registry)
    network.send("n1", "cc", _publish_message(uid=1, seq=1))
    assert registry.gauge("cluster.catalog.entries").value == 1
    # Identical payload under a fresh seq: passes dedup, no-ops in the
    # catalog, and must not disturb the gauge.
    network.send("n1", "cc", _publish_message(uid=1, seq=2))
    assert registry.gauge("cluster.catalog.entries").value == 1
    assert master.catalog.version_for("idx") == 1


# -- end-to-end chaos ---------------------------------------------------------


def test_seeded_chaos_run_converges():
    report = run_faultcheck(seed=11, records=256)
    assert report.converged, report.problems
    assert report.dropped > 0  # the plan actually injected faults
    assert report.retries > 0


def test_hopeless_fault_plan_raises_instead_of_spinning():
    from repro.cluster.cluster import LSMCluster
    from repro.core.config import StatisticsConfig
    from repro.errors import ClusterError
    from repro.lsm.merge_policy import ConstantMergePolicy

    cluster = LSMCluster(
        num_nodes=1,
        partitions_per_node=1,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=8),
        fault_plan=FaultPlan(default=LinkFaults(drop=1.0)),
        retry_policy=RetryPolicy.immediate(max_attempts=1),
    )
    cluster.create_dataset(
        "d",
        primary_key="id",
        primary_domain=Domain(0, 999),
        memtable_capacity=4,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    for pk in range(8):
        cluster.insert("d", {"id": pk})
    cluster.flush_all("d")
    assert cluster.statistics_backlog() > 0
    with pytest.raises(ClusterError):
        cluster.recover_statistics(max_rounds=5)
