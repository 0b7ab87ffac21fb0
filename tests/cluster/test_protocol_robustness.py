"""Robustness of the statistics network protocol."""

import pytest

from repro.cluster import wire
from repro.cluster.master import ClusterController
from repro.cluster.network import Network
from repro.errors import ClusterError, SynopsisError
from repro.synopses import SynopsisType, create_builder
from repro.synopses.factory import synopsis_from_payload
from repro.types import Domain


def _payload(values=(1, 2, 3)):
    builder = create_builder(SynopsisType.EQUI_WIDTH, Domain(0, 9), 4, len(values))
    for value in sorted(values):
        builder.add(value)
    return builder.build().to_payload()


def test_unknown_message_kind_rejected():
    network = Network()
    ClusterController(network)
    with pytest.raises(ClusterError):
        network.send("nc1", "cc", wire.encode({"kind": "stats.exfiltrate"}))


def test_missing_kind_rejected():
    network = Network()
    ClusterController(network)
    with pytest.raises(ClusterError):
        network.send("nc1", "cc", wire.encode({"index": "x"}))


def test_malformed_synopsis_payload_rejected():
    with pytest.raises(SynopsisError):
        synopsis_from_payload({"type": "not_a_synopsis"})
    with pytest.raises(SynopsisError):
        synopsis_from_payload({})


def test_publish_retract_roundtrip_over_wire():
    network = Network()
    master = ClusterController(network)
    network.send(
        "nc1",
        "cc",
        wire.encode(
            {
                "kind": "stats.publish",
                "index": "idx",
                "partition": 0,
                "component_uid": 7,
                "synopsis": _payload(),
                "anti_synopsis": _payload(()),
            }
        ),
    )
    assert master.catalog.entry_count("idx") == 1
    assert master.estimate("idx", 0, 9) == pytest.approx(3)
    network.send(
        "nc1",
        "cc",
        wire.encode(
            {
                "kind": "stats.retract",
                "index": "idx",
                "partition": 0,
                "component_uids": [7],
            }
        ),
    )
    assert master.catalog.entry_count("idx") == 0
    assert master.estimate("idx", 0, 9) == 0.0


def test_retract_from_other_node_is_isolated():
    """A node can only retract its own entries (node id comes from the
    transport, not the message body)."""
    network = Network()
    master = ClusterController(network)
    message = {
        "kind": "stats.publish",
        "index": "idx",
        "partition": 0,
        "component_uid": 1,
        "synopsis": _payload(),
        "anti_synopsis": _payload(()),
    }
    network.send("nc1", "cc", wire.encode(message))
    network.send(
        "nc2",
        "cc",
        wire.encode(
            {
                "kind": "stats.retract",
                "index": "idx",
                "partition": 0,
                "component_uids": [1],
            }
        ),
    )
    # nc2's retract names the same (partition, uid) but a different
    # source node, so nc1's entry survives.
    assert master.catalog.entry_count("idx") == 1
