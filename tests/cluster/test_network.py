"""Tests for the simulated network."""

import pytest

from repro.cluster import wire
from repro.cluster.network import Network
from repro.errors import ClusterError


def test_register_and_send():
    network = Network()
    received = []
    network.register("master", lambda src, msg: received.append((src, msg)))
    frame = wire.encode({"kind": "hello"})
    size = network.send("node1", "master", frame)
    assert received == [("node1", frame)]
    assert size == len(frame)
    assert network.stats.messages == 1
    assert network.stats.bytes_sent == size
    assert network.stats.per_destination["master"] == size


def test_duplicate_registration_rejected():
    network = Network()
    network.register("a", lambda s, m: None)
    with pytest.raises(ClusterError):
        network.register("a", lambda s, m: None)


def test_unknown_destination():
    network = Network()
    with pytest.raises(ClusterError):
        network.send("a", "ghost", wire.encode({}))


def test_wire_carries_only_bytes():
    """A dict would be charged ``len()`` of its keys; it is refused."""
    network = Network()
    network.register("m", lambda s, frame: None)
    with pytest.raises(ClusterError, match="bytes"):
        network.send("a", "m", {"x": 1})
    assert network.stats.messages == 0


def test_byte_accounting_grows_with_payload():
    network = Network()
    network.register("m", lambda s, msg: None)
    small = network.send("a", "m", wire.encode({"x": 1}))
    large = network.send("a", "m", wire.encode({"x": list(range(100))}))
    assert large > small
    assert network.stats.bytes_sent == small + large


def test_node_ids():
    network = Network()
    network.register("b", lambda s, m: None)
    network.register("a", lambda s, m: None)
    assert network.node_ids == ["a", "b"]
