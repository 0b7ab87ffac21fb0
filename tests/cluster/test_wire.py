"""The statistics wire codec and what rides it (docs/ARCHITECTURE.md
"Wire format").

Four contracts:

1. **Round trip** -- ``decode(encode(x)) == x`` with types and float
   bits preserved, over the whole value space the format carries.
2. **Hostile input** -- a truncated or bit-flipped frame decodes to a
   :class:`WireError` or to some value; never another exception, a
   hang or an allocation sized by a corrupt count.
3. **Every family fits** -- each synopsis family
   ``synopsis_from_payload`` can be handed survives the wire
   ``to_payload()``-equal and is no larger than the JSON form the
   parent commit charged for.
4. **The wire carries those bytes** -- an HLL publish frame holds both
   HBS frames verbatim, is encoded once per enqueued message whatever
   the fault plan does, and ``bytes_sent`` on the canonical op script
   is pinned exactly.
"""

import itertools
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import verify
from repro.cluster import wire
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.cluster.master import ClusterController
from repro.cluster.network import Network
from repro.cluster.node import NetworkStatisticsSink, RetryPolicy
from repro.core.config import StatisticsConfig
from repro.errors import ClusterError, WireError
from repro.lsm import component
from repro.obs.registry import MetricsRegistry
from repro.synopses import SynopsisType, create_builder
from repro.synopses.factory import _SYNOPSIS_CLASSES, synopsis_from_payload
from repro.types import Domain

SEED64 = 0x9E3779B97F4A7C15  # the HLL hash seed: needs the big-int form
EDGE_INTS = [
    0, 1, -1, 127, 128, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, SEED64,
    -SEED64, 2**200,
]  # fmt: skip
EDGE_FLOATS = [0.0, -0.0, 1.5, -2.25, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, math.inf, -math.inf]  # fmt: skip

ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**70), 2**70))
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, st.text(max_size=12), st.binary(max_size=24)
)
values = st.recursive(
    st.one_of(scalars, st.lists(ints, max_size=40), st.lists(floats, max_size=40)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=8), inner, max_size=6),
    ),
    max_leaves=30,
)


def _same(a, b):
    """Equality that also tells ``1`` from ``1.0`` from ``True`` and
    ``0.0`` from ``-0.0`` -- what a bit-exact catalog needs."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


class TestRoundTrip:
    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(values)
    def test_decode_inverts_encode(self, value):
        frame = wire.encode(value)
        assert type(frame) is bytes
        assert _same(wire.decode(frame), value)
        assert wire.encode(wire.decode(frame)) == frame  # a pure function

    @pytest.mark.parametrize("value", EDGE_INTS + EDGE_FLOATS)
    def test_edge_scalars_alone_in_lists_and_in_runs(self, value):
        for shaped in (value, [value], [value] * 5, [value, 0, value], {"k": value}):
            assert _same(wire.decode(wire.encode(shaped)), shaped)

    @pytest.mark.parametrize(
        "items",
        [[], [7], [0] * 300, [3, 3, 3.0], [1, True], [0.0, -0.0], [1, "a", None],
         [[1, 2], [3.5, 4]], [255, 256], [-1, 255], [-129, 127], [2**64 - 1, 0],
         [2**64, 0], [-1, 2**63]],
    )  # fmt: skip
    def test_list_shapes(self, items):
        assert _same(wire.decode(wire.encode(items)), items)

    def test_tuples_travel_as_lists(self):
        assert wire.decode(wire.encode({"f": [(1, 2), (3, 4)]})) == {"f": [[1, 2], [3, 4]]}

    def test_packing_rule_sizes(self):
        envelope = len(wire.encode([]))
        assert len(wire.encode(list(range(256)))) <= envelope + 3 + 256  # 'B'
        assert len(wire.encode(list(range(250, 506)))) <= envelope + 3 + 512  # 'H'
        assert len(wire.encode([0] * 256)) <= 6  # run: tag, count, value
        assert len(wire.encode([0.0] * 256)) <= 12
        assert len(wire.encode([1.5, 2.5])) == 3 + 16  # 'd'

    def test_unsupported_values_are_typed_errors(self):
        for bad in (object(), {1: "int key"}, {"s": {2, 3}}, [1j], bytearray(b"x")):
            with pytest.raises(WireError):
                wire.encode(bad)


class TestHostileFrames:
    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(values, st.data())
    def test_truncations_and_bit_flips_never_escape(self, value, data):
        frame = wire.encode(value)
        cut = data.draw(st.integers(0, len(frame)))
        mangled = bytearray(frame[:cut])
        for _ in range(data.draw(st.integers(0, 3))):
            if mangled:
                at = data.draw(st.integers(0, len(mangled) - 1))
                mangled[at] ^= 1 << data.draw(st.integers(0, 7))
        try:
            wire.decode(bytes(mangled))
        except WireError:
            pass

    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, blob):
        try:
            wire.decode(blob)
        except WireError:
            pass

    @pytest.mark.parametrize(
        "frame",
        [
            b"",  # nothing
            b"\x63",  # unknown tag
            b"\x03" + b"\xff" * 11,  # varint that never ends
            b"\x08" + b"\xff" * 9 + b"\x01",  # list of 2**63 items
            b"\x0a" + b"Q" + b"\xff" * 9 + b"\x01",  # 2**63 packed words
            b"\x0a" + b"x\x01\x00",  # unknown typecode
            b"\x0b" + b"\xff" * 9 + b"\x01" + b"\x03\x00",  # run of 2**63
            b"\x0b\x02" * 5000 + b"\x03\x00",  # run of run of run ...
            b"\x08\x01" * 5000 + b"\x00",  # nesting bomb
            b"\x06\x02\xff\xfe",  # not UTF-8
            b"\x00\x00",  # trailing byte
            b"\x05\x00",  # float cut short
        ],
    )
    def test_named_attacks_are_wire_errors(self, frame):
        with pytest.raises(WireError):
            wire.decode(frame)

    def test_longest_run_allocates_at_most_max_run_items(self):
        assert len(wire.decode(wire.encode([0] * wire.MAX_RUN))) == wire.MAX_RUN
        longer = [0] * (wire.MAX_RUN + 1)  # packs densely instead
        assert wire.decode(wire.encode(longer)) == longer

    def test_non_bytes_is_a_wire_error(self):
        with pytest.raises(WireError):
            wire.decode({"kind": "stats.publish"})


DOMAIN = Domain(0, 2**16 - 1)
_RNG = random.Random(23)
INPUTS = {
    "empty": [],
    "sparse": sorted(_RNG.sample(range(2**16), 12)),
    # 3 000 records over 300 distinct values: every bucket / register
    # family fills, and v-optimal's quadratic DP stays under a second.
    "dense": sorted(_RNG.choices(range(0, 2**16, 219), k=3_000)),
}


def _payload(family, budget, values):
    builder = create_builder(family, DOMAIN, budget, len(values))
    builder.add_many(values)
    return builder.build().to_payload()


def _parent_json_size(payload):
    """What the parent commit's wire charged: compact JSON, HBS as hex."""
    if "hbs" in payload:
        payload = dict(payload, hbs=payload["hbs"].hex())
    return len(json.dumps(payload, separators=(",", ":")))


class TestEveryFamily:
    @pytest.mark.parametrize("shape", INPUTS)
    @pytest.mark.parametrize("budget", [16, 256, 1024])
    @pytest.mark.parametrize("family", list(_SYNOPSIS_CLASSES), ids=lambda f: f.value)
    def test_survives_the_wire_and_is_no_larger_than_json(self, family, budget, shape):
        payload = _payload(family, budget, INPUTS[shape])
        frame = wire.encode(payload)
        assert synopsis_from_payload(wire.decode(frame)).to_payload() == payload
        assert len(frame) <= _parent_json_size(payload)

    def test_covers_what_synopsis_from_payload_accepts(self):
        assert len(_SYNOPSIS_CLASSES) == 9


def _sketch(values, budget=256):
    builder = create_builder(SynopsisType.HLL_SKETCH, DOMAIN, budget, len(values))
    builder.add_many(values)
    return builder.build()


ENVELOPE_BOUND = 288
"""Bytes a publish frame may spend beyond the two HBS frames: the
message's key names and stamps (~105) plus two payload headers of type,
domain, budget, total_count and the 64-bit seed, key names included
(~80 each).  Measured 262 at budget 256."""


class TestWhatTheWireCarries:
    def _capture(self, plan=None, **sink_args):
        registry = MetricsRegistry()
        network = Network(registry=registry, fault_plan=plan)
        frames = []
        network.register("cc", lambda source, frame: frames.append(frame))
        sink = NetworkStatisticsSink(
            network, "n1", "cc", 0, registry=registry,
            retry_policy=RetryPolicy.immediate(max_attempts=8), **sink_args,
        )  # fmt: skip
        return network, sink, frames

    def test_hll_publish_frame_holds_both_hbs_frames_verbatim(self):
        matter, anti = _sketch(range(0, 40_000, 7)), _sketch(range(0, 900, 3))
        network, sink, frames = self._capture()
        sink.publish("idx#ndv", 1, matter, anti)
        (frame,) = frames
        matter_hbs, anti_hbs = matter.to_payload()["hbs"], anti.to_payload()["hbs"]
        assert type(matter_hbs) is bytes and matter_hbs in frame
        assert type(anti_hbs) is bytes and anti_hbs in frame
        # sketch.wire.bytes (docs/SKETCHES.md) counts encoded_bytes() of
        # the pair; the wire ships that plus a bounded envelope.
        shipped = matter.encoded_bytes() + anti.encoded_bytes()
        assert shipped == len(matter_hbs) + len(anti_hbs)
        assert 0 < len(frame) - shipped <= ENVELOPE_BOUND
        assert network.stats.bytes_sent == len(frame)

    def test_encoded_once_per_message_not_per_attempt_or_copy(self, monkeypatch):
        calls = []
        real_encode = wire.encode
        monkeypatch.setattr(
            wire, "encode", lambda message: calls.append(1) or real_encode(message)
        )
        plan = FaultPlan(seed=5, default=LinkFaults(drop=0.5, duplicate=0.5))
        network, sink, frames = self._capture(plan)
        sketch = _sketch(range(500))
        for uid in range(20):
            sink.publish("idx#ndv", uid, sketch, sketch)
        sink.retract("idx#ndv", [0, 1])
        while sink.flush_outbox():
            pass
        assert sink._m_retries.value > 0 and network._m_duplicated.value > 0
        assert len(frames) > 21  # duplicates were delivered
        assert len(calls) == 21  # ... but each message was encoded once

    def test_duplicate_deliveries_are_equal_immutable_frames(self):
        plan = FaultPlan(default=LinkFaults(duplicate=1.0))
        _network, sink, frames = self._capture(plan)
        sketch = _sketch(range(500))
        sink.publish("idx#ndv", 1, sketch, sketch)
        first, second = frames
        assert first == second and type(first) is bytes
        # Each delivery decodes to its own message: a handler that
        # scribbles on one cannot reach the other (or the outbox).
        one, two = wire.decode(first), wire.decode(second)
        one["synopsis"]["budget"] = -1
        assert two["synopsis"]["budget"] == 256 and wire.decode(first) == two


class TestBadFramesAtTheMaster:
    def _master(self):
        registry = MetricsRegistry()
        network = Network(registry=registry)
        master = ClusterController(network, registry=registry)
        sketch = _sketch(range(0, 5_000, 3))
        captured = []
        network.register("tap", lambda source, frame: captured.append(frame))
        sink = NetworkStatisticsSink(network, "n1", "tap", 0, registry=registry)
        sink.publish("idx#ndv", 1, sketch, sketch)
        return network, master, captured[0]

    @staticmethod
    def _state(master):
        return (
            master.catalog.entry_count(),
            master.stats_messages_received,
            {channel: set(seqs) for channel, seqs in master._applied_seqs.items()},
            dict(master._epochs),
        )

    def test_flipped_frames_are_rejected_whole_or_applied_whole(self):
        network, master, frame = self._master()
        rng = random.Random(11)
        rejected = 0
        for _ in range(400):
            flipped = bytearray(frame)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            before = self._state(master)
            try:
                network.send("n1", "cc", bytes(flipped))
            except ClusterError:  # WireError, or an unknown kind
                rejected += 1
                assert self._state(master) == before
            # else the flip landed somewhere harmless (a count, a
            # stamp): a well-formed message, applied like any other.
        assert rejected > 200

    def test_a_rejected_frame_leaves_no_trace_so_the_good_copy_applies(self):
        network, master, frame = self._master()
        untouched = self._state(master)
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                network.send("n1", "cc", frame[:cut])
        assert self._state(master) == untouched
        network.send("n1", "cc", frame)
        assert master.catalog.entry_count("idx#ndv") == 1

    def test_well_framed_nonsense_is_one_typed_error(self):
        network, master, _frame = self._master()
        for message in (
            {"kind": "stats.publish"},
            {"kind": "stats.publish", "index": "i", "partition": 0, "component_uid": 1,
             "synopsis": {"type": "hll_sketch"}, "anti_synopsis": {}},
            {"kind": "stats.publish", "index": ["i"], "partition": 0},
            {"kind": "stats.retract", "index": "i", "partition": "zero",
             "component_uids": [1]},
            {"kind": "stats.retract", "index": "i", "partition": 0, "seq": [1],
             "component_uids": 5},
            {"kind": "stats.reset", "index": "i"},
        ):  # fmt: skip
            with pytest.raises(WireError):
                network.send("n1", "cc", wire.encode(message))
        assert master.catalog.entry_count() == 0
        assert master.stats_messages_received == 0


@pytest.mark.parametrize(
    "ndv_enabled, messages, bytes_sent",
    [(False, 118, 26_740), (True, 236, 73_364)],  # the JSON wire: 40 112 and 111 812
)
def test_wire_budget_of_the_canonical_op_script_is_pinned(
    monkeypatch, ndv_enabled, messages, bytes_sent
):
    """A later change that fattens a payload fails here, in tier-1,
    instead of on the benchmark's 1 % ``stats_wire_bytes_per_record``
    bound.  Deterministic: sync scheduler, perfect wire, fixed script;
    once as the checks run it (equi-width only) and once with the NDV
    sketch lane riding along.
    """
    # Component uids come from a process-wide counter and travel as
    # varints: start it at 0, as in the fresh process a benchmark run is.
    monkeypatch.setattr(component, "_component_counter", itertools.count())
    cluster = verify.build_cluster(
        stats_config=StatisticsConfig(
            SynopsisType.EQUI_WIDTH, budget=32, ndv_enabled=ndv_enabled
        )
    )
    verify.run_script(cluster, 1024)
    stats = cluster.network.stats
    assert stats.messages == cluster.master.stats_messages_received == messages
    assert stats.bytes_sent == bytes_sent
