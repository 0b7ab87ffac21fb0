"""The HLL sketch battery (docs/SKETCHES.md).

Four contracts, property-tested:

1. **Union algebra** -- register union is commutative, associative and
   idempotent, and ``merge(build(A), build(B))`` is *bit-identical* to
   ``build(A ∪ B)``: the lazy master-side union loses nothing.
2. **HBS codec** -- ``decode(encode(registers))`` round-trips
   bit-identically for arbitrary register vectors, including the
   all-zero and saturated uniform frames.
3. **Accuracy** -- relative NDV error stays within three standard
   errors (``3 * 1.04 / sqrt(2**p)``) over seeded random cardinalities
   from 10 up to 10**6 (the full sweep runs in the nightly lane via
   ``REPRO_HLL_FULL=1``; the quick lane subsamples).
4. **Columnar oracle** -- batched ``add_many`` over typed key columns
   is register-identical to the per-record ``add`` oracle across chunk
   sizes and for both typed containers a caller may hand it (the
   pipeline's ``array('q')`` column, a numpy ``int64`` array).
"""

import os
import random
import struct
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MergeabilityError, SynopsisError
from repro.synopses.hll import (
    HBSCodec,
    HyperLogLogBuilder,
    HyperLogLogSynopsis,
    hash64,
)
from repro.types import Domain
from tests.synopses.reference_hbs import ReferenceHBSCodec

DOMAIN = Domain(0, 2**20 - 1)
BUDGET = 256  # p = 8

FULL_SCALE = os.environ.get("REPRO_HLL_FULL") == "1"

values_lists = st.lists(
    st.integers(DOMAIN.lo, DOMAIN.hi), min_size=0, max_size=300
)


def _build(values, budget=BUDGET, domain=DOMAIN):
    builder = HyperLogLogBuilder(domain, budget)
    for value in values:
        builder.add(value)
    return builder.build()


def _registers(sketch: HyperLogLogSynopsis) -> bytes:
    return bytes(sketch.registers)


class TestUnionAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(values_lists, values_lists)
    def test_union_equals_build_of_union(self, a, b):
        """The load-bearing property: lazily unioned per-component
        sketches are bit-identical to one sketch over all the data."""
        merged = _build(a).merge_with(_build(b))
        combined = _build(a + b)
        assert _registers(merged) == _registers(combined)
        assert merged.to_payload()["hbs"] == combined.to_payload()["hbs"]

    @settings(max_examples=60, deadline=None)
    @given(values_lists, values_lists)
    def test_commutative(self, a, b):
        x, y = _build(a), _build(b)
        assert _registers(x.merge_with(y)) == _registers(y.merge_with(x))

    @settings(max_examples=40, deadline=None)
    @given(values_lists, values_lists, values_lists)
    def test_associative(self, a, b, c):
        x, y, z = _build(a), _build(b), _build(c)
        left = x.merge_with(y).merge_with(z)
        right = x.merge_with(y.merge_with(z))
        assert _registers(left) == _registers(right)

    @settings(max_examples=60, deadline=None)
    @given(values_lists)
    def test_idempotent(self, a):
        x = _build(a)
        assert _registers(x.merge_with(x)) == _registers(x)

    def test_merge_rejects_seed_mismatch(self):
        x = _build(range(10))
        other = HyperLogLogSynopsis(
            DOMAIN, BUDGET, x.registers, 10, hash_seed=x.hash_seed + 1
        )
        with pytest.raises(MergeabilityError):
            x.merge_with(other)

    def test_merge_rejects_budget_mismatch(self):
        with pytest.raises(MergeabilityError):
            _build(range(10), budget=128).merge_with(_build(range(10)))


class TestHBSCodec:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda p: st.lists(
                st.integers(0, 57), min_size=2**p, max_size=2**p
            )
        )
    )
    def test_round_trip(self, regs):
        registers = array("B", regs)
        encoded = HBSCodec.encode(registers)
        assert HBSCodec.decode(encoded, len(registers)) == registers

    def test_all_zero_uses_uniform_frame(self):
        registers = array("B", bytes(1024))
        encoded = HBSCodec.encode(registers)
        assert len(encoded) == 6  # >BIB header only
        assert HBSCodec.decode(encoded, len(registers)) == registers

    def test_saturated_uniform(self):
        registers = array("B", [57] * 256)
        encoded = HBSCodec.encode(registers)
        assert len(encoded) == 6
        assert HBSCodec.decode(encoded, len(registers)) == registers

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda p: st.tuples(
                st.floats(0, 40), st.floats(0, 6), st.integers(0, 2**32)
            ).map(
                lambda shape: [
                    min(57, max(0, int(random.Random(shape[2] + i).gauss(*shape[:2]))))
                    for i in range(2**p)
                ]
            )
        )
    )
    def test_kernels_are_byte_identical_to_the_reference(self, regs):
        """The per-bit bodies the kernels replaced (reference_hbs.py)
        are the oracle: same frame out, same registers back -- on
        peaked register files like real sketches', not only uniform
        noise."""
        registers = array("B", regs)
        frame = HBSCodec.encode(registers)
        assert frame == ReferenceHBSCodec.encode(registers)
        assert HBSCodec.decode(frame, len(registers)) == registers
        assert ReferenceHBSCodec.decode(frame) == registers

    def test_real_sketches_are_byte_identical_to_the_reference(self):
        rng = random.Random(17)
        for budget in (16, 256, 1024, 4096):
            for count in (0, 1, 40, 3_000, 60_000):
                sketch = _build(rng.sample(range(2**20), count), budget=budget)
                frame = HBSCodec.encode(sketch.registers)
                assert frame == ReferenceHBSCodec.encode(sketch.registers)
                assert HBSCodec.decode(frame, budget) == sketch.registers

    def test_frame_cut_anywhere_is_a_synopsis_error(self):
        """Cuts at 7-12 bytes land inside the 4-symbol table: a bare
        ``struct.error`` before the table read was bounds-checked."""
        registers = array("B", [0, 1, 2, 3] * 4)
        frame = HBSCodec.encode(registers)
        assert frame[5] == 4 and len(frame) > 6 + 2 * 4  # header, 4-symbol table
        for cut in range(len(frame)):
            with pytest.raises(SynopsisError):
                HBSCodec.decode(frame[:cut], len(registers))

    @pytest.mark.parametrize("uniform", [True, False])
    def test_flipped_register_count_is_rejected_before_any_allocation(self, uniform):
        registers = array("B", [3] * 16 if uniform else [0, 1, 2, 3] * 4)
        frame = bytearray(HBSCodec.encode(registers))
        frame[1] ^= 0x80  # count 16 -> 2**31 + 16: a 2 GiB register file
        with pytest.raises(SynopsisError, match="expected 16"):
            HBSCodec.decode(bytes(frame), 16)
        payload = dict(_build(range(100), budget=16).to_payload(), hbs=bytes(frame))
        with pytest.raises(SynopsisError, match="expected 16"):
            HyperLogLogSynopsis.from_payload(payload)

    @pytest.mark.parametrize(
        "table",
        [
            b"\x00\x01\x01\x02\x02\x02\x03\x02",  # Kraft sum > 1
            b"\x00\x02\x01\x02\x02\x02\x03\x03",  # Kraft sum < 1: bits would be skipped
            b"\x00\x00\x01\x01\x02\x02\x03\x02",  # a zero-length code
            b"\x01\x02\x00\x02\x02\x02\x03\x02",  # symbols out of order
            b"\x00\x02\x00\x02\x02\x02\x03\x02",  # a symbol twice
        ],
    )
    def test_symbol_table_that_is_not_a_canonical_code_is_rejected(self, table):
        frame = struct.pack(">BIB", 1, 16, 4) + table + bytes(8)
        with pytest.raises(SynopsisError):
            HBSCodec.decode(frame, 16)

    def test_non_bytes_frame_is_a_synopsis_error(self):
        hexed = HBSCodec.encode(array("B", [0, 1] * 8)).hex()  # the old wire form
        with pytest.raises(SynopsisError):
            HBSCodec.decode(hexed, 16)

    def test_payload_round_trip_bit_identical(self):
        sketch = _build(random.Random(3).sample(range(2**20), 5000))
        clone = HyperLogLogSynopsis.from_payload(sketch.to_payload())
        assert _registers(clone) == _registers(sketch)
        assert clone.to_payload() == sketch.to_payload()

    def test_encoding_is_deterministic(self):
        """Equal registers -> equal bytes (catalog dedup relies on it)."""
        a = _build(range(0, 4000, 3))
        b = _build(list(range(0, 4000, 3))[::-1])
        assert a.to_payload()["hbs"] == b.to_payload()["hbs"]

    def test_compresses_realistic_registers(self):
        sketch = _build(random.Random(9).sample(range(2**20), 20_000), 1024)
        assert sketch.encoded_bytes() < sketch.register_bytes()


class TestAccuracy:
    @pytest.mark.parametrize("precision", [8, 10, 12])
    def test_relative_error_within_three_sigma(self, precision):
        m = 1 << precision
        allowance = 3 * 1.04 / m**0.5
        rng = random.Random(precision)
        ceiling = 6 if FULL_SCALE else 5
        cardinalities = [10] + [
            rng.randint(10**e, 10 ** (e + 1)) for e in range(1, ceiling)
        ]
        domain = Domain(0, 2**62 - 1)
        for n in cardinalities:
            builder = HyperLogLogBuilder(domain, m)
            builder.add_many(
                array("q", rng.sample(range(2**62 - 1), n))
            )
            estimate = builder.build().cardinality()
            assert abs(estimate - n) / n <= allowance, (
                f"p={precision} n={n} est={estimate}"
            )

    @pytest.mark.parametrize(
        "n, budget, recorded",
        [
            # Linear counting, the raw estimator, the tiny-budget alpha:
            # floats recorded before cardinality() was memoised.
            (40, 256, 36.48001602746445),
            (700, 256, 670.6895474511074),
            (20_000, 256, 22492.160791063598),
            (20_000, 16, 19948.880508833925),
            (5, 2, 1.8741149723936346),
        ],
    )
    def test_cardinality_is_computed_once_and_unchanged(self, n, budget, recorded):
        sketch = _build(random.Random(n).sample(range(2**20), n), budget)
        first = sketch.cardinality()
        assert first == recorded
        # Registers are immutable, so the harmonic sum runs once: the
        # second call hands back the very same float object.
        assert sketch.cardinality() is first
        span = DOMAIN.hi - DOMAIN.lo + 1
        assert sketch.estimate(0, 1023) == recorded * (1024 / span)

    def test_empty_is_zero(self):
        sketch = _build([])
        assert sketch.cardinality() == 0.0
        assert sketch.estimate(DOMAIN.lo, DOMAIN.hi) == 0.0

    def test_duplicates_do_not_inflate(self):
        sketch = _build([42] * 10_000 + [7] * 5_000)
        assert sketch.cardinality() == pytest.approx(2, abs=1)

    def test_range_estimate_scales_with_overlap(self):
        sketch = _build(range(0, 1000))
        full = sketch.estimate(DOMAIN.lo, DOMAIN.hi)
        assert sketch.estimate(5, 4) == 0.0
        assert 0.0 <= sketch.estimate(0, DOMAIN.hi // 2) <= full

    def test_rejects_bad_budgets(self):
        for bad in (3, 6, 100):
            with pytest.raises(SynopsisError):
                HyperLogLogBuilder(DOMAIN, bad)

    def test_hash_is_seeded(self):
        assert hash64(12345, 1) != hash64(12345, 2)

    def test_builder_hash_is_hash64(self):
        # The builder inlines the hash in its loop; each value must
        # still land in the register, at the rank, ``hash64`` dictates.
        for value in (0, 1, 12345, DOMAIN.hi):
            sketch = _build([value])
            bits = 64 - sketch.precision
            hashed = hash64(value, sketch.hash_seed)
            expected = bytearray(BUDGET)
            expected[hashed >> bits] = (
                bits - (hashed & ((1 << bits) - 1)).bit_length() + 1
            )
            assert _registers(sketch) == bytes(expected)


# The stdlib typed column is consumed as is; a numpy array's scalars
# must be normalised to plain ints on the way in (docs/DATAPATH.md: no
# numpy scalar ever becomes a key).
_TYPED_COLUMNS = pytest.mark.parametrize(
    "column",
    [
        lambda values: array("q", values),
        lambda values: np.array(values, dtype=np.int64),
    ],
    ids=["py", "np"],
)


class TestColumnarOracle:
    @_TYPED_COLUMNS
    @pytest.mark.parametrize("chunk_sizes", [[1], [7], [64], [1, 33, 256]])
    def test_add_many_matches_per_record_oracle(self, column, chunk_sizes):
        rng = random.Random(11)
        values = [rng.randrange(DOMAIN.lo, DOMAIN.hi + 1) for _ in range(900)]

        oracle = HyperLogLogBuilder(DOMAIN, BUDGET)
        for value in values:
            oracle.add(value)

        batched = HyperLogLogBuilder(DOMAIN, BUDGET)
        position = 0
        index = 0
        while position < len(values):
            size = chunk_sizes[index % len(chunk_sizes)]
            index += 1
            chunk = values[position : position + size]
            position += len(chunk)
            batched.add_many(column(chunk))
        batched_sketch = batched.build()

        oracle_sketch = oracle.build()
        assert _registers(batched_sketch) == _registers(oracle_sketch)
        assert batched_sketch.to_payload() == oracle_sketch.to_payload()
        assert batched_sketch.total_count == oracle_sketch.total_count

    @_TYPED_COLUMNS
    def test_list_and_typed_column_agree(self, column):
        values = list(range(0, 5000, 7))
        from_list = HyperLogLogBuilder(DOMAIN, BUDGET)
        from_list.add_many(values)
        from_column = HyperLogLogBuilder(DOMAIN, BUDGET)
        from_column.add_many(column(values))
        assert _registers(from_list.build()) == _registers(from_column.build())
