"""HyperLogLog distinct-value sketches with Huffman-Bucket compression.

The paper's synopsis families answer *range cardinality* only; the
number-of-distinct-values (NDV) statistic that join-cardinality and
``DISTINCT`` planning need is the ROADMAP's "mergeable distinct-value
sketches" item.  This module implements it as a new synopsis family:

* :class:`HyperLogLogSynopsis` -- a dense HyperLogLog: ``m = 2**p``
  one-byte registers (``array('B')``), a seeded 64-bit hash, and the
  standard bias-corrected estimator with small-range (linear counting)
  and large-range corrections [Flajolet et al., AOFA 2007].  Register
  union (element-wise max) is *exact*: unlike histogram or wavelet
  merges it loses nothing, so the master's lazy merge path can fold
  per-component sketches without recomputation.
* :class:`HBSCodec` -- the Huffman-Bucket register coding (after
  Karppa's *Huffman-Bucket Sketch*, PAPERS.md): registers concentrate
  sharply around ``log2(n/m)``, so a canonical Huffman code over the
  observed register values compresses the dense array losslessly for
  the wire/persisted form.  ``decode(encode(x))`` is bit-identical to
  ``x`` by construction and by property test.

The family plugs into the standard synopsis protocol.  Two deliberate
deviations from the histogram families, both documented in
docs/SKETCHES.md:

* ``budget`` counts *registers* (one byte each), not 16-byte elements,
  and must be a power of two (``budget = 2**precision``);
  :meth:`payload_bytes` is overridden accordingly.
* :meth:`estimate` answers *distinct* values in a range (the NDV
  estimate scaled by the range's share of the domain, a uniformity
  assumption) -- the family's real API is :meth:`cardinality`, consumed
  by the estimator's ``estimate_ndv``.
"""

from __future__ import annotations

import heapq
import math
import re
import struct
from array import array
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Any, Sequence

import numpy as np

from repro.errors import MergeabilityError, SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.types import Domain

__all__ = [
    "DEFAULT_HASH_SEED",
    "HBSCodec",
    "HyperLogLogSynopsis",
    "HyperLogLogBuilder",
    "hash64",
    "ndv_statistics_key",
]

_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)

DEFAULT_HASH_SEED = 0x9E3779B97F4A7C15
"""Default hash seed (the 64-bit golden-ratio constant)."""


def ndv_statistics_key(statistics_key: str) -> str:
    """Catalog key of the NDV sketch lane riding a statistics target."""
    return f"{statistics_key}#ndv"


def hash64(value: int, seed: int = DEFAULT_HASH_SEED) -> int:
    """Seeded 64-bit mix (splitmix64 finaliser) of an integer value.

    Deterministic across platforms and processes -- crash recovery
    re-derives sketches by rescanning components, and the rebuilt
    registers must be bit-identical to the pre-crash ones.
    """
    x = (int(value) + seed) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _alpha(m: int) -> float:
    """The bias-correction constant of the raw HLL estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    # The asymptotic formula; also used below 16 registers, where the
    # sketch is degenerate anyway (supported only for the tiny-budget
    # contract tests).
    return 0.7213 / (1.0 + 1.079 / m)


class HBSCodec:
    """Lossless Huffman-Bucket coding of an HLL register array.

    Register values follow a sharply peaked (geometric-tailed)
    distribution, so a Huffman code built from the *actual* register
    histogram gets close to the empirical entropy -- typically 3-4x
    smaller than the dense byte array -- while staying trivially
    decodable.  The code is *canonical* (codewords assigned in
    (length, symbol) order), so encoding is a pure function of the
    register contents: identical registers always produce identical
    bytes, which the catalog's payload-equality dedup relies on.

    Wire format (big-endian):

    * uniform frame (0 or 1 distinct register values):
      ``B:0  I:register_count  B:value``
    * Huffman frame:
      ``B:1  I:register_count  B:symbol_count``
      then ``symbol_count`` pairs of ``B:value  B:code_length``,
      then the concatenated codewords, zero-padded to a byte boundary.
    """

    _HEADER = struct.Struct(">BIB")
    _UNIFORM = 0
    _HUFFMAN = 1
    _RUN = 32

    @classmethod
    def encode(cls, registers: "array[int]") -> bytes:
        # Counter, not numpy.bincount (25 us faster per sketch): numpy
        # called from the maintenance threads cost htap_openloop ~12 MiB
        # of peak RSS.
        frequencies = Counter(registers)
        if len(frequencies) <= 1:
            value = registers[0] if len(registers) else 0
            return cls._HEADER.pack(cls._UNIFORM, len(registers), value)
        lengths = cls._code_lengths(frequencies)
        table = bytes(chain.from_iterable(sorted(lengths.items())))
        # One pass each at C speed: codeword per register, one string,
        # one big integer, one byte string (zero-padded to a byte).
        bits = "".join(map(cls._code_bits(lengths).__getitem__, registers))
        bits += "0" * (-len(bits) % 8)
        return (
            cls._HEADER.pack(cls._HUFFMAN, len(registers), len(lengths))
            + table
            + int(bits, 2).to_bytes(len(bits) // 8, "big")
        )

    @classmethod
    def decode(cls, data: bytes, register_count: int) -> "array[int]":
        """The ``register_count`` registers of an :meth:`encode` frame.

        The frame's own count must equal ``register_count`` (the budget
        the caller expects) -- checked before anything is sized by it,
        so a corrupt count is an error, never an allocation.
        """
        if not isinstance(data, bytes):
            raise SynopsisError(f"an HBS frame is bytes, got {type(data).__name__}")
        try:
            frame, count, arg = cls._HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise SynopsisError(f"truncated HBS frame: {exc}") from exc
        if count != register_count:
            raise SynopsisError(
                f"HBS frame holds {count} registers, expected {register_count}"
            )
        offset = cls._HEADER.size
        if frame == cls._UNIFORM:
            return array("B", bytes([arg]) * count)
        if frame != cls._HUFFMAN:
            raise SynopsisError(f"unknown HBS frame type {frame}")
        table = data[offset : offset + 2 * arg]
        if len(table) != 2 * arg:
            raise SynopsisError(f"truncated HBS symbol table ({arg} symbols)")
        pattern, registers_of = cls._decoder(table)
        payload = data[offset + 2 * arg :]
        bits = format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")
        registers = b"".join(map(registers_of.__getitem__, pattern.findall(bits)))
        if len(registers) < count:
            raise SynopsisError(
                f"HBS frame exhausted after {len(registers)}/{count} registers"
            )
        return array("B", registers[:count])

    @classmethod
    @lru_cache(maxsize=256)
    def _decoder(cls, table: bytes) -> "tuple[re.Pattern[str], dict[str, bytes]]":
        """A frame's symbol table as (regex, match -> registers).

        The regex splits a bit string into codewords, taking up to
        ``_RUN`` repeats of the shortest codeword (the commonest
        register value) as one match: a small component's sketch is
        mostly zeros, and ``findall`` costs per match, not per bit.

        Memoised: the table is a pure function of the register
        histogram's shape, and sketches of like-sized components share
        it (184 distinct tables in 1 812 frames of a ``feed_churn`` run).
        """
        symbols = table[0::2]
        if len(symbols) < 2 or any(a >= b for a, b in zip(symbols, symbols[1:])):
            raise SynopsisError("HBS symbol table is not strictly ascending")
        lengths = dict(zip(symbols, table[1::2]))
        # A Huffman code is complete (Kraft sum exactly 1): then every
        # bit string splits into codewords with no bit skipped, which
        # is what lets one regex pass stand in for the bit walk.
        longest = max(lengths.values())
        if 0 in lengths.values() or (
            sum(1 << (longest - length) for length in lengths.values())
            != 1 << longest
        ):
            raise SynopsisError("HBS code lengths are not a complete prefix code")
        registers_of = {
            code: bytes((symbol,)) for symbol, code in cls._code_bits(lengths).items()
        }
        shortest, *others = registers_of  # canonical: (length, symbol) order
        for repeats in range(2, cls._RUN + 1):
            registers_of[shortest * repeats] = registers_of[shortest] * repeats
        pattern = f"(?:{shortest}){{1,{cls._RUN}}}|" + "|".join(others)
        return re.compile(pattern), registers_of

    @staticmethod
    def _code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
        """Huffman code lengths with deterministic tie-breaking.

        The heap orders by (frequency, smallest contained symbol); the
        resulting *lengths* feed the canonical assignment, so any
        residual tree ambiguity cannot reach the wire.
        """
        heap: list[tuple[int, int, list[int]]] = [
            (frequency, symbol, [symbol])
            for symbol, frequency in frequencies.items()
        ]
        heapq.heapify(heap)
        lengths = dict.fromkeys(frequencies, 0)
        while len(heap) > 1:
            freq_a, tie_a, symbols_a = heapq.heappop(heap)
            freq_b, tie_b, symbols_b = heapq.heappop(heap)
            for symbol in symbols_a + symbols_b:
                lengths[symbol] += 1
            heapq.heappush(
                heap,
                (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b),
            )
        return lengths

    @staticmethod
    def _code_bits(lengths: dict[int, int]) -> dict[int, str]:
        """Canonical codewords as bit strings: assigned in (length,
        symbol) order."""
        code = 0
        previous_length = 0
        codes: dict[int, str] = {}
        for symbol in sorted(lengths, key=lambda s: (lengths[s], s)):
            length = lengths[symbol]
            code <<= length - previous_length
            codes[symbol] = format(code, f"0{length}b")
            code += 1
            previous_length = length
        return codes


def _check_register_budget(budget: int) -> int:
    """Validate a register-count budget; returns the precision ``p``."""
    if budget < 2 or budget & (budget - 1):
        raise SynopsisError(
            f"hll budget is the register count 2**p and must be a power "
            f"of two >= 2, got {budget}"
        )
    return budget.bit_length() - 1


class HyperLogLogSynopsis(Synopsis):
    """An immutable HyperLogLog sketch of one value stream's NDV."""

    synopsis_type = SynopsisType.HLL_SKETCH

    def __init__(
        self,
        domain: Domain,
        budget: int,
        registers: "array[int]",
        total_count: int,
        hash_seed: int = DEFAULT_HASH_SEED,
    ) -> None:
        precision = _check_register_budget(budget)
        if len(registers) != budget:
            raise SynopsisError(
                f"{len(registers)} registers do not match budget {budget}"
            )
        super().__init__(domain, budget, total_count)
        self.precision = precision
        self.hash_seed = hash_seed
        self.registers = registers
        # Registers are immutable once built, so both are computed
        # once: the wire form (one to_payload per network publish *and*
        # per catalog dedup comparison) and the NDV estimate (every
        # cache hit of the estimator's NDV lane).
        self._encoded: bytes | None = None
        self._cardinality: float | None = None

    @property
    def element_count(self) -> int:
        return self.budget

    def register_bytes(self) -> int:
        """Dense (resident) register size: one byte per register."""
        return self.budget

    def encoded_bytes(self) -> int:
        """Size of the HBS-compressed wire form."""
        return len(self._encode())

    def payload_bytes(self) -> int:
        """Resident size: one byte per register plus the fixed header
        (catalog/cache accounting uses the dense form it holds)."""
        return 32 + self.budget

    def cardinality(self) -> float:
        """The bias-corrected NDV estimate over the observed stream."""
        if self._cardinality is None:
            self._cardinality = self._estimate_cardinality()
        return self._cardinality

    def _estimate_cardinality(self) -> float:
        m = self.budget
        harmonic = 0.0
        zeros = 0
        for register in self.registers:
            harmonic += 2.0 ** -register
            if register == 0:
                zeros += 1
        raw = _alpha(m) * m * m / harmonic
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # small-range linear counting
        if raw > _TWO64 / 30.0:
            return -_TWO64 * math.log1p(-raw / _TWO64)  # large-range
        return raw

    def estimate(self, lo: int, hi: int) -> float:
        """Distinct values expected in ``[lo, hi]`` under uniformity.

        The sketch has no positional information, so the range answer
        scales the NDV estimate by the range's share of the domain --
        an explicitly weaker contract than the histogram families'
        record counts (docs/SKETCHES.md).
        """
        clipped = self.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        lo, hi = clipped
        span = self.domain.hi - self.domain.lo + 1
        return self.cardinality() * ((hi - lo + 1) / span)

    def _merge_all(self, others: Sequence[Synopsis]) -> "HyperLogLogSynopsis":
        """Register union of ``self`` and every other sketch at once.

        Element-wise max is exactly associative, so this equals any
        fold of pairwise unions; register files are flat byte buffers,
        so each input is one vectorised ``maximum`` into one fresh array.
        """
        total_count = self.total_count
        for other in others:
            if other.hash_seed != self.hash_seed:
                raise MergeabilityError(
                    "cannot union hll sketches built with different hash seeds"
                )
            total_count += other.total_count
        merged = array("B", self.registers)
        union = np.frombuffer(merged, dtype=np.uint8)
        for other in others:
            np.maximum(
                union, np.frombuffer(other.registers, dtype=np.uint8), out=union
            )
        return HyperLogLogSynopsis(
            self.domain, self.budget, merged, total_count, self.hash_seed
        )

    def _encode(self) -> bytes:
        if self._encoded is None:
            self._encoded = HBSCodec.encode(self.registers)
        return self._encoded

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.synopsis_type.value,
            "domain": [self.domain.lo, self.domain.hi],
            "budget": self.budget,
            "total_count": self.total_count,
            "seed": self.hash_seed,
            "hbs": self._encode(),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "HyperLogLogSynopsis":
        """Inverse of :meth:`to_payload` (decodes the HBS frame)."""
        budget = payload["budget"]
        registers = HBSCodec.decode(payload["hbs"], budget)
        return cls(
            Domain(*payload["domain"]),
            budget,
            registers,
            payload["total_count"],
            payload["seed"],
        )


class HyperLogLogBuilder(SynopsisBuilder):
    """Streaming HLL construction; tolerates arbitrary input order."""

    requires_sorted_input = False

    def __init__(
        self,
        domain: Domain,
        budget: int,
        hash_seed: int = DEFAULT_HASH_SEED,
    ) -> None:
        precision = _check_register_budget(budget)
        super().__init__(domain, budget)
        self.precision = precision
        self.hash_seed = hash_seed
        self._registers = array("B", bytes(budget))
        self._value_bits = 64 - precision
        self._value_mask = (1 << self._value_bits) - 1

    def memory_bytes(self) -> int:
        """One byte per register plus a fixed header -- the dense
        array *is* the whole working set."""
        return 64 + self.budget

    def _add_many(self, values: Sequence[int]) -> None:
        """Register update.

        The loop inlines :func:`hash64` (the identical 64-bit integer
        arithmetic; ``test_hll`` holds the two together) and updates
        registers through an order-insensitive max, so every chunking
        of a stream is register-identical -- the oracle property the
        test battery asserts.
        """
        seed = self.hash_seed
        registers = self._registers
        value_bits = self._value_bits
        value_mask = self._value_mask
        for value in values:
            x = (value + seed) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            x ^= x >> 31
            index = x >> value_bits
            w = x & value_mask
            rank = value_bits - w.bit_length() + 1
            if rank > registers[index]:
                registers[index] = rank
        self._count += len(values)

    def _build(self) -> HyperLogLogSynopsis:
        return HyperLogLogSynopsis(
            self.domain,
            self.budget,
            self._registers,
            self._count,
            self.hash_seed,
        )
