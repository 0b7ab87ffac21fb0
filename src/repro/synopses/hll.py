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
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import DomainError, MergeabilityError, SynopsisError
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType, payload_domain
from repro.types import Domain
from repro.util.hashing import splitmix64, splitmix64_column

__all__ = [
    "DEFAULT_HASH_SEED",
    "HBSCodec",
    "HyperLogLogSynopsis",
    "HyperLogLogBuilder",
    "hash64",
    "ndv_statistics_key",
]

_TWO64 = float(1 << 64)
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_BYTES = [bytes((byte,)) for byte in range(256)]
_PLACEHOLDERS = bytes(byte for byte in range(256) if byte not in b"01")
"""Bytes that stand in for a register until its codeword replaces it."""
_PLACEHOLDER_BYTES = [_BYTES[byte] for byte in _PLACEHOLDERS]

_POWERS_OF_TWO = np.array([1 << k for k in range(64)], dtype=np.uint64)
_HARMONIC_TERMS = np.ldexp(1.0, -np.arange(256))
"""``2.0 ** -r`` for every register value ``r`` (exact: powers of two)."""

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
    return splitmix64(value, seed)


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
        # bytes methods only, no numpy: numpy called from the
        # maintenance threads cost htap_openloop ~12 MiB of peak RSS.
        raw = bytes(registers)
        count = len(raw)
        if not raw or raw.count(raw[0]) == count:
            return cls._HEADER.pack(cls._UNIFORM, count, raw[0] if raw else 0)
        # Registers are small ranks: count values upwards until every
        # register is accounted for (a C scan each, no per-register loop).
        frequencies: dict[int, int] = {}
        seen = 0
        for value in range(256):
            found = raw.count(value)
            if found:
                frequencies[value] = found
                seen += found
                if seen == count:
                    break
        table = bytes(
            chain.from_iterable(sorted(cls._code_lengths(frequencies).items()))
        )
        # One translate puts a placeholder byte on each register, one
        # replace per symbol swaps it for its codeword's ASCII bits.
        placeholders, codewords = cls._encoder(table)
        bits = raw.translate(placeholders)
        for placeholder, codeword in zip(_PLACEHOLDER_BYTES, codewords):
            bits = bits.replace(placeholder, codeword)
        bits += b"0" * (-len(bits) % 8)
        return (
            cls._HEADER.pack(cls._HUFFMAN, count, len(frequencies))
            + table
            + int(bits, 2).to_bytes(len(bits) // 8, "big")
        )

    @classmethod
    def decode(
        cls, data: bytes, register_count: int, max_register: int = 255
    ) -> "array[int]":
        """The ``register_count`` registers of an :meth:`encode` frame.

        The frame's own count must equal ``register_count`` (the budget
        the caller expects) -- checked before anything is sized by it,
        so a corrupt count is an error, never an allocation.  A frame
        naming a register value above ``max_register`` is refused too
        (a sketch's ranks stop at ``64 - p + 1``; the symbol table lists
        every value the frame holds).
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
            cls._check_register(arg, max_register)
            return array("B", bytes([arg]) * count)
        if frame != cls._HUFFMAN:
            raise SynopsisError(f"unknown HBS frame type {frame}")
        table = data[offset : offset + 2 * arg]
        if len(table) != 2 * arg:
            raise SynopsisError(f"truncated HBS symbol table ({arg} symbols)")
        pattern, ranks_of, symbols = cls._decoder(table)
        cls._check_register(max(table[0::2]), max_register)
        payload = data[offset + 2 * arg :]
        bits = format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")
        ranks = b"".join(map(ranks_of.__getitem__, pattern.findall(bits)))
        if len(ranks) < count:
            raise SynopsisError(
                f"HBS frame exhausted after {len(ranks)}/{count} registers"
            )
        return array("B", ranks[:count].translate(symbols))

    @staticmethod
    def _check_register(value: int, max_register: int) -> None:
        if value > max_register:
            raise SynopsisError(
                f"HBS frame holds register value {value}, above the "
                f"sketch's highest rank {max_register}"
            )

    @staticmethod
    def _ranks(table: bytes) -> bytes:
        """A symbol table's symbols in canonical (length, symbol) order:
        the rank of a symbol is its codeword's position in
        :meth:`_canonical` of the sorted lengths."""
        symbols, lengths = table[0::2], table[1::2]
        return bytes(
            symbols[i] for i in sorted(range(len(symbols)), key=lengths.__getitem__)
        )

    @classmethod
    @lru_cache(maxsize=256)
    def _encoder(cls, table: bytes) -> "tuple[bytes, tuple[bytes, ...]]":
        """A symbol table as (register -> placeholder translate table,
        codewords as ASCII bits in placeholder order).  Placeholders
        are any bytes but ``0`` and ``1``, so no replace can touch bits
        an earlier one wrote."""
        ranked = cls._ranks(table)
        if len(ranked) > len(_PLACEHOLDERS):
            raise SynopsisError(
                f"{len(ranked)} distinct register values; a sketch has at most "
                f"{len(_PLACEHOLDERS)}"
            )
        placeholders = bytearray(256)
        for symbol, placeholder in zip(ranked, _PLACEHOLDERS):
            placeholders[symbol] = placeholder
        codewords = cls._canonical(bytes(sorted(table[1::2])))
        return bytes(placeholders), tuple(code.encode() for code in codewords)

    @classmethod
    @lru_cache(maxsize=256)
    def _decoder(
        cls, table: bytes
    ) -> "tuple[re.Pattern[str], dict[str, bytes], bytes]":
        """A frame's symbol table as (regex, match -> ranks, rank ->
        register translate table).

        The regex splits a bit string into codewords, taking up to
        ``_RUN`` repeats of the shortest codeword (the commonest
        register value) as one match: a small component's sketch is
        mostly zeros, and ``findall`` costs per match, not per bit.
        Regex and rank map depend on the code lengths only, so tables
        of like-shaped sketches share them (24 length profiles under
        136 tables in ``estimate_mix``'s set-up ingest); a table adds
        one translate table.
        """
        symbols = table[0::2]
        if len(symbols) < 2 or any(a >= b for a, b in zip(symbols, symbols[1:])):
            raise SynopsisError("HBS symbol table is not strictly ascending")
        pattern, ranks_of = cls._parser(bytes(sorted(table[1::2])))
        ranked = cls._ranks(table)
        return pattern, ranks_of, ranked + bytes(256 - len(ranked))

    @classmethod
    @lru_cache(maxsize=256)
    def _parser(cls, lengths: bytes) -> "tuple[re.Pattern[str], dict[str, bytes]]":
        """The codeword regex and match -> ranks map of one canonical
        code, given its sorted code lengths."""
        # A Huffman code is complete (Kraft sum exactly 1): then every
        # bit string splits into codewords with no bit skipped, which
        # is what lets one regex pass stand in for the bit walk.
        longest = lengths[-1]
        if lengths[0] == 0 or (
            sum(1 << (longest - length) for length in lengths) != 1 << longest
        ):
            raise SynopsisError("HBS code lengths are not a complete prefix code")
        shortest, *others = codewords = cls._canonical(lengths)
        ranks_of = {code: _BYTES[rank] for rank, code in enumerate(codewords)}
        for repeats in range(2, cls._RUN + 1):
            ranks_of[shortest * repeats] = bytes(repeats)
        pattern = f"(?:{shortest}){{1,{cls._RUN}}}|" + "|".join(others)
        return re.compile(pattern), ranks_of

    @staticmethod
    def _code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
        """Huffman code lengths with deterministic tie-breaking.

        The heap orders by (frequency, smallest contained symbol); the
        resulting *lengths* feed the canonical assignment, so any
        residual tree ambiguity cannot reach the wire.  A symbol's
        length is its leaf's depth, read off the parent links.
        """
        symbols = list(frequencies)
        heap = [(frequencies[s], s, leaf) for leaf, s in enumerate(symbols)]
        heapq.heapify(heap)
        parent = [0] * (2 * len(symbols) - 1)
        node = len(symbols)
        while len(heap) > 1:
            freq_a, tie_a, a = heapq.heappop(heap)
            freq_b, tie_b, b = heapq.heappop(heap)
            parent[a] = parent[b] = node
            heapq.heappush(heap, (freq_a + freq_b, min(tie_a, tie_b), node))
            node += 1
        depth = [0] * node
        for child in range(node - 2, -1, -1):  # parents come after children
            depth[child] = depth[parent[child]] + 1
        return {symbol: depth[leaf] for leaf, symbol in enumerate(symbols)}

    @staticmethod
    @lru_cache(maxsize=256)
    def _canonical(lengths: bytes) -> "tuple[str, ...]":
        """Canonical codewords as bit strings for sorted code lengths:
        the i-th codeword belongs to the i-th symbol in (length, symbol)
        order."""
        code = 0
        previous_length = 0
        codes = []
        for length in lengths:
            code <<= length - previous_length
            codes.append(format(code, f"0{length}b"))
            code += 1
            previous_length = length
        return tuple(codes)


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
        """The raw estimator and its range corrections over one
        vectorised register pass.

        The harmonic sum ``sum(2.0 ** -register)`` is taken with
        ``np.add.accumulate``: a sequential left-to-right sum starting
        from the first term, the order of the scalar loop it replaced
        (``tests/synopses/reference_hll.py``), so the estimate is the
        same float.  Terms span ``2**-(64 - p + 1)`` to 1, so the order
        shows: ``np.sum``'s pairwise tree keeps tail terms a running
        sum rounds away.
        """
        m = self.budget
        registers = np.frombuffer(self.registers, dtype=np.uint8)
        harmonic = float(np.add.accumulate(_HARMONIC_TERMS[registers])[-1])
        zeros = m - int(np.count_nonzero(registers))
        raw = _alpha(m) * m * m / harmonic
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # small-range linear counting
        if raw >= _TWO64:
            # Past the hash space: the large-range correction's log1p
            # has no value here, and no count can exceed 2**64 anyway.
            return _TWO64
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
        so the inputs stack into one ``(n, m)`` matrix and the union is
        one ``max`` down its columns, into a fresh array.
        """
        if not set(map(attrgetter("hash_seed"), others)) <= {self.hash_seed}:
            raise MergeabilityError(
                "cannot union hll sketches built with different hash seeds"
            )
        stacked = np.frombuffer(
            b"".join([self.registers, *map(attrgetter("registers"), others)]),
            dtype=np.uint8,
        ).reshape(len(others) + 1, self.budget)
        return HyperLogLogSynopsis(
            self.domain,
            self.budget,
            array("B", stacked.max(axis=0).tobytes()),
            self.total_count + sum(map(attrgetter("total_count"), others)),
            self.hash_seed,
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
        precision = _check_register_budget(budget)
        registers = HBSCodec.decode(payload["hbs"], budget, 64 - precision + 1)
        return cls(
            payload_domain(payload["domain"]),
            budget,
            registers,
            payload["total_count"],
            payload["seed"],
        )


class HyperLogLogBuilder(SynopsisBuilder):
    """Streaming HLL construction; tolerates arbitrary input order.

    The register kernel hashes an int64 column, so the domain must fit
    int64; a wider one is refused here with a :class:`DomainError`
    rather than served by a second, scalar code path.
    """

    requires_sorted_input = False

    def __init__(
        self,
        domain: Domain,
        budget: int,
        hash_seed: int = DEFAULT_HASH_SEED,
    ) -> None:
        precision = _check_register_budget(budget)
        if domain.lo < _INT64_MIN or domain.hi > _INT64_MAX:
            raise DomainError(
                f"hll domain [{domain.lo}, {domain.hi}] does not fit int64"
            )
        super().__init__(domain, budget)
        self.precision = precision
        self.hash_seed = hash_seed
        self._registers = array("B", bytes(budget))
        self._value_bits = 64 - precision
        self._index_shift = np.uint64(self._value_bits)
        self._value_mask64 = np.uint64((1 << self._value_bits) - 1)

    def memory_bytes(self) -> int:
        """One byte per register plus a fixed header -- the dense
        array *is* the whole working set."""
        return 64 + self.budget

    def _add_many(self, values: Sequence[int]) -> None:
        """Register update: :func:`hash64` as a numpy kernel.

        :func:`~repro.util.hashing.splitmix64_column` mixes the whole
        int64 column word for word as :func:`hash64` mixes one value.
        The rank's ``bit_length`` is a binary search of the powers of
        two (integers only, no float rounding),
        and ``np.maximum.at`` folds every value into its register by an
        order-insensitive max, so every chunking of a stream is
        register-identical (``tests/synopses/reference_hll.py`` keeps
        the scalar loop as the oracle).
        """
        x = splitmix64_column(
            np.asarray(values, dtype=np.int64).view(np.uint64), self.hash_seed
        )
        index = (x >> self._index_shift).astype(np.intp)
        w = x & self._value_mask64
        # bit_length(w) is the number of powers of two at most w.
        bit_length = np.searchsorted(_POWERS_OF_TWO, w, side="right")
        rank = (self._value_bits + 1 - bit_length).astype(np.uint8)
        np.maximum.at(np.frombuffer(self._registers, dtype=np.uint8), index, rank)
        self._count += len(values)

    def _build(self) -> HyperLogLogSynopsis:
        return HyperLogLogSynopsis(
            self.domain,
            self.budget,
            self._registers,
            self._count,
            self.hash_seed,
        )
