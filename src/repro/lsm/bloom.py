"""Bloom filters for LSM disk components.

Every LSM point lookup must consult components newest-to-oldest until
the key is found; without filters that is one random B-tree descent per
component.  AsterixDB (like most LSM engines) attaches a Bloom filter
to each disk component so lookups skip components that certainly do not
hold the key.  Here only the primary tree is point-probed (``Dataset.get``),
so only its components carry a filter; secondary trees are created with
``bloom_fpp=None``.  The filter is populated from the same bulkload stream
the statistics framework taps -- one more rider on the unified
``bulkload()`` routine, at zero extra I/O.

Implementation: a plain bit array with double hashing (Kirsch &
Mitzenmacher: ``h_i = h1 + i * h2`` gives k independent-enough probes
from two base hashes).  A key is hashed by value: an integer key is its
own 64-bit word (modulo 2**64), any other key (a composite tuple, a
string) the first eight bytes of ``md5(repr(key))``; the word is mixed
by the seeded splitmix64
finaliser (:mod:`repro.util.hashing`, the HLL hash), whose low and high
32 bits are ``h1`` and ``h2`` (made odd).  :meth:`BloomFilter.add_all`
does this for a whole typed key column in numpy, and sets exactly the
bits one :meth:`BloomFilter.add` per key would.
"""

from __future__ import annotations

import hashlib
import math
import operator
from array import array
from typing import Any, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.util.hashing import MASK64, splitmix64, splitmix64_column
from repro.util.npbackend import INT64_TYPECODE

__all__ = ["BloomFilter"]

_SEED = 0x2545F4914F6CDD1D  # any fixed seed; not the HLL sketches' one
_LOW32 = 0xFFFFFFFF
_LOW32_U64, _U32, _U3, _U7 = (np.uint64(n) for n in (_LOW32, 32, 3, 7))


def _key_word(key: Any) -> int:
    """The 64-bit word a key is hashed by (see the module docstring)."""
    try:
        return operator.index(key) & MASK64
    except TypeError:
        return int.from_bytes(hashlib.md5(repr(key).encode()).digest()[:8], "little")


def _base_hashes(key: Any) -> tuple[int, int]:
    mixed = splitmix64(_key_word(key), _SEED)
    return mixed & _LOW32, (mixed >> 32) | 1  # odd h2 -> full cycle


def _key_words(keys: Iterable[Any]) -> "np.ndarray":
    """:func:`_key_word` of every key as a ``uint64`` column; a typed
    ``array('q')`` column is read in place."""
    if not (isinstance(keys, array) and keys.typecode == INT64_TYPECODE):
        keys = list(keys)
        try:
            keys = array(INT64_TYPECODE, keys)
        except (TypeError, OverflowError):
            return np.array([_key_word(key) for key in keys], dtype=np.uint64)
    return np.frombuffer(keys, dtype=np.int64).view(np.uint64)


class BloomFilter:
    """A fixed-size Bloom filter over arbitrary hashable keys."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 1 or num_hashes < 1:
            raise ConfigurationError(
                f"invalid Bloom parameters bits={num_bits} hashes={num_hashes}"
            )
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(-(-num_bits // 8))
        self.num_added = 0

    @classmethod
    def for_capacity(cls, expected_keys: int, fpp: float = 0.01) -> "BloomFilter":
        """Size the filter for ``expected_keys`` at false-positive rate
        ``fpp`` (standard optimal-parameter formulas)."""
        if not 0.0 < fpp < 1.0:
            raise ConfigurationError(f"fpp must be in (0, 1), got {fpp}")
        expected_keys = max(1, expected_keys)
        num_bits = max(8, int(-expected_keys * math.log(fpp) / (math.log(2) ** 2)))
        num_hashes = max(1, round(num_bits / expected_keys * math.log(2)))
        return cls(num_bits, num_hashes)

    def add(self, key: Any) -> None:
        """Insert a key."""
        h1, h2 = _base_hashes(key)
        for i in range(self.num_hashes):
            position = (h1 + i * h2) % self.num_bits
            self._bits[position >> 3] |= 1 << (position & 7)
        self.num_added += 1

    def add_all(self, keys: Iterable[Any]) -> None:
        """Insert every key (the write path's batch insert): the probe
        positions of the whole column at once, as a ``(keys, hashes)``
        ``uint64`` matrix -- ``h1 + i * h2 < 2**32 * (hashes + 1)``
        never wraps -- OR-ed into the bit array in one ``np.bitwise_or.at``."""
        mixed = splitmix64_column(_key_words(keys), _SEED)
        if not len(mixed):
            return
        h1 = mixed & _LOW32_U64
        h2 = (mixed >> _U32) | np.uint64(1)
        steps = np.arange(self.num_hashes, dtype=np.uint64)
        positions = ((h1[:, None] + h2[:, None] * steps) % np.uint64(self.num_bits)).ravel()
        np.bitwise_or.at(
            np.frombuffer(self._bits, dtype=np.uint8),
            positions >> _U3,
            np.left_shift(1, positions & _U7).astype(np.uint8),
        )
        self.num_added += len(mixed)

    def might_contain(self, key: Any) -> bool:
        """False means definitely absent; True means possibly present."""
        h1, h2 = _base_hashes(key)
        for i in range(self.num_hashes):
            position = (h1 + i * h2) % self.num_bits
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def memory_bytes(self) -> int:
        """Accounted resident footprint (docs/MEMORY.md): the bit array
        plus a fixed object-header overhead.  O(1) -- the bit array's
        length never changes after construction."""
        return 64 + len(self._bits)

    def __contains__(self, key: Any) -> bool:
        return self.might_contain(key)
