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
from two base hashes).
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable

from repro.errors import ConfigurationError

__all__ = ["BloomFilter"]


def _base_hashes(key: Any) -> tuple[int, int]:
    digest = hashlib.md5(repr(key).encode()).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1  # odd -> full cycle
    return h1, h2


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
        """Insert every key (the columnar write path's batch insert).

        Sets exactly the bits :meth:`add` would: the probe positions
        ``(h1 + i * h2) % num_bits`` are generated by incremental
        modular stepping (add ``h2 % num_bits``, subtract ``num_bits``
        on overflow), which avoids the per-probe big-int multiply and
        reduction on the md5 hashes while remaining arithmetically
        identical.
        """
        num_bits = self.num_bits
        num_hashes = self.num_hashes
        bits = self._bits
        added = 0
        for key in keys:
            h1, h2 = _base_hashes(key)
            position = h1 % num_bits
            step = h2 % num_bits
            for _i in range(num_hashes):
                bits[position >> 3] |= 1 << (position & 7)
                position += step
                if position >= num_bits:
                    position -= num_bits
            added += 1
        self.num_added += added

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
