"""Reference Bloom filter: every key hashed by ``md5(repr(key))``.

This was the shipped filter until ``repro.lsm.bloom`` hashed keys by
value (an int64 key is its own word, mixed by splitmix64) so a typed key
column is inserted in numpy.  The two set different bits -- Bloom bits
are in no payload and not in ``verify.image`` -- so this is not a
bit-identity oracle: it is the false-positive baseline the shipped
filter is measured against at the same sizing (``test_bloom.py``).
Not performance-sensitive; do not optimise it.
"""

import hashlib

from repro.lsm.bloom import BloomFilter


class Md5BloomFilter:
    """Same sizing and probe sequence as :class:`BloomFilter`; only the
    base hashes differ."""

    def __init__(self, num_bits, num_hashes):
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(-(-num_bits // 8))

    @classmethod
    def for_capacity(cls, expected_keys, fpp=0.01):
        sized = BloomFilter.for_capacity(expected_keys, fpp)
        return cls(sized.num_bits, sized.num_hashes)

    def _positions(self, key):
        digest = hashlib.md5(repr(key).encode()).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        return [(h1 + i * h2) % self.num_bits for i in range(self.num_hashes)]

    def add(self, key):
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)

    def might_contain(self, key):
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._positions(key)
        )
