"""Reference HyperLogLog register update: one value at a time.

This is the body ``repro.synopses.hll.HyperLogLogBuilder._add_many``
shipped until it became a numpy splitmix64 kernel: :func:`hash64`
inlined as Python big-int arithmetic masked to 64 bits, the rank read
off ``int.bit_length``, one register compared and stored per value.  It
stays here as the byte-identity oracle: the kernel must leave exactly
these registers for every input (``test_hll.py``).  Not
performance-sensitive; do not optimise it.
"""

from repro.synopses.hll import HyperLogLogBuilder

_MASK64 = (1 << 64) - 1


class ReferenceHyperLogLogBuilder(HyperLogLogBuilder):
    """The production builder with the scalar register loop swapped in
    (validation, domain guard and ``build`` are inherited)."""

    def _add_many(self, values):
        seed = self.hash_seed
        registers = self._registers
        value_bits = self._value_bits
        value_mask = (1 << value_bits) - 1
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
