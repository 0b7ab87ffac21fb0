"""Reference HyperLogLog kernels: one value, one register at a time.

``ReferenceHyperLogLogBuilder`` is the body
``repro.synopses.hll.HyperLogLogBuilder._add_many`` shipped until it
became a numpy splitmix64 kernel: :func:`hash64` inlined as Python
big-int arithmetic masked to 64 bits, the rank read off
``int.bit_length``, one register compared and stored per value.
:func:`estimate_cardinality` is the scalar loop
``HyperLogLogSynopsis._estimate_cardinality`` ran until its harmonic
sum became one ``np.add.accumulate``.  Both stay here as the identity
oracles: the kernels must leave exactly these registers and return
exactly this float for every input (``test_hll.py``,
``test_readpath.py``).  Not performance-sensitive; do not optimise
them.
"""

import math

from repro.synopses.hll import _TWO64, HyperLogLogBuilder, _alpha

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


def estimate_cardinality(sketch):
    """The bias-corrected NDV estimate, one register per loop step: the
    harmonic sum runs left to right from ``0.0``."""
    m = sketch.budget
    harmonic = 0.0
    zeros = 0
    for register in sketch.registers:
        harmonic += 2.0 ** -register
        if register == 0:
            zeros += 1
    raw = _alpha(m) * m * m / harmonic
    if raw <= 2.5 * m and zeros:
        return m * math.log(m / zeros)  # small-range linear counting
    if raw > _TWO64 / 30.0:
        return -_TWO64 * math.log1p(-raw / _TWO64)  # large-range
    return raw
