"""The seeded splitmix64 finaliser: one scalar form, one column form.

Both users need a mix that is deterministic across platforms and
processes: crash recovery rebuilds HLL registers (``synopses/hll.py``)
and Bloom filters (``lsm/bloom.py``) by rescanning components, and the
rebuilt state must equal the pre-crash one.  The column form runs the
same constants and shifts over a ``uint64`` array, whose arithmetic
wraps modulo 2**64 exactly like the scalar form's ``& MASK64``, so the
two agree word for word.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "splitmix64", "splitmix64_column"]

MASK64 = (1 << 64) - 1

_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_M1_U64, _M2_U64 = np.uint64(_M1), np.uint64(_M2)
_U27, _U30, _U31 = (np.uint64(n) for n in (27, 30, 31))


def splitmix64(value: int, seed: int) -> int:
    """Mix the integer ``value`` (taken modulo 2**64) with ``seed``."""
    x = (int(value) + seed) & MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def splitmix64_column(words: "np.ndarray", seed: int) -> "np.ndarray":
    """:func:`splitmix64` of every element of a ``uint64`` column (a
    new array; ``words`` is not modified)."""
    x = words + np.uint64(seed & MASK64)
    x ^= x >> _U30
    x *= _M1_U64
    x ^= x >> _U27
    x *= _M2_U64
    x ^= x >> _U31
    return x
