"""Reference streaming Haar transform: an explicit stack of tuples.

This is Algorithm 1 written the obvious way -- a stack of ``(level, key,
average)`` entries, one ``_push`` per dyadic interval, one ``_emit`` per
sibling merge, ``normalized_weight`` per coefficient, every coefficient
offered to the ``BoundedMinHeap``.  It was the shipped transform until
``repro.synopses.wavelet.streaming`` became a kernel (a binary counter,
then level-at-a-time numpy); it stays here as the oracle that kernel
must equal float for float, heap order included
(``test_wavelet_streaming.py``).  Not performance-sensitive; do not
optimise it.
"""

from repro.errors import SynopsisError
from repro.synopses.wavelet.coefficient import (
    WaveletCoefficient,
    normalized_weight,
)
from repro.util.bounded_heap import BoundedMinHeap


class ReferenceWaveletTransform:
    """Same constructor, ``add`` and ``finish`` as the shipped transform."""

    def __init__(self, levels, budget=None, encode_prefix_sum=True):
        if levels < 0:
            raise SynopsisError(f"levels must be >= 0, got {levels}")
        self.levels = levels
        self.length = 1 << levels
        self.encode_prefix_sum = encode_prefix_sum
        self._heap = BoundedMinHeap(budget) if budget is not None else None
        self._kept = []  # used when budget is None
        # Stack entries are (level, key, average): the average over the
        # dyadic positions [key * 2^level, (key+1) * 2^level - 1].
        self._stack = []
        self._covered = 0  # positions transformed so far
        self._prefix = 0.0  # running sum of frequencies
        self._finished = False

    def add(self, position, frequency):
        if self._finished:
            raise SynopsisError("transform already finished")
        position = int(position)
        if not 0 <= position < self.length:
            raise SynopsisError(
                f"position {position} outside signal of length {self.length}"
            )
        if position < self._covered:
            raise SynopsisError(
                f"positions must be strictly increasing: {position} after "
                f"{self._covered - 1}"
            )
        self._fill_gap(position)
        self._prefix += frequency
        leaf_value = self._prefix if self.encode_prefix_sum else frequency
        self._push(0, position, leaf_value)
        self._covered += 1

    def finish(self):
        if self._finished:
            raise SynopsisError("transform already finished")
        self._finished = True
        self._fill_gap(self.length)
        assert len(self._stack) == 1 and self._stack[0][0] == self.levels
        overall_average = self._stack[0][2]
        self._emit(0, overall_average)
        if self._heap is not None:
            return list(self._heap.items())
        return self._kept

    def _fill_gap(self, end):
        """Cover ``[covered, end)`` with maximal aligned dyadic intervals."""
        fill_value = self._prefix if self.encode_prefix_sum else 0.0
        while self._covered < end:
            gap = end - self._covered
            if self._covered == 0:
                alignment = self.levels
            else:
                # Largest power of two dividing ``covered``.
                alignment = (self._covered & -self._covered).bit_length() - 1
            level = min(alignment, gap.bit_length() - 1)
            self._push(level, self._covered >> level, fill_value)
            self._covered += 1 << level

    def _push(self, level, key, average):
        """Push a completed dyadic interval; cascade sibling averaging."""
        self._stack.append((level, key, average))
        while len(self._stack) >= 2 and self._stack[-1][0] == self._stack[-2][0]:
            same_level, right_key, right_value = self._stack.pop()
            _level, left_key, left_value = self._stack.pop()
            assert left_key + 1 == right_key and left_key % 2 == 0
            parent_level = same_level + 1
            detail = (right_value - left_value) / 2.0
            index = (1 << (self.levels - parent_level)) + (right_key >> 1)
            self._emit(index, detail)
            self._stack.append(
                (parent_level, right_key >> 1, (left_value + right_value) / 2.0)
            )

    def _emit(self, index, value):
        if value == 0.0:
            return  # zero coefficients never survive thresholding
        coefficient = WaveletCoefficient(index, value)
        if self._heap is not None:
            self._heap.add(normalized_weight(index, value, self.levels), coefficient)
        else:
            self._kept.append(coefficient)
