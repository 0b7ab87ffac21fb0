"""Streaming prefix-sum Haar decomposition (the paper's Algorithm 1).

The classic decomposition allocates arrays as long as the value domain
-- hopeless for 64-bit domains.  Algorithm 1 instead streams the sorted
``(position, frequency)`` tuples and maintains:

* a *stack of partial averages*, one per resolution level, holding the
  averages of the completed dyadic intervals on the current root-to-
  leaf path of the error tree (levels strictly decrease downwards, so
  the stack depth is at most ``logM``);
* a *bounded priority queue* retaining only the ``B`` most significant
  coefficients by normalized weight.

Because the transform encodes the *prefix sum* of the frequency signal
(the "dense datacube" trick of Section 3.2), the gaps between sparse
input positions carry the constant current prefix.  Each gap is covered
greedily by maximal aligned dyadic intervals -- the paper's
``calcDyadicIntervals`` -- each contributing a single stack entry whose
subtree is internally constant (all its interior detail coefficients
are zero and need never be materialised).  The total work is
``O(n logM)`` for ``n`` distinct positions, independent of the domain
length.

**The stack is a binary counter.**  Its entries tile ``[0, covered)``
with aligned dyadic blocks of strictly decreasing size, and there is
exactly one such tiling: the binary expansion of ``covered``.  So "a
level-``l`` entry is on the stack" *is* "bit ``l`` of ``covered`` is
set", the stack is one ``averages[level]`` list, pushing a block is
incrementing the counter, and the cascade of sibling merges is the carry
rippling through a run of set bits.  Nothing about the arithmetic
changes with that representation: each merge still computes
``(right - left) / 2.0`` and ``(left + right) / 2.0`` from the same two
floats, and merges still happen in stream order.

**Thresholding drops early, never differently.**  A coefficient's weight
is ``abs(value) * 2.0 ** (level / 2.0)`` -- the expression
:func:`~repro.synopses.wavelet.coefficient.normalized_weight` evaluates,
tabulated per level, so the same floats.  :class:`BoundedMinHeap`, once
full, rejects an item whose weight is ``<=`` its minimum; the kernel
makes that same comparison against the cached ``min_weight()`` before
building the coefficient object.  What it skips the heap would have
rejected, and the heap orders ties by insertion *rank*, which skipping
rejected items leaves unchanged among the admitted ones -- so the
retained set, its values and even the order ``finish`` returns them in
are those of offering every coefficient to the heap.

The output is therefore bit-for-bit the coefficient set of the
tuple-stack formulation (kept as ``tests/synopses/reference_wavelet.py``
and compared exactly by a property test), and equal to
:func:`repro.synopses.wavelet.classic.classic_decompose` applied to the
full prefix-sum signal, which the test suite also checks.
"""

from __future__ import annotations

from repro.errors import SynopsisError
from repro.synopses.wavelet.coefficient import WaveletCoefficient
from repro.util.bounded_heap import BoundedMinHeap

__all__ = ["StreamingWaveletTransform"]


class StreamingWaveletTransform:
    """One-pass Haar transform of a sparse, sorted frequency stream.

    Args:
        levels: ``log2`` of the (padded) domain length.
        budget: Retain only the ``budget`` heaviest coefficients, or
            ``None`` to keep every non-zero coefficient (used by the
            equivalence tests and by ground-truth tooling).
        encode_prefix_sum: ``True`` (the paper's default) transforms the
            running prefix sum of the frequencies -- the "dense
            datacube" optimisation; ``False`` transforms the raw sparse
            frequency signal itself (the ablation baseline the paper
            argues against in Section 3.2).
    """

    def __init__(
        self,
        levels: int,
        budget: int | None = None,
        encode_prefix_sum: bool = True,
    ) -> None:
        if levels < 0:
            raise SynopsisError(f"levels must be >= 0, got {levels}")
        self.levels = levels
        self.length = 1 << levels
        self.encode_prefix_sum = encode_prefix_sum
        self._heap = BoundedMinHeap(budget) if budget is not None else None
        self._kept: list[WaveletCoefficient] = []  # used when budget is None
        # The binary counter: ``_averages[level]`` is live exactly when
        # bit ``level`` of ``_covered`` is set, and then holds the average
        # over the aligned block of ``2^level`` positions ending where the
        # lower set bits of ``_covered`` begin.
        self._averages = [0.0] * (levels + 1)
        self._covered = 0  # positions transformed so far
        self._prefix = 0.0  # running sum of frequencies
        # ``normalized_weight``'s own expression, once per level.
        self._weights = [2.0 ** (level / 2.0) for level in range(levels + 1)]
        # The heap's minimum weight once it is full; until then (and
        # always when there is no budget) no weight is this low.
        self._threshold = -1.0
        self._finished = False

    def add(self, position: int, frequency: float) -> None:
        """Feed the next distinct position (strictly increasing)."""
        if self._finished:
            raise SynopsisError("transform already finished")
        position = int(position)  # normalise numpy integer scalars
        if not 0 <= position < self.length:
            raise SynopsisError(
                f"position {position} outside signal of length {self.length}"
            )
        if position < self._covered:
            raise SynopsisError(
                f"positions must be strictly increasing: {position} after "
                f"{self._covered - 1}"
            )
        # The gap before this tuple carries the unchanged prefix sum
        # (or zeros, in raw-frequency mode).
        if self._covered < position:
            self._fill_gap(position)
        self._prefix += frequency
        leaf_value = self._prefix if self.encode_prefix_sum else frequency
        # ``end`` right behind the leaf: no fill block follows it.
        self._carry(0, leaf_value, position + 1, 0.0)

    def finish(self) -> list[WaveletCoefficient]:
        """Close the transform and return the retained coefficients.

        Mirrors lines 7-9 of Algorithm 1: the tail of the domain is
        filled with the final prefix value, and the overall average --
        itself a valid coefficient -- joins the priority queue.
        """
        if self._finished:
            raise SynopsisError("transform already finished")
        self._finished = True
        self._fill_gap(self.length)
        overall_average = self._averages[self.levels]
        if overall_average != 0.0:
            self._admit(
                abs(overall_average) * self._weights[self.levels],
                0,
                overall_average,
            )
        if self._heap is not None:
            return list(self._heap.items())
        return self._kept

    # -- internals ---------------------------------------------------------

    def _fill_gap(self, end: int) -> None:
        """Cover positions ``[covered, end)`` -- all holding the current
        prefix value (zero in raw-frequency mode) -- with maximal
        aligned dyadic intervals (the paper's ``calcDyadicIntervals``).

        Ascending phase: while the block aligned at the lowest set bit
        of ``covered`` fits in the gap it is the maximal interval, and
        being the right sibling of the live entry at that level it
        carries (:meth:`_carry` keeps going until one no longer fits).
        Descending phase: what is left of the gap is shorter than
        ``covered``'s alignment, so its blocks -- one per set bit of the
        remainder -- have no left sibling yet and are plain stores.
        """
        fill_value = self._prefix if self.encode_prefix_sum else 0.0
        covered = self._covered
        if covered:
            lowest = covered & -covered
            if covered + lowest <= end:
                self._carry(lowest.bit_length() - 1, fill_value, end, fill_value)
                covered = self._covered
        averages = self._averages
        remainder = end - covered
        while remainder:
            lowest = remainder & -remainder
            averages[lowest.bit_length() - 1] = fill_value
            remainder ^= lowest
        self._covered = end

    def _carry(
        self, level: int, average: float, end: int, fill_value: float
    ) -> None:
        """Add the block of ``2^level`` positions at ``covered`` (which
        is aligned to it), then ``fill_value`` blocks for as long as the
        ascending phase of a gap ending at ``end`` lasts.

        Incrementing the counter: every set bit from ``level`` up is a
        live left sibling; averaging with it emits their detail
        coefficient and carries into the next level (the paper's
        "domino effect", Figure 1b) until a clear bit takes the result.
        That bit is now the lowest one set, so if a fill block of the
        same size still fits before ``end`` it is the next maximal
        interval and the right sibling of what was just stored: the
        same walk continues from there.
        """
        covered = self._covered
        averages = self._averages
        weights = self._weights
        threshold = self._threshold
        top = self.levels
        bit = 1 << level
        while True:
            added = bit
            while covered & bit:
                left = averages[level]
                level += 1
                bit <<= 1
                detail = (average - left) / 2.0
                average = (left + average) / 2.0
                if detail == 0.0:
                    continue  # zero coefficients never survive thresholding
                weight = abs(detail) * weights[level]
                if weight <= threshold:
                    continue  # lighter than all a full heap retains
                self._admit(
                    weight, (1 << (top - level)) + (covered >> level), detail
                )
                threshold = self._threshold
            averages[level] = average
            covered += added
            if covered + bit > end:
                break
            average = fill_value
        self._covered = covered

    def _admit(self, weight: float, index: int, value: float) -> None:
        """Offer a non-zero coefficient to the heap (or keep it, when
        there is no budget) and refresh the cached threshold."""
        coefficient = WaveletCoefficient(index, value)
        heap = self._heap
        if heap is None:
            self._kept.append(coefficient)
            return
        heap.add(weight, coefficient)
        if len(heap) == heap.capacity:
            self._threshold = heap.min_weight()
