"""Streaming prefix-sum Haar decomposition (the paper's Algorithm 1),
computed one resolution level at a time.

The classic decomposition allocates arrays as long as the value domain
-- hopeless for 64-bit domains.  Algorithm 1 instead streams the sorted
``(position, frequency)`` tuples, covers each gap between them with
maximal dyadic intervals whose subtrees are internally constant, and
keeps the ``B`` heaviest coefficients in a bounded priority queue.  This
module computes exactly the coefficients Algorithm 1 offers to that
queue, and offers the ones the queue can admit in the same order, but
walks the error tree a level at a time over the whole sorted column.

**Which blocks carry work.**  The transformed signal (the running prefix
sum of the frequencies -- the "dense datacube" of Section 3.2 -- or, for
the ablation baseline, the raw frequencies) is piecewise constant: it
only changes at input positions.  At level ``l`` call a block of
``2^l`` positions *explicit* when it holds an input position.  Every
other block is constant, so its average is that constant and its detail
is zero: exactly the dyadic gap intervals Algorithm 1 pushes without
ever materialising their subtrees.  The explicit blocks of level
``l + 1`` are the distinct ``key >> 1`` of those of level ``l``; a block
whose sibling is not explicit pairs with a constant -- the signal value
right after its last input position (a missing right sibling) or right
before its first (a missing left sibling).  Each level is a handful of
numpy operations over at most ``n`` blocks; once a single block is left,
the rest of the path to the root is a scalar loop.

**Same floats.**  Every explicit block's detail and average are
``(right - left) / 2.0`` and ``(left + right) / 2.0`` of the same two
floats Algorithm 1 (and the classic transform) combines, and elementwise
float64 numpy arithmetic is IEEE arithmetic, as Python's floats are.
The prefix sums are ``np.cumsum``, a sequential accumulation like
Algorithm 1's running ``prefix += frequency``.  A coefficient's weight
is ``abs(value) * 2.0 ** (level / 2.0)``, the expression
:func:`~repro.synopses.wavelet.coefficient.normalized_weight` evaluates.

**Same queue.**  Algorithm 1 emits a detail when its block is complete,
so coefficients reach the queue ordered by the last position their block
covers, finer levels first among blocks ending together.  Blocks ordered
by the last *input* position they hold are ordered the same way (the
next input position lies beyond the earlier block), so the stream rank
of a coefficient is ``(index of its block's last input position,
level)``; the overall average comes last.  A full
:class:`BoundedMinHeap` rejects every weight ``<=`` its minimum, which
is the ``B``-th largest weight offered so far.  So the stream is cut
into segments of input positions, and a histogram of the weights in
earlier segments yields, per segment, a weight that at least ``B``
earlier coefficients reach: no coefficient at or below it can be
admitted.  Dropping those only skips offers the heap would refuse, and
refused offers change neither its contents nor the relative insertion
order its ties are broken by; the survivors are offered to the heap in
stream rank.  The retained set, its values and the order ``finish``
returns them in are therefore those of offering every coefficient --
``tests/synopses/reference_wavelet.py`` keeps the tuple-stack transform
as the oracle, and a property test compares the two exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SynopsisError
from repro.synopses.wavelet.coefficient import WaveletCoefficient
from repro.util.bounded_heap import BoundedMinHeap

__all__ = ["StreamingWaveletTransform", "top_coefficients"]

_ONE = np.uint64(1)
# Heap-floor histogram: about 2^8 stream segments; weight bins of a
# float64's exponent and top two mantissa bits (4 per octave), over the
# 40 octaves below the heaviest weight (lighter ones share bin 0).
_SEGMENT_BITS = 8
_BIN_SHIFT = 50
_WEIGHT_BINS = 160


class StreamingWaveletTransform:
    """One-pass Haar transform of a sparse, sorted frequency stream.

    Args:
        levels: ``log2`` of the (padded) domain length, at most 64.
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
        if not 0 <= levels <= 64:
            raise SynopsisError(f"levels must be in [0, 64], got {levels}")
        self.levels = levels
        self.length = 1 << levels
        self.budget = budget
        self.encode_prefix_sum = encode_prefix_sum
        self._positions: list[int] = []
        self._frequencies: list[float] = []
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
        if self._positions and position <= self._positions[-1]:
            raise SynopsisError(
                f"positions must be strictly increasing: {position} after "
                f"{self._positions[-1]}"
            )
        self._positions.append(position)
        self._frequencies.append(float(frequency))

    def finish(self) -> list[WaveletCoefficient]:
        """Close the transform and return the retained coefficients
        (lines 7-9 of Algorithm 1: the tail of the domain carries the
        final prefix value, and the overall average joins the queue)."""
        if self._finished:
            raise SynopsisError("transform already finished")
        self._finished = True
        kept = top_coefficients(
            self.levels,
            np.array(self._positions, dtype=np.uint64),
            np.array(self._frequencies, dtype=np.float64),
            self.budget,
            self.encode_prefix_sum,
        )
        return [WaveletCoefficient(index, value) for index, value in kept]


def top_coefficients(
    levels: int,
    positions: "np.ndarray",
    frequencies: "np.ndarray | Sequence[float]",
    budget: int | None = None,
    encode_prefix_sum: bool = True,
) -> list[tuple[int, float]]:
    """The ``(index, value)`` of every coefficient
    :class:`StreamingWaveletTransform` retains, in its order, for the
    strictly increasing ``uint64`` ``positions`` (all below
    ``2**levels``) with their ``frequencies`` -- the kernel itself, for
    callers that hold the whole column (the module docstring has the
    method and why it is exact)."""
    count = len(positions)
    if count == 0:
        return []
    keys = positions
    averages = np.asarray(frequencies, dtype=np.float64)
    if encode_prefix_sum:
        averages = np.cumsum(averages)
        after = averages  # the signal right after each input position
        before = np.concatenate(([0.0], averages[:-1]))  # ... right before
    else:
        after = before = np.zeros(count)
    weights = [2.0 ** (level / 2.0) for level in range(levels + 1)]
    last = np.arange(count)  # each explicit block's last input index
    details: list[np.ndarray] = []
    lasts: list[np.ndarray] = []
    heaviness: list[np.ndarray] = []
    level = 0
    while level < levels and len(keys) > 1:
        level += 1
        parents = keys >> _ONE
        siblings = parents[1:] == parents[:-1]
        if siblings.any():
            first = np.flatnonzero(np.concatenate(([True], ~siblings)))
            final = np.empty_like(first)
            final[:-1] = first[1:] - 1
            final[-1] = len(keys) - 1
            # An odd first key is a right child without its left
            # sibling; an even final key a left child without its right.
            left = np.where(keys[first] & _ONE, before[first], averages[first])
            right = np.where(keys[final] & _ONE, averages[final], after[final])
            keys, before, after = parents[first], before[first], after[final]
            last = last[final]
        else:
            is_right = (keys & _ONE).astype(bool)
            left = np.where(is_right, before, averages)
            right = np.where(is_right, averages, after)
            keys = parents
        detail = (right - left) / 2.0
        averages = (left + right) / 2.0
        details.append(detail)
        lasts.append(last)
        heaviness.append(np.abs(detail) * weights[level])
    per_level = [len(detail) for detail in details]
    # One block left: the rest of its path to the root, in scalars.
    average = float(averages[0])
    key = int(keys[0])
    left_fill, right_fill = float(before[0]), float(after[0])
    tail_details, tail_weights = [], []
    while level < levels:
        level += 1
        left, right = (left_fill, average) if key & 1 else (average, right_fill)
        tail_details.append((right - left) / 2.0)
        tail_weights.append(abs(tail_details[-1]) * weights[level])
        average = (left + right) / 2.0
        key >>= 1
    if tail_details:
        details.append(np.array(tail_details))
        lasts.append(np.full(len(tail_details), count - 1))
        heaviness.append(np.array(tail_weights))
        per_level += [1] * len(tail_details)

    detail = np.concatenate(details) if details else np.zeros(0)
    last = np.concatenate(lasts) if lasts else np.zeros(0, dtype=np.intp)
    weight = np.concatenate(heaviness) if heaviness else np.zeros(0)
    if budget is not None and len(weight) > budget:
        shift = max(0, (count - 1).bit_length() - _SEGMENT_BITS)
        segment = last >> shift
        floors = _heap_floors(weight, segment, budget, ((count - 1) >> shift) + 1)
        offered = np.flatnonzero(weight > floors[segment])
    else:
        offered = np.flatnonzero(detail)
    level_of = np.searchsorted(np.cumsum(per_level), offered, side="right") + 1
    order = np.argsort((last[offered] << 7) | level_of)
    offered, level_of = offered[order], level_of[order].astype(np.uint64)
    indices = (_ONE << (np.uint64(levels) - level_of)) + (
        (positions[last[offered]] >> (level_of - _ONE)) >> _ONE
    )
    heft = weight[offered].tolist()
    stream = list(zip(indices.tolist(), detail[offered].tolist()))
    if average != 0.0:
        heft.append(abs(average) * weights[levels])
        stream.append((0, average))
    if budget is None:
        return stream
    heap = BoundedMinHeap(budget)
    heap.add_all(zip(heft, stream))
    return list(heap.items())


def _heap_floors(
    weight: "np.ndarray", segment: "np.ndarray", budget: int, segments: int
) -> "np.ndarray":
    """Per stream segment, a weight at least ``budget`` coefficients of
    earlier segments reach (``0.0`` where there are not that many): the
    full heap's minimum is at least this much throughout the segment.

    Non-negative float64s order like their bit patterns, so ``bits >>
    _BIN_SHIFT`` bins weights monotonically and a bin's lower edge is
    the float of its first bit pattern; bin 0 also takes everything
    lighter (zero details included) and its edge is ``0.0``.
    """
    bits = weight.view(np.int64) >> _BIN_SHIFT
    top = int(bits.max())
    low = top - _WEIGHT_BINS + 1
    bins = np.maximum(bits - low, 0)
    table = np.bincount(
        segment * _WEIGHT_BINS + bins, minlength=segments * _WEIGHT_BINS
    ).reshape(segments, _WEIGHT_BINS)
    earlier = np.cumsum(table, axis=0) - table
    reaching = np.cumsum(earlier[:, ::-1], axis=1)[:, ::-1]  # bin >= b
    best = np.count_nonzero(reaching >= budget, axis=1) - 1
    edges = (np.maximum(np.arange(low, top + 1), 0) << _BIN_SHIFT).view(np.float64)
    edges[0] = 0.0
    return np.where(best >= 0, edges[best], 0.0)
