"""Reference read path: the pairwise merges and per-bucket walks.

These are the bodies that shipped until the read path became kernels --
``HyperLogLogSynopsis._merge`` / ``EquiWidthHistogram._merge`` (one
fresh synopsis per pairwise step) and the ``estimate`` walks of
``EquiWidthHistogram`` (a ``bucket_range`` call per covered bucket) and
``BucketHistogram`` (every border, whatever the range).  They stay here
as the oracle the kernels must equal byte for byte and float for float
(``test_readpath.py``).  Not performance-sensitive; do not optimise
them.
"""

from array import array

from repro.errors import MergeabilityError
from repro.synopses.equi_width import EquiWidthHistogram
from repro.synopses.hll import HyperLogLogSynopsis


def merge_hll_pair(left, right):
    """The 2-ary register union, one Python-level ``max`` per register."""
    if right.hash_seed != left.hash_seed:
        raise MergeabilityError(
            "cannot union hll sketches built with different hash seeds"
        )
    merged = array("B", map(max, left.registers, right.registers))
    return HyperLogLogSynopsis(
        left.domain,
        left.budget,
        merged,
        left.total_count + right.total_count,
        left.hash_seed,
    )


def merge_equi_width_pair(left, right):
    """The 2-ary element-wise sum of bucket counts."""
    merged = [a + b for a, b in zip(left.counts, right.counts)]
    return EquiWidthHistogram(left.domain, left.budget, merged)


_PAIRWISE = {
    HyperLogLogSynopsis: merge_hll_pair,
    EquiWidthHistogram: merge_equi_width_pair,
}


def left_fold(first, rest):
    """``((first + r1) + r2) + ...``: one 2-ary merge per step, through
    the reference pair merge for the two kernel families and through the
    family's own 2-ary ``merge_with`` for every other."""
    merged = first
    for other in rest:
        pairwise = _PAIRWISE.get(type(merged))
        merged = (
            pairwise(merged, other)
            if pairwise is not None
            else merged.merge_with(other)
        )
    return merged


def estimate_equi_width(histogram, lo, hi):
    """Per-bucket walk: borders and overlap computed for every covered
    bucket, whole or partial."""
    clipped = histogram.domain.intersect(lo, hi)
    if clipped is None:
        return 0.0
    lo, hi = clipped
    first = (lo - histogram.domain.lo) // histogram.width
    last = (hi - histogram.domain.lo) // histogram.width
    total = 0.0
    for index in range(first, last + 1):
        bucket_lo, bucket_hi = histogram.bucket_range(index)
        overlap = min(hi, bucket_hi) - max(lo, bucket_lo) + 1
        bucket_len = bucket_hi - bucket_lo + 1
        total += histogram.counts[index] * (overlap / bucket_len)
    return max(total, 0.0)


def estimate_bucket_histogram(histogram, lo, hi):
    """Walk over every border of an equi-height / V-optimal / max-diff
    histogram, skipping the buckets the range misses."""
    clipped = histogram.domain.intersect(lo, hi)
    if clipped is None or not histogram.borders:
        return 0.0
    lo, hi = clipped
    total = 0.0
    left = histogram.first_left
    for border, count in zip(histogram.borders, histogram.counts):
        bucket_lo, bucket_hi = left + 1, border
        left = border
        overlap = min(hi, bucket_hi) - max(lo, bucket_lo) + 1
        if overlap <= 0:
            continue
        total += count * (overlap / (bucket_hi - bucket_lo + 1))
    return max(total, 0.0)
