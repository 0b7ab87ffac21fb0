"""Streaming transform tests: Algorithm 1 equals the classic transform,
and the binary-counter kernel equals the tuple-stack reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynopsisError
from repro.synopses.wavelet.classic import classic_decompose, prefix_sum_signal
from repro.synopses.wavelet.coefficient import (
    coefficient_level,
    normalized_weight,
    preorder_sort_key,
)
from repro.synopses.wavelet.streaming import StreamingWaveletTransform
from tests.synopses.reference_wavelet import ReferenceWaveletTransform


def _streaming_coefficients(tuples, levels, budget=None):
    transform = StreamingWaveletTransform(levels, budget)
    for position, frequency in tuples:
        transform.add(position, frequency)
    return {c.index: c.value for c in transform.finish()}


def _classic_coefficients(tuples, levels):
    length = 1 << levels
    frequencies = [0.0] * length
    for position, frequency in tuples:
        frequencies[position] = frequency
    return classic_decompose(prefix_sum_signal(frequencies, length))


class TestPaperFigure1:
    """X = [0 0 2 0 0 0 1 0]: the gap-filling example of Figure 1."""

    TUPLES = [(2, 2.0), (6, 1.0)]

    # Small integers over a power-of-two length: every average and
    # detail is a dyadic rational, so float arithmetic is exact and the
    # two algorithms must agree to the bit, not approximately.

    def test_matches_classic(self):
        assert _streaming_coefficients(self.TUPLES, 3) == _classic_coefficients(
            self.TUPLES, 3
        )

    def test_overall_average(self):
        # Prefix sum [0 0 2 2 2 2 3 3] has average 14/8 = 1.75.
        coefficients = _streaming_coefficients(self.TUPLES, 3)
        assert coefficients[0] == 1.75


class TestEdges:
    def test_empty_stream(self):
        assert _streaming_coefficients([], 4) == {}

    def test_single_position_at_start(self):
        assert _streaming_coefficients([(0, 5.0)], 2) == _classic_coefficients(
            [(0, 5.0)], 2
        )

    def test_single_position_at_end(self):
        assert _streaming_coefficients([(3, 5.0)], 2) == _classic_coefficients(
            [(3, 5.0)], 2
        )

    def test_levels_zero(self):
        assert _streaming_coefficients([(0, 7.0)], 0) == {0: 7.0}

    def test_dense_stream(self):
        tuples = [(i, float(i % 3)) for i in range(16)]
        assert _streaming_coefficients(tuples, 4) == _classic_coefficients(
            tuples, 4
        )

    def test_rejects_non_increasing_positions(self):
        transform = StreamingWaveletTransform(3)
        transform.add(4, 1.0)
        with pytest.raises(SynopsisError):
            transform.add(4, 1.0)
        with pytest.raises(SynopsisError):
            transform.add(2, 1.0)

    def test_rejects_out_of_range(self):
        transform = StreamingWaveletTransform(3)
        with pytest.raises(SynopsisError):
            transform.add(8, 1.0)
        with pytest.raises(SynopsisError):
            transform.add(-1, 1.0)

    def test_finish_is_single_use(self):
        transform = StreamingWaveletTransform(2)
        transform.finish()
        with pytest.raises(SynopsisError):
            transform.finish()
        with pytest.raises(SynopsisError):
            transform.add(0, 1.0)


class TestBudget:
    def test_keeps_heaviest_by_normalized_weight(self):
        tuples = [(i, float(i)) for i in range(8)]
        full = _streaming_coefficients(tuples, 3)
        kept = _streaming_coefficients(tuples, 3, budget=3)
        assert len(kept) == 3
        weights = {
            index: normalized_weight(index, value, 3)
            for index, value in full.items()
        }
        expected = set(sorted(weights, key=weights.get, reverse=True)[:3])
        assert set(kept) == expected

    def test_budget_larger_than_coefficients(self):
        tuples = [(3, 2.0)]
        assert _streaming_coefficients(tuples, 3, budget=100) == pytest.approx(
            _streaming_coefficients(tuples, 3)
        )


class TestCoefficientHelpers:
    def test_levels(self):
        assert coefficient_level(0, 3) == 3
        assert coefficient_level(1, 3) == 3
        assert coefficient_level(2, 3) == 2
        assert coefficient_level(3, 3) == 2
        assert coefficient_level(4, 3) == 1
        assert coefficient_level(7, 3) == 1

    def test_level_rejects_bad_index(self):
        with pytest.raises(ValueError):
            coefficient_level(-1, 3)
        with pytest.raises(ValueError):
            coefficient_level(16, 3)

    def test_preorder(self):
        indices = [0, 1, 2, 3, 4, 5, 6, 7]
        ordered = sorted(indices, key=preorder_sort_key)
        # Pre-order of the error tree: root, then left subtree, right.
        assert ordered == [0, 1, 2, 4, 5, 3, 6, 7]


@settings(max_examples=80)
@given(
    st.integers(0, 7).flatmap(
        lambda levels: st.tuples(
            st.just(levels),
            st.dictionaries(
                st.integers(0, 2**levels - 1), st.integers(1, 100), max_size=40
            ),
        )
    )
)
def test_streaming_equals_classic(case):
    """Algorithm 1 must reproduce the classic decomposition exactly."""
    levels, frequency_map = case
    tuples = sorted((p, float(f)) for p, f in frequency_map.items())
    assert _streaming_coefficients(tuples, levels) == pytest.approx(
        _classic_coefficients(tuples, levels)
    )


def _finish(transform_class, tuples, levels, budget, encode_prefix_sum):
    transform = transform_class(levels, budget, encode_prefix_sum)
    for position, frequency in tuples:
        transform.add(position, frequency)
    return transform.finish()


@st.composite
def _sparse_streams(draw):
    """``(levels, sorted (position, frequency) tuples)`` over domains up
    to 2^40, clustered so that gaps of every size and runs of adjacent
    positions (long carry chains) both occur."""
    levels = draw(st.integers(0, 40))
    last = (1 << levels) - 1
    anchors = draw(st.lists(st.integers(0, last), max_size=12))
    near = draw(st.lists(st.integers(-3, 3), max_size=4))
    positions = {0, last} if draw(st.booleans()) else set()
    for anchor in anchors:
        positions.add(anchor)
        positions.update(min(max(anchor + d, 0), last) for d in near)
    if draw(st.booleans()):
        # Tie-heavy: one frequency everywhere, so many coefficients
        # share a weight and the heap's tie order decides who stays.
        frequency = float(draw(st.integers(1, 4)))
        frequencies = [frequency] * len(positions)
    else:
        frequencies = draw(
            st.lists(
                st.integers(1, 1000).map(float),
                min_size=len(positions),
                max_size=len(positions),
            )
        )
    return levels, list(zip(sorted(positions), frequencies))


@settings(max_examples=300, deadline=None)
@given(
    _sparse_streams(),
    st.sampled_from([None, 1, 3, 256]),
    st.booleans(),
)
def test_kernel_equals_reference_transform(stream, budget, encode_prefix_sum):
    """The binary-counter kernel retains the very coefficients the
    tuple-stack transform does: same indices, same floats, and the same
    order out of the heap (``WaveletSynopsis._merge`` re-thresholds with
    a stable sort over that order, so it is part of the result)."""
    levels, tuples = stream
    got = _finish(
        StreamingWaveletTransform, tuples, levels, budget, encode_prefix_sum
    )
    expected = _finish(
        ReferenceWaveletTransform, tuples, levels, budget, encode_prefix_sum
    )
    assert got == expected
