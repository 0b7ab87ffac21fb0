"""Tests for the two-dimensional synopses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MergeabilityError, SynopsisError
from repro.synopses.multidim import (
    GridHistogram2DBuilder,
    GroundTruth2DBuilder,
    Synopsis2DType,
    Wavelet2DBuilder,
    create_builder_2d,
    haar_transform_dense,
)
from repro.synopses.wavelet.classic import classic_decompose
from repro.types import Domain

DOMAINS = (Domain(0, 255), Domain(0, 255))
ALL_2D_TYPES = list(Synopsis2DType)


def _build(synopsis_type, pairs, budget=1024, domains=DOMAINS):
    builder = create_builder_2d(synopsis_type, domains, budget)
    for x, y in sorted(pairs):
        builder.add(x, y)
    return builder.build()


@pytest.mark.parametrize("synopsis_type", ALL_2D_TYPES)
class TestContract:
    def test_rejects_unsorted_pairs(self, synopsis_type):
        builder = create_builder_2d(synopsis_type, DOMAINS, 64)
        builder.add(5, 5)
        builder.add(5, 7)  # lexicographically later: fine
        with pytest.raises(SynopsisError):
            builder.add(5, 6)

    def test_rejects_out_of_domain(self, synopsis_type):
        builder = create_builder_2d(synopsis_type, DOMAINS, 64)
        with pytest.raises(SynopsisError):
            builder.add(300, 5)
        with pytest.raises(SynopsisError):
            builder.add(5, -1)

    def test_single_use(self, synopsis_type):
        builder = create_builder_2d(synopsis_type, DOMAINS, 64)
        builder.build()
        with pytest.raises(SynopsisError):
            builder.add(1, 1)
        with pytest.raises(SynopsisError):
            builder.build()

    def test_empty(self, synopsis_type):
        synopsis = _build(synopsis_type, [])
        assert synopsis.total_count == 0
        assert synopsis.estimate(0, 255, 0, 255) == 0.0

    def test_clipping(self, synopsis_type):
        synopsis = _build(synopsis_type, [(10, 10), (200, 200)])
        full = synopsis.estimate(0, 255, 0, 255)
        assert synopsis.estimate(-999, 999, -999, 999) == pytest.approx(full)
        assert synopsis.estimate(300, 400, 0, 255) == 0.0

    def test_payload_roundtrip(self, synopsis_type):
        synopsis = _build(synopsis_type, [(1, 2), (3, 4), (3, 4), (250, 0)])
        clone = type(synopsis).from_payload(synopsis.to_payload())
        for rect in [(0, 255, 0, 255), (0, 10, 0, 10), (3, 3, 4, 4)]:
            assert clone.estimate(*rect) == pytest.approx(synopsis.estimate(*rect))

    def test_merge_equals_union(self, synopsis_type):
        pairs_a = [(i, (i * 7) % 256) for i in range(0, 100, 3)]
        pairs_b = [(i, (i * 11) % 256) for i in range(1, 100, 5)]
        merged = _build(synopsis_type, pairs_a).merge_with(
            _build(synopsis_type, pairs_b)
        )
        union = _build(synopsis_type, pairs_a + pairs_b)
        for rect in [(0, 255, 0, 255), (0, 50, 0, 127), (10, 20, 60, 200)]:
            assert merged.estimate(*rect) == pytest.approx(
                union.estimate(*rect), abs=1e-6
            )

    def test_merge_compatibility_checks(self, synopsis_type):
        a = _build(synopsis_type, [(1, 1)])
        small_domains = (Domain(0, 127), Domain(0, 127))
        b = _build(synopsis_type, [(1, 1)], domains=small_domains)
        with pytest.raises(MergeabilityError):
            a.merge_with(b)


class TestHaarDense:
    def test_matches_sparse_classic(self):
        rng = np.random.default_rng(0)
        for levels in (0, 1, 3, 5):
            vector = rng.integers(0, 50, size=1 << levels).astype(float)
            dense = haar_transform_dense(vector)
            sparse = classic_decompose(list(vector))
            for index, value in sparse.items():
                assert dense[index] == pytest.approx(value)
            zero_indices = set(range(1 << levels)) - set(sparse)
            assert all(dense[i] == pytest.approx(0.0) for i in zero_indices)

    def test_rejects_bad_length(self):
        with pytest.raises(SynopsisError):
            haar_transform_dense(np.array([1.0, 2.0, 3.0]))


class TestGrid:
    def test_cell_counts(self):
        synopsis = _build(Synopsis2DType.GRID, [(0, 0), (0, 0), (255, 255)], budget=16)
        # 4x4 grid of 64-wide cells.
        assert synopsis.counts[0, 0] == 2
        assert synopsis.counts[3, 3] == 1

    def test_exact_on_cell_aligned_rectangles(self):
        pairs = [(x, y) for x in range(0, 256, 8) for y in range(0, 256, 8)]
        synopsis = _build(Synopsis2DType.GRID, pairs, budget=16)
        # Quarter of the space, cell-aligned -> exact quarter of pairs.
        assert synopsis.estimate(0, 127, 0, 127) == pytest.approx(len(pairs) / 4)

    def test_fractional_overlap(self):
        synopsis = _build(Synopsis2DType.GRID, [(0, 0)] * 64, budget=16)
        # Querying a quarter (both axes halved) of the covering cell.
        estimate = synopsis.estimate(0, 31, 0, 31)
        assert estimate == pytest.approx(64 / 4)


class TestWavelet2D:
    def test_exact_at_cell_resolution_with_full_budget(self):
        pairs = [(16 * i, 16 * ((i * 3) % 16)) for i in range(16)] * 2
        synopsis = _build(Synopsis2DType.WAVELET, pairs, budget=10_000)
        truth = _build(Synopsis2DType.GROUND_TRUTH, pairs)
        # Rectangles aligned to the 4-value quantization cells (256/64).
        for rect in [(0, 255, 0, 255), (0, 127, 0, 127), (0, 127, 128, 255)]:
            assert synopsis.estimate(*rect) == pytest.approx(
                truth.estimate(*rect), abs=1e-6
            )

    def test_budget_enforced(self):
        pairs = [(i, (i * 37) % 256) for i in range(200)]
        synopsis = _build(Synopsis2DType.WAVELET, pairs, budget=32)
        assert synopsis.element_count <= 32

    def test_correlated_data_tracked(self):
        # Strong diagonal correlation: y == x.
        pairs = [(i, i) for i in range(256)]
        synopsis = _build(Synopsis2DType.WAVELET, pairs, budget=2048)
        on_diagonal = synopsis.estimate(0, 127, 0, 127)
        off_diagonal = synopsis.estimate(0, 127, 128, 255)
        assert on_diagonal > 100
        assert off_diagonal < 30


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=150
    )
)
def test_full_space_estimate_is_total(pairs):
    for synopsis_type in ALL_2D_TYPES:
        synopsis = _build(synopsis_type, pairs)
        assert synopsis.estimate(0, 255, 0, 255) == pytest.approx(
            len(pairs), abs=1e-6
        )
