"""Tests for the wavelet synopsis (queries, merging, thresholding)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynopsisError
from repro.synopses.wavelet.synopsis import WaveletBuilder, WaveletSynopsis
from repro.types import Domain

DOMAIN = Domain(0, 63)


def _build(values, budget=64, domain=DOMAIN):
    builder = WaveletBuilder(domain, budget)
    for value in sorted(values):
        builder.add(value)
    return builder.build()


class TestPrefixReconstruction:
    def test_prefix_values(self):
        synopsis = _build([0, 2, 2, 5], domain=Domain(0, 7), budget=8)
        expected = [1, 1, 3, 3, 3, 4, 4, 4]
        got = [synopsis.prefix_value(p) for p in range(8)]
        assert got == pytest.approx(expected)

    def test_prefix_before_domain_is_zero(self):
        synopsis = _build([1, 2], domain=Domain(0, 7), budget=8)
        assert synopsis.prefix_value(-1) == 0.0
        assert synopsis.prefix_value(-100) == 0.0

    def test_prefix_clamps_past_end(self):
        synopsis = _build([1, 2], domain=Domain(0, 7), budget=8)
        assert synopsis.prefix_value(100) == pytest.approx(2.0)


class TestEstimate:
    def test_exact_with_full_budget(self):
        values = [3, 3, 10, 20, 20, 20, 50]
        synopsis = _build(values)
        assert synopsis.estimate(0, 63) == pytest.approx(7)
        assert synopsis.estimate(3, 3) == pytest.approx(2)
        assert synopsis.estimate(11, 49) == pytest.approx(3)
        assert synopsis.estimate(21, 63) == pytest.approx(1)

    def test_padded_domain(self):
        # Domain of length 100 pads to 128; queries near hi still work.
        domain = Domain(0, 99)
        synopsis = _build([95, 99], budget=128, domain=domain)
        assert synopsis.estimate(90, 99) == pytest.approx(2)
        assert synopsis.estimate(96, 99) == pytest.approx(1)

    def test_never_negative(self):
        synopsis = _build(range(0, 64, 3), budget=4)  # heavy thresholding
        for lo in range(0, 64, 7):
            assert synopsis.estimate(lo, lo + 3) >= 0.0

    def test_nonzero_domain_offset(self):
        domain = Domain(1000, 1063)
        synopsis = _build([1005, 1005, 1050], budget=64, domain=domain)
        assert synopsis.estimate(1005, 1005) == pytest.approx(2)
        assert synopsis.estimate(1006, 1063) == pytest.approx(1)


class TestThresholding:
    def test_budget_enforced(self):
        synopsis = _build(range(64), budget=8)
        assert synopsis.element_count <= 8

    def test_constructor_validates_budget(self):
        with pytest.raises(SynopsisError):
            WaveletSynopsis(DOMAIN, 2, {0: 1.0, 1: 1.0, 2: 1.0}, 3)

    def test_small_budget_keeps_total_roughly(self):
        # The overall average has the largest normalized weight, so even
        # budget 1 preserves the full-domain estimate approximately.
        values = list(range(0, 64, 2))
        synopsis = _build(values, budget=1)
        assert synopsis.estimate(0, 63) == pytest.approx(len(values), rel=0.5)


class TestMerge:
    def test_merge_exact_when_budget_allows(self):
        a = _build([1, 5, 9])
        b = _build([5, 20])
        merged = a.merge_with(b)
        assert merged.estimate(5, 5) == pytest.approx(2)
        assert merged.estimate(0, 63) == pytest.approx(5)

    def test_merge_equals_sum_of_estimates_without_thresholding(self):
        a = _build(range(0, 64, 4))
        b = _build(range(1, 64, 8))
        merged = a.merge_with(b)
        for lo, hi in [(0, 63), (5, 30), (17, 17), (60, 63)]:
            assert merged.estimate(lo, hi) == pytest.approx(
                a.estimate(lo, hi) + b.estimate(lo, hi), abs=1e-6
            )

    def test_merge_cancellation_drops_zero_coefficients(self):
        a = WaveletSynopsis(DOMAIN, 8, {0: 1.0, 5: 2.0}, 10)
        b = WaveletSynopsis(DOMAIN, 8, {0: 1.0, 5: -2.0}, 10)
        merged = a.merge_with(b)
        assert 5 not in merged.coefficients
        assert merged.coefficients[0] == pytest.approx(2.0)

    def test_merge_rethresholds_to_budget(self):
        a = _build(range(0, 64, 2), budget=6)
        b = _build(range(1, 64, 2), budget=6)
        merged = a.merge_with(b)
        assert merged.element_count <= 6


class TestPayload:
    def test_roundtrip_preserves_coefficients(self):
        synopsis = _build([1, 4, 4, 9, 33], budget=16)
        clone = WaveletSynopsis.from_payload(synopsis.to_payload())
        assert clone.coefficients == synopsis.coefficients
        assert clone.total_count == synopsis.total_count

    def test_rejects_coefficient_outside_error_tree(self):
        # A 16-position domain has error-tree nodes 0..15; prefix_value
        # would never visit 16 or -3, so they must not load at all.
        for index in (16, 999, -3):
            with pytest.raises(SynopsisError, match="outside the error tree"):
                WaveletSynopsis(Domain(0, 15), 8, {0: 5.0, index: 2.0}, 10)
        WaveletSynopsis(Domain(0, 15), 8, {0: 5.0, 15: 2.0}, 10)

    def test_rejects_non_finite_coefficient(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SynopsisError, match="non-finite"):
                WaveletSynopsis(Domain(0, 15), 8, {0: 5.0, 3: value}, 10)

    GOOD_PAYLOAD = {
        "type": "wavelet",
        "domain": [0, 15],
        "budget": 8,
        "total_count": 10,
        "coefficients": [[0, 5.0], [3, -1.5]],
    }

    def test_good_payload_loads(self):
        loaded = WaveletSynopsis.from_payload(self.GOOD_PAYLOAD)
        assert loaded.coefficients == {0: 5.0, 3: -1.5}

    @pytest.mark.parametrize(
        "fields",
        [
            # The ISSUE's example: loaded fine and estimated as if the
            # stray entries were not there.
            {"coefficients": [[0, 5.0], [999, float("nan")], [-3, 2.0]]},
            {"coefficients": [[0, 5.0], [0, 6.0]]},  # duplicate index
            {"coefficients": [[2.5, 1.0]]},  # fractional index
            {"coefficients": [[2, "1.0"]]},  # string value
            {"coefficients": [[1, 2.0, 3.0]]},  # not pairs
            {"coefficients": 7},
            {"budget": "8"},
            {"total_count": None},
            {"domain": [15, 0]},
            {"domain": [0]},
        ],
    )
    def test_corrupted_payload_fails_typed(self, fields):
        with pytest.raises(SynopsisError):
            WaveletSynopsis.from_payload({**self.GOOD_PAYLOAD, **fields})

    @pytest.mark.parametrize(
        "missing", ["domain", "budget", "total_count", "coefficients"]
    )
    def test_missing_payload_field_fails_typed(self, missing):
        payload = {k: v for k, v in self.GOOD_PAYLOAD.items() if k != missing}
        with pytest.raises(SynopsisError, match="malformed wavelet payload"):
            WaveletSynopsis.from_payload(payload)

    def test_payload_is_preordered(self):
        from repro.synopses.wavelet.coefficient import preorder_sort_key

        synopsis = _build(range(0, 64, 5), budget=16)
        indices = [i for i, _v in synopsis.to_payload()["coefficients"]]
        assert indices == sorted(indices, key=preorder_sort_key)


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, 63), max_size=80),
    st.integers(0, 63),
    st.integers(0, 63),
)
def test_full_budget_estimates_are_exact(values, a, b):
    """With an unthresholded budget the synopsis is lossless."""
    lo, hi = min(a, b), max(a, b)
    synopsis = _build(values, budget=64)
    true_count = sum(1 for v in values if lo <= v <= hi)
    assert synopsis.estimate(lo, hi) == pytest.approx(true_count, abs=1e-6)


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 63), max_size=60),
    st.lists(st.integers(0, 63), max_size=60),
)
def test_merge_matches_union_build(values_a, values_b):
    """Merging unthresholded synopses equals building over the union."""
    a = _build(values_a, budget=64)
    b = _build(values_b, budget=64)
    merged = a.merge_with(b)
    union = _build(values_a + values_b, budget=64)
    for lo, hi in [(0, 63), (10, 20), (32, 63), (5, 5)]:
        assert merged.estimate(lo, hi) == pytest.approx(
            union.estimate(lo, hi), abs=1e-6
        )


@settings(max_examples=50)
@given(
    st.lists(st.integers(1000, 1099), max_size=80),
    st.sampled_from([1, 4, 16, 128]),
)
def test_payload_roundtrip_is_identity(values, budget):
    """``from_payload(to_payload(s))`` is ``s``: same fields, and the
    same payload again (so catalog dedup by payload stays exact)."""
    synopsis = _build(values, budget=budget, domain=Domain(1000, 1099))
    clone = WaveletSynopsis.from_payload(synopsis.to_payload())
    assert (clone.domain, clone.budget, clone.total_count, clone.levels) == (
        synopsis.domain, synopsis.budget, synopsis.total_count, synopsis.levels
    )
    assert clone.coefficients == synopsis.coefficients
    assert clone.to_payload() == synopsis.to_payload()
