"""Tests for equi-width histograms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MergeabilityError, SynopsisError
from repro.synopses.equi_width import EquiWidthBuilder, EquiWidthHistogram
from repro.synopses.factory import synopsis_from_payload
from repro.types import Domain


def _build(values, domain=Domain(0, 99), budget=10):
    builder = EquiWidthBuilder(domain, budget)
    for value in sorted(values):
        builder.add(value)
    return builder.build()


class TestConstruction:
    def test_bucket_width_invariant(self):
        h = _build([], Domain(0, 99), 10)
        assert h.width == 10
        assert h.element_count == 10

    def test_width_rounds_up(self):
        h = _build([], Domain(0, 9), 4)  # length 10 / 4 buckets -> width 3
        assert h.width == 3
        assert h.element_count == 4  # ceil(10/3)

    def test_counts_per_bucket(self):
        h = _build([0, 5, 9, 10, 99])
        assert h.counts[0] == 3
        assert h.counts[1] == 1
        assert h.counts[9] == 1
        assert h.total_count == 5

    def test_budget_larger_than_domain(self):
        h = _build([0, 1, 2], Domain(0, 3), 100)
        assert h.width == 1
        assert h.element_count == 4

    def test_validates_bucket_count(self):
        with pytest.raises(SynopsisError):
            EquiWidthHistogram(Domain(0, 99), 10, [0] * 3)

    @pytest.mark.parametrize(
        "counts",
        [
            [-5, 10, 1.5, 0],
            [0, 10, 1.5, 0],
            [-5, 10, 1, 0],
            [True, 2**70, 0, 0],
            [True, 0, 0, 0],
            [0, 2**70, 0, 0],
            [0, 2**63, 0, 0],
            [0, "3", 0, 0],
            [0, None, 0, 0],
        ],
    )
    def test_impossible_payload_counts_are_refused(self, counts):
        payload = {"type": "equi_width", "domain": [0, 99], "budget": 4}
        with pytest.raises(SynopsisError):
            synopsis_from_payload({**payload, "counts": counts})

    def test_payload_counts_up_to_int64_round_trip(self):
        payload = {
            "type": "equi_width",
            "domain": [0, 99],
            "budget": 4,
            "counts": [0, 2**63 - 8, 0, 7],
        }
        assert synopsis_from_payload(payload).to_payload() == payload

    def test_merge_refuses_counts_that_would_overflow_int64(self):
        # The stacked column sum is int64: a total past it is refused
        # before the sum could wrap, and the estimator keeps summing.
        a = EquiWidthHistogram(Domain(0, 99), 4, [2**62, 0, 0, 1])
        b = EquiWidthHistogram(Domain(0, 99), 4, [2**62 - 2, 0, 0, 0])
        assert a.merge_with(b).counts == [2**63 - 2, 0, 0, 1]
        with pytest.raises(MergeabilityError):
            a.merge_with(b, b)


class TestEstimate:
    def test_exact_on_full_buckets(self):
        h = _build(range(100))
        assert h.estimate(10, 19) == pytest.approx(10)
        assert h.estimate(0, 99) == pytest.approx(100)

    def test_partial_bucket_fractional(self):
        # 10 records in bucket [0, 9]; querying half the bucket
        # estimates half its count under the continuous-value assumption.
        h = _build([3] * 10)
        assert h.estimate(0, 4) == pytest.approx(5.0)
        assert h.estimate(5, 9) == pytest.approx(5.0)

    def test_point_query(self):
        h = _build([3] * 10)
        assert h.estimate(3, 3) == pytest.approx(1.0)

    def test_last_clipped_bucket_uses_true_width(self):
        # Domain [0, 9] with width 3: buckets [0-2], [3-5], [6-8], [9].
        h = _build([9, 9], Domain(0, 9), 4)
        assert h.estimate(9, 9) == pytest.approx(2.0)

    def test_negative_domain(self):
        h = _build([-50, -50, 25], Domain(-100, 99), 10)
        assert h.estimate(-60, -41) == pytest.approx(2.0)
        assert h.estimate(20, 39) == pytest.approx(1.0)


class TestMerge:
    def test_merge_adds_counts(self):
        a = _build([5, 15, 25])
        b = _build([5, 95])
        merged = a.merge_with(b)
        assert merged.counts[0] == 2
        assert merged.counts[1] == 1
        assert merged.counts[9] == 1
        assert merged.total_count == 5

    def test_merge_is_lossless_for_equi_width(self):
        # Same borders -> merged estimate equals sum of estimates.
        a = _build(range(0, 100, 3))
        b = _build(range(1, 100, 7))
        merged = a.merge_with(b)
        for lo, hi in [(0, 99), (13, 57), (90, 99)]:
            assert merged.estimate(lo, hi) == pytest.approx(
                a.estimate(lo, hi) + b.estimate(lo, hi)
            )


@settings(max_examples=40)
@given(st.lists(st.integers(0, 99), max_size=200), st.integers(1, 30))
def test_full_domain_estimate_is_total(values, budget):
    h = _build(values, budget=budget)
    assert h.estimate(0, 99) == pytest.approx(len(values))


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 99), max_size=100),
    st.integers(0, 99),
    st.integers(0, 99),
)
def test_estimate_bounded_by_total(values, a, b):
    lo, hi = min(a, b), max(a, b)
    h = _build(values)
    estimate = h.estimate(lo, hi)
    assert 0.0 <= estimate <= len(values) + 1e-9


@settings(max_examples=40)
@given(st.lists(st.integers(0, 99), max_size=100), st.integers(0, 98))
def test_estimate_additive_over_split(values, split):
    """Histogram estimates are additive over adjacent ranges."""
    h = _build(values)
    whole = h.estimate(0, 99)
    parts = h.estimate(0, split) + h.estimate(split + 1, 99)
    assert parts == pytest.approx(whole)
