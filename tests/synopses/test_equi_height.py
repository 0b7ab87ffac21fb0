"""Tests for equi-height histograms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynopsisError
from repro.synopses.equi_height import EquiHeightBuilder, EquiHeightHistogram
from repro.synopses.factory import synopsis_from_payload
from repro.types import Domain

DOMAIN = Domain(0, 999)


def _build(values, budget=10, domain=DOMAIN, expected=None):
    values = sorted(values)
    expected = len(values) if expected is None else expected
    builder = EquiHeightBuilder(domain, budget, expected)
    for value in values:
        builder.add(value)
    return builder.build()


class TestConstruction:
    def test_even_split(self):
        h = _build(range(100), budget=10)
        assert h.element_count == 10
        assert all(count == 10 for count in h.counts)
        assert h.borders == [9, 19, 29, 39, 49, 59, 69, 79, 89, 99]

    def test_borders_strictly_increasing(self):
        h = _build([5] * 50 + list(range(10, 60)), budget=10)
        assert h.borders == sorted(set(h.borders))

    def test_duplicates_stay_in_one_bucket(self):
        # 30 copies of value 7 with height 10: the run must not straddle
        # a border, so all 30 land in the bucket ending at 7.
        h = _build([7] * 30 + [100, 200, 300], budget=3)
        assert h.borders[0] == 7
        assert h.counts[0] == 30

    def test_adapts_to_clustered_values(self):
        # All data in [500, 520]: bucket 0 starts just below the data,
        # not at the domain edge, so the empty prefix contributes 0.
        h = _build(range(500, 521), budget=4)
        assert h.first_left == 499
        assert h.estimate(0, 499) == 0.0

    def test_negative_expected_records(self):
        with pytest.raises(SynopsisError):
            EquiHeightBuilder(DOMAIN, 4, -1)

    def test_validates_borders(self):
        with pytest.raises(SynopsisError):
            EquiHeightHistogram(DOMAIN, 4, 0, [5, 5], [1, 1])
        with pytest.raises(SynopsisError):
            EquiHeightHistogram(DOMAIN, 4, 0, [5], [1, 2])
        with pytest.raises(SynopsisError):
            EquiHeightHistogram(DOMAIN, 1, 0, [5, 6], [1, 1])

    @pytest.mark.parametrize(
        "change",
        [
            {"borders": [10, 20.5, 30], "counts": [-3, 2.5, 4]},
            {"borders": [10, 20.5, 30]},
            {"counts": [-3, 2, 4]},
            {"counts": [3, 2.5, 4]},
            {"counts": [3, True, 4]},
            {"counts": [3, 2**63, 4]},
            {"borders": [False, 20, 30]},
            {"borders": [10, 20, 2**63]},
            {"first_left": -1 - 2**70, "borders": [-(2**70), 20, 30]},
            {"first_left": 0.5},
        ],
    )
    def test_impossible_payloads_are_refused(self, change):
        payload = {
            "type": "equi_height",
            "domain": [0, 999],
            "budget": 4,
            "first_left": -1,
            "borders": [10, 20, 30],
            "counts": [3, 2, 4],
        }
        assert synopsis_from_payload(payload).to_payload() == payload
        with pytest.raises(SynopsisError):
            synopsis_from_payload({**payload, **change})

    def test_overflow_absorbed_by_last_bucket(self):
        # Expected count lower than actual: the final bucket absorbs the
        # tail instead of blowing the budget.
        h = _build(range(100), budget=4, expected=40)
        assert h.element_count <= 4
        assert h.total_count == 100


class TestEstimate:
    def test_uniform_data_exact_on_borders(self):
        h = _build(range(100), budget=10)
        assert h.estimate(0, 9) == pytest.approx(10)
        assert h.estimate(0, 99) == pytest.approx(100)

    def test_fractional_overlap(self):
        h = _build(range(100), budget=10)
        # Half of bucket (9, 19] -> 5 of its 10 records.
        assert h.estimate(10, 14) == pytest.approx(5.0)

    def test_skewed_data(self):
        values = [1] * 90 + list(range(100, 110))
        h = _build(values, budget=10)
        assert h.estimate(0, 5) == pytest.approx(90, rel=0.2)

    def test_empty(self):
        h = _build([])
        assert h.estimate(0, 999) == 0.0


@settings(max_examples=40)
@given(st.lists(st.integers(0, 999), max_size=300), st.integers(1, 40))
def test_full_domain_estimate_is_total(values, budget):
    h = _build(values, budget=budget)
    assert h.estimate(0, 999) == pytest.approx(len(values))


@settings(max_examples=40)
@given(st.lists(st.integers(0, 999), max_size=200), st.integers(0, 998))
def test_estimate_additive_over_split(values, split):
    h = _build(values)
    whole = h.estimate(0, 999)
    parts = h.estimate(0, split) + h.estimate(split + 1, 999)
    assert parts == pytest.approx(whole)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 999), min_size=1, max_size=200), st.integers(1, 20))
def test_bucket_structure_invariants(values, budget):
    h = _build(values, budget=budget)
    assert 1 <= h.element_count <= budget
    assert h.total_count == len(values)
    previous = h.first_left
    for border in h.borders:
        assert border > previous
        previous = border
    assert h.borders[-1] == max(values)
