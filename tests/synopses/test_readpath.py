"""The read-path kernels against the bodies they replaced.

``merge_with`` is N-ary and two families (HLL, equi-width) fold all
inputs in one pass; ``estimate`` of the equi-width and border
histograms touches only the buckets a range covers.  Every one of them
must equal ``reference_readpath`` exactly: payloads byte for byte,
estimates with ``==``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MergeabilityError
from repro.synopses import SynopsisType, create_builder
from repro.synopses.equi_height import EquiHeightHistogram
from repro.synopses.equi_width import EquiWidthHistogram
from repro.synopses.hll import HyperLogLogBuilder
from repro.synopses.maxdiff import MaxDiffHistogram
from repro.synopses.multidim import Synopsis2DType, create_builder_2d
from repro.synopses.voptimal import VOptimalHistogram
from repro.types import Domain
from tests.synopses import reference_readpath as reference

DOMAIN = Domain(0, 255)
DOMAINS_2D = (Domain(0, 15), Domain(0, 15))
BUDGET = 16  # a power of two, so it is also a legal HLL register count
MERGEABLE_1D = [t for t in SynopsisType if t.mergeable]
UNMERGEABLE_BUCKET = [
    SynopsisType.EQUI_HEIGHT,
    SynopsisType.V_OPTIMAL,
    SynopsisType.MAX_DIFF,
]

value_lists = st.lists(st.integers(DOMAIN.lo, DOMAIN.hi), max_size=40)
pair_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30
)


def _build(synopsis_type, values, domain=DOMAIN, budget=BUDGET):
    builder = create_builder(synopsis_type, domain, budget, len(values))
    builder.add_many(sorted(values))
    return builder.build()


def _build_2d(synopsis_type, pairs, domains=DOMAINS_2D, budget=BUDGET):
    builder = create_builder_2d(synopsis_type, domains, budget)
    builder.add_many(sorted(pairs))
    return builder.build()


def test_every_mergeable_family_is_covered():
    assert {t.value for t in MERGEABLE_1D} == {
        "equi_width", "wavelet", "gk_sketch", "ground_truth", "hll_sketch",
    }
    assert {t.value for t in Synopsis2DType} == {
        "grid_2d", "wavelet_2d", "ground_truth_2d",
    }


class TestFoldEqualsLeftFold:
    @pytest.mark.parametrize("synopsis_type", MERGEABLE_1D)
    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(value_lists, min_size=1, max_size=13))
    def test_one_dimensional(self, synopsis_type, streams):
        first, *rest = (_build(synopsis_type, values) for values in streams)
        merged = first.merge_with(*rest)
        expected = reference.left_fold(first, rest)
        assert merged.to_payload() == expected.to_payload()
        assert merged.total_count == sum(len(values) for values in streams)

    @pytest.mark.parametrize("synopsis_type", list(Synopsis2DType))
    @settings(max_examples=25, deadline=None)
    @given(streams=st.lists(pair_lists, min_size=1, max_size=13))
    def test_two_dimensional(self, synopsis_type, streams):
        first, *rest = (_build_2d(synopsis_type, pairs) for pairs in streams)
        merged = first.merge_with(*rest)
        expected = reference.left_fold(first, rest)
        assert merged.to_payload() == expected.to_payload()

    @pytest.mark.parametrize("synopsis_type", MERGEABLE_1D)
    def test_no_argument_returns_an_equal_synopsis(self, synopsis_type):
        synopsis = _build(synopsis_type, [3, 3, 90, 200])
        payload = synopsis.to_payload()
        assert synopsis.merge_with().to_payload() == payload
        assert synopsis.to_payload() == payload  # and the receiver is intact

    @pytest.mark.parametrize("synopsis_type", list(Synopsis2DType))
    def test_no_argument_returns_an_equal_synopsis_2d(self, synopsis_type):
        synopsis = _build_2d(synopsis_type, [(1, 2), (1, 2), (9, 0)])
        assert synopsis.merge_with().to_payload() == synopsis.to_payload()

    def test_inputs_are_left_untouched(self):
        # The HLL union writes into a fresh register file, never into an
        # input's (catalog-owned) one.
        parts = [_build(SynopsisType.HLL_SKETCH, range(i, 200, 7)) for i in range(4)]
        before = [bytes(part.registers) for part in parts]
        merged = parts[0].merge_with(*parts[1:])
        assert [bytes(part.registers) for part in parts] == before
        assert merged.registers is not parts[0].registers

    @pytest.mark.parametrize("synopsis_type", UNMERGEABLE_BUCKET)
    def test_unmergeable_families_still_refuse(self, synopsis_type):
        a, b = _build(synopsis_type, [1, 2, 3]), _build(synopsis_type, [4, 5])
        with pytest.raises(MergeabilityError):
            a.merge_with(b)
        with pytest.raises(MergeabilityError):
            a.merge_with()


def _incompatible_1d(synopsis_type):
    """``(why, synopsis)`` for every way an input can be incompatible."""
    other_type = (
        SynopsisType.WAVELET
        if synopsis_type is not SynopsisType.WAVELET
        else SynopsisType.EQUI_WIDTH
    )
    bad = [
        ("type", _build(other_type, [1, 2])),
        ("domain", _build(synopsis_type, [1, 2], domain=Domain(0, 127))),
        ("budget", _build(synopsis_type, [1, 2], budget=BUDGET * 2)),
    ]
    if synopsis_type is SynopsisType.HLL_SKETCH:
        builder = HyperLogLogBuilder(DOMAIN, BUDGET, hash_seed=7)
        builder.add_many([1, 2])
        bad.append(("hash seed", builder.build()))
    return bad


class TestIncompatibleInputAtAnyPosition:
    @pytest.mark.parametrize("synopsis_type", MERGEABLE_1D)
    @pytest.mark.parametrize("position", [0, 1, 5, 11])
    def test_one_dimensional(self, synopsis_type, position):
        first = _build(synopsis_type, [5, 6, 7])
        for why, bad in _incompatible_1d(synopsis_type):
            rest = [_build(synopsis_type, [i, 200 - i]) for i in range(11)]
            rest.insert(position, bad)
            # Nothing may be built before the bad input is found: no
            # instance of the family is constructed at all.
            with mock.patch.object(
                type(first), "__init__", side_effect=AssertionError(why)
            ):
                with pytest.raises(MergeabilityError):
                    first.merge_with(*rest)

    @pytest.mark.parametrize("synopsis_type", list(Synopsis2DType))
    @pytest.mark.parametrize("position", [0, 1, 5, 11])
    def test_two_dimensional(self, synopsis_type, position):
        first = _build_2d(synopsis_type, [(1, 1)])
        other_type = (
            Synopsis2DType.GRID
            if synopsis_type is not Synopsis2DType.GRID
            else Synopsis2DType.WAVELET
        )
        for why, bad in (
            ("type", _build_2d(other_type, [(2, 2)])),
            ("domain", _build_2d(
                synopsis_type, [(2, 2)], domains=(Domain(0, 15), Domain(0, 31))
            )),
            ("budget", _build_2d(synopsis_type, [(2, 2)], budget=BUDGET * 4)),
        ):
            rest = [_build_2d(synopsis_type, [(i, i)]) for i in range(11)]
            rest.insert(position, bad)
            with mock.patch.object(
                type(first), "__init__", side_effect=AssertionError(why)
            ):
                with pytest.raises(MergeabilityError):
                    first.merge_with(*rest)


# -- estimate(lo, hi) ------------------------------------------------------

counts_values = st.one_of(
    st.integers(0, 50), st.integers(0, 10**6), st.integers(0, 2**60)
)


@st.composite
def equi_width_histograms(draw):
    lo = draw(st.integers(-50, 50))
    length = draw(st.integers(1, 300))
    budget = draw(st.integers(1, 40))
    domain = Domain(lo, lo + length - 1)
    width = -(-length // budget)
    buckets = -(-length // width)
    counts = draw(st.lists(counts_values, min_size=buckets, max_size=buckets))
    return EquiWidthHistogram(domain, budget, counts)


@st.composite
def bucket_histograms(draw):
    cls = draw(
        st.sampled_from([EquiHeightHistogram, VOptimalHistogram, MaxDiffHistogram])
    )
    lo = draw(st.integers(-50, 50))
    length = draw(st.integers(1, 300))
    domain = Domain(lo, lo + length - 1)
    # Strictly increasing right borders inside the domain; the left edge
    # of bucket 0 sits anywhere below the first of them.
    borders = sorted(
        draw(st.sets(st.integers(domain.lo, domain.hi), max_size=24))
    )
    first_left = (
        draw(st.integers(domain.lo - 1, borders[0] - 1)) if borders else domain.lo - 1
    )
    counts = draw(
        st.lists(counts_values, min_size=len(borders), max_size=len(borders))
    )
    return cls(domain, max(len(borders), 1), first_left, borders, counts)


def _ranges(domain):
    bound = st.integers(domain.lo - 20, domain.hi + 20)
    return st.tuples(bound, bound).map(sorted)


class TestEstimateEqualsTheWalk:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), histogram=equi_width_histograms())
    def test_equi_width(self, data, histogram):
        lo, hi = data.draw(_ranges(histogram.domain))
        assert histogram.estimate(lo, hi) == reference.estimate_equi_width(
            histogram, lo, hi
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), histogram=bucket_histograms())
    def test_border_histograms(self, data, histogram):
        lo, hi = data.draw(_ranges(histogram.domain))
        assert histogram.estimate(lo, hi) == reference.estimate_bucket_histogram(
            histogram, lo, hi
        )

    @pytest.mark.parametrize("synopsis_type", UNMERGEABLE_BUCKET)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), values=value_lists)
    def test_built_border_histograms(self, synopsis_type, data, values):
        histogram = _build(synopsis_type, values)
        lo, hi = data.draw(_ranges(DOMAIN))
        assert histogram.estimate(lo, hi) == reference.estimate_bucket_histogram(
            histogram, lo, hi
        )

    def test_every_range_of_a_small_equi_width_histogram(self):
        # Width 8 over 37 values: four whole buckets and a last one of
        # five.  All (lo, hi) pairs cover lo == hi, ranges inside one
        # bucket, on bucket borders, clipped by the short last bucket and
        # fully outside the domain.
        domain = Domain(10, 46)
        for counts in ([3, 0, 7, 11, 5], [0] * 5, [2**55 + 1, 1, 3, 2**54, 9]):
            histogram = EquiWidthHistogram(domain, 5, counts)
            assert histogram.width == 8
            for lo in range(5, 52):
                for hi in range(lo, 52):
                    assert histogram.estimate(
                        lo, hi
                    ) == reference.estimate_equi_width(histogram, lo, hi), (lo, hi)

    def test_every_range_of_a_small_border_histogram(self):
        domain = Domain(10, 46)
        histogram = EquiHeightHistogram(
            domain, 6, 12, [13, 14, 20, 33, 40], [4, 1, 9, 2**55 + 1, 6]
        )
        empty = EquiHeightHistogram(domain, 6, 9, [], [])
        for lo in range(5, 52):
            for hi in range(lo, 52):
                assert histogram.estimate(
                    lo, hi
                ) == reference.estimate_bucket_histogram(histogram, lo, hi), (lo, hi)
                assert empty.estimate(lo, hi) == 0.0
