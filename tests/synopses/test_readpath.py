"""The read-path kernels against the bodies they replaced.

``merge_with`` is N-ary and two families (HLL, equi-width) fold all
inputs in one pass, stacked; ``estimate`` of the equi-width and border
histograms touches only the buckets a range covers; a cache miss sums
every catalog entry through one batched ``estimate_each`` per side; the
HLL cardinality sums its registers in one ``np.add.accumulate``.  Every
one of them must equal ``reference_readpath`` / ``reference_hll``
exactly: payloads byte for byte, estimates with ``==``.

Example budgets are tier-1's; under ``--hypothesis-profile nightly``
(tests/conftest.py) each property runs the profile's 5 000 instead.
"""

import math
import random
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.estimator import CardinalityEstimator
from repro.errors import MergeabilityError
from repro.synopses import SynopsisType, create_builder
from repro.synopses.bucket import BucketHistogram
from repro.synopses.equi_height import EquiHeightHistogram
from repro.synopses.equi_width import EquiWidthHistogram
from repro.synopses.hll import HyperLogLogBuilder, HyperLogLogSynopsis, _alpha
from repro.synopses.maxdiff import MaxDiffHistogram
from repro.synopses.multidim import Synopsis2DType, create_builder_2d
from repro.synopses.voptimal import VOptimalHistogram
from repro.types import Domain
from tests.synopses import reference_hll
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


def _examples(tier1: int) -> int:
    """``tier1`` examples under the default profile; a profile that
    raises the budget (nightly's 5 000) sets it instead."""
    budget = settings.default.max_examples
    return budget if budget > settings.get_profile("default").max_examples else tier1


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
    @settings(max_examples=_examples(40), deadline=None)
    @given(streams=st.lists(value_lists, min_size=1, max_size=13))
    def test_one_dimensional(self, synopsis_type, streams):
        first, *rest = (_build(synopsis_type, values) for values in streams)
        merged = first.merge_with(*rest)
        expected = reference.left_fold(first, rest)
        assert merged.to_payload() == expected.to_payload()
        assert merged.total_count == sum(len(values) for values in streams)

    @pytest.mark.parametrize("synopsis_type", list(Synopsis2DType))
    @settings(max_examples=_examples(25), deadline=None)
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

# Counts past 2**53 make float rounding (and so summation order) show;
# 2**57 keeps the total of the 40 buckets drawn at most inside int64,
# which a histogram's total_count must fit.
counts_values = st.one_of(
    st.integers(0, 50), st.integers(0, 10**6), st.integers(0, 2**57)
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
    @settings(max_examples=_examples(300), deadline=None)
    @given(data=st.data(), histogram=equi_width_histograms())
    def test_equi_width(self, data, histogram):
        lo, hi = data.draw(_ranges(histogram.domain))
        assert histogram.estimate(lo, hi) == reference.estimate_equi_width(
            histogram, lo, hi
        )

    @settings(max_examples=_examples(300), deadline=None)
    @given(data=st.data(), histogram=bucket_histograms())
    def test_border_histograms(self, data, histogram):
        lo, hi = data.draw(_ranges(histogram.domain))
        assert histogram.estimate(lo, hi) == reference.estimate_bucket_histogram(
            histogram, lo, hi
        )

    @pytest.mark.parametrize("synopsis_type", UNMERGEABLE_BUCKET)
    @settings(max_examples=_examples(60), deadline=None)
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

    def test_stacked_equi_width_estimates_every_range_like_the_walk(self):
        # Five histograms over the clipped domain of the test above, with
        # counts past 2**53 so float rounding (and so the summation
        # order) shows; one batched call answers each range for all.
        domain = Domain(10, 46)
        stack = [
            EquiWidthHistogram(domain, 5, counts)
            for counts in (
                [3, 0, 7, 11, 5],
                [0] * 5,
                [2**55 + 1, 1, 3, 2**54, 9],
                [2**53 + 1, 2**53 - 1, 1, 2**60, 3],
                [1, 1, 2**62, 1, 2**61],
            )
        ]
        for lo in range(5, 52):
            for hi in range(lo, 52):
                assert EquiWidthHistogram.estimate_each(stack, lo, hi) == [
                    reference.estimate_equi_width(histogram, lo, hi)
                    for histogram in stack
                ], (lo, hi)

    def test_stacked_sum_keeps_the_walk_order(self):
        # Counts up to 2**56 over 64 whole buckets: the running sum
        # rounds at every step, so any other order -- np.sum's pairwise
        # tree, say -- lands on other floats for some rows.
        rng = random.Random(7)
        domain = Domain(0, 255)
        stack = [
            EquiWidthHistogram(domain, 64, [rng.randrange(1, 2**56) for _ in range(64)])
            for _ in range(8)
        ]
        walks = [reference.estimate_equi_width(h, 2, 253) for h in stack]
        assert EquiWidthHistogram.estimate_each(stack, 2, 253) == walks
        pairwise = [
            float(np.sum([h.counts[0] * 0.5, *h.counts[1:63], h.counts[63] * 0.5]))
            for h in stack
        ]
        assert pairwise != walks


# -- Algorithm 2's summation path ------------------------------------------

# 138 values: budget 16 makes the last bucket the domain-clipped one.
SUMMED_DOMAINS = (DOMAIN, Domain(-37, 100))
SUMMED_FAMILIES = (
    SynopsisType.EQUI_WIDTH,
    SynopsisType.EQUI_HEIGHT,
    SynopsisType.HLL_SKETCH,
    SynopsisType.WAVELET,
)


def _reference_estimate(synopsis, lo, hi):
    """One catalog entry's answer through the bodies the kernels replaced."""
    if isinstance(synopsis, EquiWidthHistogram):
        return reference.estimate_equi_width(synopsis, lo, hi)
    if isinstance(synopsis, BucketHistogram):
        return reference.estimate_bucket_histogram(synopsis, lo, hi)
    if isinstance(synopsis, HyperLogLogSynopsis):
        clipped = synopsis.domain.intersect(lo, hi)
        if clipped is None:
            return 0.0
        share = (clipped[1] - clipped[0] + 1) / synopsis.domain.length
        return reference_hll.estimate_cardinality(synopsis) * share
    return synopsis.estimate(lo, hi)  # no kernel: the family's own walk


def _reference_total(entries, lo, hi):
    """``math.fsum`` of the per-entry walks, matter minus anti-matter."""
    return max(
        math.fsum(
            _reference_estimate(matter, lo, hi) - _reference_estimate(anti, lo, hi)
            for matter, anti in entries
        ),
        0.0,
    )


@st.composite
def _summed_synopsis(draw, synopsis_type, domain, budget):
    """A built synopsis, or -- for equi-width -- one with counts large
    enough that float rounding shows in the summation order."""
    if synopsis_type is SynopsisType.EQUI_WIDTH and draw(st.booleans()):
        width = -(-domain.length // budget)
        buckets = -(-domain.length // width)
        counts = draw(st.lists(counts_values, min_size=buckets, max_size=buckets))
        return EquiWidthHistogram(domain, budget, counts)
    values = draw(st.lists(st.integers(domain.lo, domain.hi), max_size=40))
    return _build(synopsis_type, values, domain=domain, budget=budget)


@st.composite
def summed_catalogs(draw, mixed):
    """``(matter, anti)`` pairs for one index: 0, 1 or many entries of
    one family, domain and budget, or -- ``mixed`` -- each entry its own."""
    shapes = st.tuples(
        st.sampled_from(SUMMED_FAMILIES),
        st.sampled_from(SUMMED_DOMAINS),
        st.sampled_from([4, 16]),  # powers of two: legal HLL register counts
    )
    count = draw(st.sampled_from([0, 1, 2, 5, 12]))
    shape = draw(shapes)
    entries = []
    for _ in range(count):
        synopsis_type, domain, budget = draw(shapes) if mixed else shape
        entries.append(
            (
                draw(_summed_synopsis(synopsis_type, domain, budget)),
                draw(_summed_synopsis(synopsis_type, domain, budget)),
            )
        )
    return entries


def _summed_ranges():
    """Ranges that matter to the walks: anywhere (also off the domain),
    one value, inside one bucket, or in the domain-clipped last bucket."""
    anywhere = st.tuples(st.integers(-80, 140), st.integers(-80, 140)).map(sorted)
    point = st.integers(-40, 105).map(lambda value: (value, value))
    near_top = st.tuples(st.integers(80, 100), st.integers(0, 30)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )
    return st.one_of(anywhere, point, near_top)


def _catalog(entries):
    catalog = StatisticsCatalog()
    for uid, (matter, anti) in enumerate(entries):
        catalog.put("idx", "n1", 0, uid, matter, anti)
    return catalog


def _summed(catalog, cache, lo, hi):
    estimator = CardinalityEstimator(catalog, cache)
    result = estimator.estimate_detailed("idx", lo, hi)
    assert not result.from_cache
    return result


class TestSummationEqualsTheWalks:
    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(entries=summed_catalogs(mixed=False), bounds=_summed_ranges())
    def test_one_family(self, entries, bounds):
        catalog = _catalog(entries)
        expected = _reference_total(entries, *bounds)
        for cache in (None, MergedSynopsisCache()):
            result = _summed(catalog, cache, *bounds)
            assert result.estimate == expected
            assert result.synopses_consulted == len(entries)

    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(entries=summed_catalogs(mixed=True), bounds=_summed_ranges())
    def test_mixed_families_budgets_and_domains(self, entries, bounds):
        cache = MergedSynopsisCache()
        catalog = _catalog(entries)
        assert _summed(catalog, cache, *bounds).estimate == _reference_total(
            entries, *bounds
        )
        shapes = {
            (type(synopsis), synopsis.domain, synopsis.budget)
            for pair in entries
            for synopsis in pair
        }
        if len(shapes) > 1:
            # The fold's MergeabilityError was swallowed: nothing cached.
            assert cache.get("idx", catalog.version_for("idx")) is None

    def test_equal_catalogs_in_any_arrival_order_answer_alike(self):
        # fsum is exact, so the catalog's order cannot show in the answer.
        domain, budget = SUMMED_DOMAINS[1], 16
        entries = [
            (
                EquiWidthHistogram(domain, budget, [2**60 + i] + [2**53 + 1] * 15),
                EquiWidthHistogram(domain, budget, [i] * 16),
            )
            for i in range(7)
        ]
        answers = {
            _summed(_catalog(order), None, -5, 97).estimate
            for order in (entries, entries[::-1], entries[3:] + entries[:3])
        }
        assert answers == {_reference_total(entries, -5, 97)}


# -- HyperLogLog cardinality -------------------------------------------------


@st.composite
def register_files(draw):
    """``(budget, registers)`` with values up to ``64 - p + 1``, the
    largest rank a ``2**p``-register sketch can store, in shapes from
    real (geometric) to adversarial (mostly the extremes)."""
    precision = draw(st.integers(1, 14))
    budget, top = 1 << precision, 64 - precision + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "geometric", "extremes", "sparse"]))
    if shape == "uniform":
        registers = rng.integers(0, top + 1, budget)
    elif shape == "geometric":
        offset = draw(st.integers(0, 20))
        registers = np.minimum(rng.geometric(0.5, budget) + offset, top)
    elif shape == "extremes":
        registers = rng.choice([0, top], budget, p=[0.01, 0.99])
    else:
        spikes = rng.integers(1, top + 1, budget)
        registers = np.where(rng.random(budget) < 0.02, spikes, 0)
    return budget, array("B", registers.astype(np.uint8).tobytes())


def _sketch(budget, registers):
    return HyperLogLogSynopsis(DOMAIN, budget, registers, total_count=0)


def _assert_same_cardinality(sketch):
    """Kernel and loop give the same float.  Past ``2**64`` the loop's
    large-range correction leaves ``log1p``'s domain and raises; the
    kernel answers the hash space's size, ``2**64``, instead."""
    try:
        expected = reference_hll.estimate_cardinality(sketch)
    except ValueError:
        assert sketch.cardinality() == 2.0**64
        return
    assert sketch.cardinality() == expected


class TestCardinalityEqualsTheLoop:
    @settings(deadline=None)  # example budget: the profile (tests/conftest.py)
    @given(register_files())
    def test_any_register_file(self, file):
        _assert_same_cardinality(_sketch(*file))

    @pytest.mark.parametrize("precision", [1, 4, 10, 14])
    def test_uniform_register_files(self, precision):
        budget = 1 << precision
        for value in range(64 - precision + 2):
            sketch = _sketch(budget, array("B", [value] * budget))
            _assert_same_cardinality(sketch)
            assert math.isfinite(sketch.cardinality())

    def test_summation_order_shows(self):
        # One register at 0 (term 1.0), the rest at the top rank (term
        # 2**-55): running left to right, 1.0 swallows every tail term;
        # np.sum's pairwise tree adds the tail terms up first and keeps
        # them.  A kernel summing with np.sum would answer ``pairwise``.
        precision = 10
        budget, top = 1 << precision, 64 - precision + 1
        sketch = _sketch(budget, array("B", [0] + [top] * (budget - 1)))
        expected = reference_hll.estimate_cardinality(sketch)
        assert sketch.cardinality() == expected
        terms = np.ldexp(1.0, -np.frombuffer(sketch.registers, np.uint8).astype(int))
        pairwise = _alpha(budget) * budget * budget / float(np.sum(terms))
        assert pairwise != expected
