"""``empty_twin``: what a receiver installs for an anti-matter twin that
travelled as ``None``.

It must be byte-identical to the twin the collector would have built
from no value -- for every family, domain, budget and record count the
builder was sized for -- or the catalog, the estimates and the
convergence images would move with the wire form.
"""

import pytest

from repro.synopses.base import SynopsisType
from repro.synopses.factory import create_builder, empty_twin
from repro.synopses.hll import HyperLogLogBuilder
from repro.synopses.multidim import Synopsis2DType, create_builder_2d
from repro.types import Domain

DOMAINS = [Domain(0, 1023), Domain(-50, 10**6)]


def _built(family, domain, budget, expected_records, values=()):
    builder = create_builder(family, domain, budget, expected_records)
    builder.add_many(sorted(values))
    return builder.build()


@pytest.mark.parametrize("family", list(SynopsisType), ids=lambda f: f.value)
@pytest.mark.parametrize("domain", DOMAINS, ids=str)
@pytest.mark.parametrize("budget", [16, 64, 256])
def test_every_family_rebuilds_the_empty_build(family, domain, budget):
    # The twin is keyed off the *matter* synopsis, which saw values.
    matter = _built(family, domain, budget, 500, range(domain.lo, domain.lo + 500))
    twin = empty_twin(matter)
    assert twin.to_payload() == empty_twin(twin).to_payload()
    for expected_records in (0, 1, 7, 500, 10**6):
        empty = _built(family, domain, budget, expected_records)
        assert empty.to_payload() == twin.to_payload()
        assert empty.total_count == twin.total_count == 0


def test_the_hll_seed_is_part_of_the_shape():
    domain = Domain(0, 1023)
    seeded = HyperLogLogBuilder(domain, 64, hash_seed=7)
    seeded.add_many(range(100))
    twin = empty_twin(seeded.build())
    assert twin.hash_seed == 7
    assert twin.to_payload() == HyperLogLogBuilder(domain, 64, 7).build().to_payload()
    unseeded = _built(SynopsisType.HLL_SKETCH, domain, 64, 0)
    assert twin.to_payload() != unseeded.to_payload()


@pytest.mark.parametrize("family", list(Synopsis2DType), ids=lambda f: f.value)
def test_two_dimensional_families_rebuild_the_empty_build(family):
    domains = (Domain(0, 255), Domain(0, 63))
    builder = create_builder_2d(family, domains, 64)
    for x in range(0, 256, 5):
        builder.add(x, x % 64)
    twin = empty_twin(builder.build())
    empty = create_builder_2d(family, domains, 64).build()
    assert twin.to_payload() == empty.to_payload()


def test_twins_are_memoised_per_shape():
    matter = _built(SynopsisType.EQUI_WIDTH, Domain(0, 99), 8, 3, (1, 2, 3))
    other = _built(SynopsisType.EQUI_WIDTH, Domain(0, 99), 8, 9, (4, 5))
    assert empty_twin(matter) is empty_twin(other)
    wider = _built(SynopsisType.EQUI_WIDTH, Domain(0, 99), 16, 3, (1,))
    assert empty_twin(wider) is not empty_twin(matter)
