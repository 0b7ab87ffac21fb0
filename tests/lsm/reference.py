"""The deliberately naive per-component reference (docs/DATAPATH.md).

What one disk component must contain, worked out the slow, obvious way
from the records that streamed into it: leaves by plain list slicing,
the Bloom filter by one ``BloomFilter.add`` per key, each synopsis pair
by one ``SynopsisBuilder.add`` per value -- no columns, no ``add_all``,
no ``add_many``.  :class:`ReferenceObserver` holds every component the
real write path produces against it."""

from types import SimpleNamespace

from repro.lsm.bloom import BloomFilter
from repro.lsm.record import Record
from repro.synopses.factory import create_builder, empty_twin
from repro.synopses.multidim import Synopsis2DType, create_builder_2d


def reference_component(records, expected_records, leaf_capacity, bloom_fpp):
    """(leaves, bloom bits, matter count, anti-matter count)."""
    bits = None
    if bloom_fpp is not None:
        bloom = BloomFilter.for_capacity(max(1, expected_records), bloom_fpp)
        for record in records:
            bloom.add(record.key)
        bits = bytes(bloom._bits)
    leaves = [
        records[start : start + leaf_capacity]
        for start in range(0, len(records), leaf_capacity)
    ]
    anti = sum(record.antimatter for record in records)
    return leaves, bits, len(records) - anti, anti


def chunk_records(chunk):
    """The rows of a columnar chunk as the records the reference reads."""
    values = chunk.values or [None] * len(chunk)
    anti = chunk.anti or [False] * len(chunk)
    return list(map(Record, chunk.keys_list(), values, anti, chunk.seqnums))


def reference_builder_factory(reg, config, expected_records):
    """What builds one registration's synopsis: the pinned family and
    budget or the configured ones; a 2-D family takes the domain pair."""
    synopsis_type = reg.synopsis_type or config.synopsis_type
    budget = reg.budget or config.budget
    if isinstance(synopsis_type, Synopsis2DType):
        return lambda: create_builder_2d(synopsis_type, reg.domain, budget)
    return lambda: create_builder(
        synopsis_type, reg.domain, budget, expected_records
    )


def reference_synopsis_pair(records, extractor, make_builder):
    """(matter payload, anti-matter payload); 2-D builders add(x, y)."""
    builder, anti_builder = make_builder(), make_builder()
    for record in records:
        value = extractor(record)
        if value is not None:
            target = anti_builder if record.antimatter else builder
            target.add(*value) if isinstance(value, tuple) else target.add(value)
    return builder.build().to_payload(), anti_builder.build().to_payload()


def actual_component(component):
    """The :func:`reference_component` tuple of a written component."""
    index, leaves = component.btree, []
    page_no = index._first_leaf
    while page_no is not None:
        page = index._file.read_page(page_no)
        leaves.append(list(page.records))
        page_no = page.next_leaf
    bits = bytes(component.bloom._bits) if component.bloom is not None else None
    return leaves, bits, component.matter_count, component.antimatter_count


class ReferenceObserver:
    """Event-bus observer *and* the sink of ``self.collector``.  ``actual``
    (the write path) and ``expected`` (the reference) are keyed
    ("component", index, uid) and (statistics key, uid)."""

    def __init__(self, trees):
        self.trees = {tree.name: tree for tree in trees}
        self.collector = None
        self.actual = {}
        self.expected = {}

    def publish(self, update):
        # A twin that travels as None is what every receiver installs:
        # the family's empty synopsis, held to the reference's build.
        for key, uid, synopsis, anti_synopsis in update.entries:
            if anti_synopsis is None:
                anti_synopsis = empty_twin(synopsis)
            self.actual[key, uid] = synopsis.to_payload(), anti_synopsis.to_payload()

    component_replaced = lambda self, *args: None

    def begin_component_write(self, context):
        records = []
        return SimpleNamespace(
            accept_many=lambda chunk: records.extend(chunk_records(chunk)),
            finish=lambda component: self._check(context, component, records),
        )

    def _check(self, context, component, records):
        name, expected_records = context.index_name, context.expected_records
        tree, uid = self.trees[name], component.uid
        self.actual["component", name, uid] = actual_component(component)
        self.expected["component", name, uid] = reference_component(
            records, expected_records, tree.leaf_capacity, tree.bloom_fpp
        )
        for reg in getattr(self.collector, "_registrations", {}).get(name, ()):
            self.expected[reg.statistics_key, uid] = reference_synopsis_pair(
                records,
                reg.value_extractor or context.key_extractor,
                reference_builder_factory(
                    reg, self.collector.config, expected_records
                ),
            )

    def mismatches(self):
        """Keys of every component / synopsis pair that differs."""
        assert self.expected, "the observer saw no component write"
        return [k for k, v in self.expected.items() if self.actual.get(k) != v]
