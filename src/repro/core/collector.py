"""The statistics collector: the LSM event observer.

This is the heart of the paper's framework.  The collector subscribes
to an LSM event bus; every time a disk component is written (flush,
merge or bulkload) it taps the key-sorted bulkload stream and feeds two
streaming builders -- one for matter records, one for anti-matter
(Section 3.3's synopsis-agnostic "anti"-twin).  When the component is
sealed, both synopses are handed to a :class:`StatisticsSink` --
a local catalog in single-node setups, a network shipper in the
cluster simulation.

Merges build a fresh synopsis from the merge cursor's stream and
retract the inputs' entries: "when computing local statistics during
an LSM-merge we choose to create new synopses from scratch directly on
the newly merged component, discarding earlier statistics altogether"
(Section 3.5).  "Altogether" is one transition: the sink is called
once per lifecycle event (:meth:`repro.lsm.events.EventBus.group`)
with a :class:`StatisticsUpdate` holding every new entry *and* every
retraction, so no catalog ever holds a merged component beside the
inputs it replaced.  A flush transaction over several indexes, a
bulkload and a recovery's re-derivation are one update each too.  An
anti-matter twin whose builder saw no value travels as ``None``;
receivers install the family's empty synopsis
(:func:`~repro.synopses.factory.empty_twin`), byte-identical to the
build it replaces.

Three kinds of registration, all riding the same tap, sinks, catalog
and estimator:

* :meth:`StatisticsCollector.register_index` -- statistics on the
  index's own key (PK or SK), the paper's shipped scope; the sorted
  order comes for free from the index.
* :meth:`StatisticsCollector.register_composite_index` -- 2-D
  statistics on a composite-key B-tree or an R-tree (Section 5), whose
  stream delivers ``(x, y)`` pairs in the lexicographic order the
  :mod:`repro.synopses.multidim` builders need; the family and budget
  are pinned per registration, like the NDV lane's.
* :meth:`StatisticsCollector.register_attribute` -- statistics on an
  arbitrary record attribute observed through an index's stream, in
  which the attribute's values arrive *unsorted*.  Only order-
  insensitive synopsis families (GK sketches, reservoir samples) can
  serve this, which is exactly the paper's Section 5 future-work
  scenario ("relax the condition of relying on a sorted order ...
  methods based on sketches seem to be a promising data summary").
  Known limitation, inherited from the mechanism itself: primary-index
  tombstones carry no attribute values, so attribute-level anti-matter
  cannot be summarised -- deletes are invisible to attribute statistics
  until a merge reconciles them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, Sequence

from repro.core.config import StatisticsConfig
from repro.errors import ConfigurationError
from repro.lsm.columnar import (
    ColumnarChunk,
    columnar_chunk_stream,
    split_matter_anti,
    summary_column_fn,
)
from repro.lsm.component import DiskComponent
from repro.lsm.events import ComponentWriteContext, RecordSink, stage
from repro.lsm.record import Record
from repro.lsm.tree import DEFAULT_WRITE_BATCH_SIZE
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    get_registry,
)
from repro.synopses.base import Synopsis, SynopsisBuilder, SynopsisType
from repro.synopses.factory import create_builder
from repro.synopses.hll import HyperLogLogSynopsis, ndv_statistics_key
from repro.synopses.multidim import Synopsis2DType, create_builder_2d
from repro.types import Domain

__all__ = [
    "StatisticsSink",
    "StatisticsUpdate",
    "StatisticsCollector",
    "attribute_statistics_key",
    "ndv_statistics_key",
]


def attribute_statistics_key(index_name: str, attribute: str) -> str:
    """Catalog key for attribute-level statistics tapped off an index."""
    return f"{index_name}#{attribute}"


Entry = tuple[str, int, Synopsis, Synopsis | None]
"""``(statistics key, component uid, synopsis, anti-matter twin or None)``."""


@dataclass(frozen=True)
class StatisticsUpdate:
    """One lifecycle event's statistics, applied as one transition.

    ``entries`` are the new components' synopsis pairs; an anti-matter
    twin is ``None`` when its builder saw no value.  ``retracts`` are
    the merged-away components' uids per statistics key.  A receiver
    applies every entry, then every retract, with nothing in between.
    """

    entries: tuple[Entry, ...] = ()
    retracts: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def keys(self) -> set[str]:
        """Every statistics key the update touches."""
        return {entry[0] for entry in self.entries} | {
            key for key, _uids in self.retracts
        }


class StatisticsSink(Protocol):
    """Destination for freshly built per-component synopses."""

    def publish(self, update: StatisticsUpdate) -> None:
        """Apply one lifecycle event's statistics (see
        :class:`StatisticsUpdate`)."""


class _Staged:
    """A collector's update under construction in an open event group."""

    __slots__ = ("entries", "retracts")

    def __init__(self) -> None:
        self.entries: list[Entry] = []
        self.retracts: list[tuple[str, tuple[int, ...]]] = []


@dataclass(frozen=True)
class _Instruments:
    """Registry instruments bound once per collector, its only counts.

    The tap (:meth:`_RegistrationSink.accept_many`) runs inside the
    ingestion hot path, so it only touches pre-bound counters -- with
    the no-op registry those are shared do-nothing objects.
    """

    component_writes: Counter
    synopses_published: Counter
    synopses_rederived: Counter
    matter_records: Counter
    antimatter_records: Counter
    build_seconds: Histogram
    sketch_register_bytes: Counter
    sketch_wire_bytes: Counter
    sketch_compression_ratio: Gauge

    @classmethod
    def bind(cls) -> "_Instruments":
        obs = get_registry()
        return cls(
            component_writes=obs.counter("collector.component_writes"),
            synopses_published=obs.counter("collector.synopses.published"),
            synopses_rederived=obs.counter("collector.synopses.rederived"),
            matter_records=obs.counter("collector.records.matter"),
            antimatter_records=obs.counter("collector.records.antimatter"),
            build_seconds=obs.histogram("synopsis.build.seconds"),
            sketch_register_bytes=obs.counter("sketch.registers.bytes"),
            sketch_wire_bytes=obs.counter("sketch.wire.bytes"),
            sketch_compression_ratio=obs.gauge("sketch.compression.ratio"),
        )


@dataclass(frozen=True)
class _Registration:
    """One statistics target riding on an index's component stream.

    ``synopsis_type``/``budget`` of ``None`` mean "use the configured
    family"; the NDV sketch lane pins them to ``HLL_SKETCH`` and its
    register count so it can ride *any* primary family, and a
    composite-key registration pins a 2-D family over a domain pair.
    """

    statistics_key: str
    index_name: str
    domain: Domain | tuple[Domain, Domain]
    value_extractor: Callable[[Record], Any] | None  # None -> index key
    synopsis_type: SynopsisType | Synopsis2DType | None = None
    budget: int | None = None


def _note_sketch_shipment(
    instruments: _Instruments,
    synopsis: Synopsis,
    anti_synopsis: Synopsis | None,
) -> None:
    """Account a published HLL pair's dense vs wire (HBS) bytes (an
    empty twin is not shipped, so it counts neither).  The ratio gauge
    is read off the registry's two counters, which every collector on
    the registry feeds, so it is the registry-wide ratio and not the
    last publisher's own."""
    if not isinstance(synopsis, HyperLogLogSynopsis):
        return
    dense = synopsis.register_bytes()
    wire = synopsis.encoded_bytes()
    if anti_synopsis is not None:
        assert isinstance(anti_synopsis, HyperLogLogSynopsis)
        dense += anti_synopsis.register_bytes()
        wire += anti_synopsis.encoded_bytes()
    instruments.sketch_register_bytes.inc(dense)
    instruments.sketch_wire_bytes.inc(wire)
    wire_total = instruments.sketch_wire_bytes.value
    if wire_total:  # a no-op registry's counters stay at zero
        instruments.sketch_compression_ratio.set(
            instruments.sketch_register_bytes.value / wire_total
        )


class _RegistrationSink:
    """Per-registration tap feeding the matter/anti-matter builders."""

    def __init__(
        self,
        registration: _Registration,
        key_extractor: Callable[[Record], Any],
        builder: SynopsisBuilder,
        anti_builder: SynopsisBuilder,
        emit: Callable[[Iterable[Entry]], None],
        instruments: _Instruments,
    ) -> None:
        self._registration = registration
        self._extractor = (
            registration.value_extractor
            if registration.value_extractor is not None
            else key_extractor
        )
        # An extractor with no column to read fails the write here,
        # typed, before a single chunk flows.
        summary_column_fn(self._extractor)
        self._builder = builder
        self._anti_builder = anti_builder
        self._anti_seen = False
        self._emit = emit
        self._instruments = instruments

    def accept(self, record: Record) -> None:
        """Observe one record: a chunk of one through :meth:`accept_many`
        (the API edge for callers holding single records)."""
        self.accept_many(ColumnarChunk.from_records((record,)))

    def accept_many(self, chunk: ColumnarChunk) -> None:
        """Observe one chunk of the bulkload stream.

        Splits the chunk's columns into matter/anti-matter value
        sequences in one pass and feeds each builder's ``add_many``;
        for raw-key registrations over pure-matter integer chunks the
        typed key buffer goes straight to ``add_many`` with no copy at
        all.  ``None`` values are skipped: attribute extractors yield
        them for tombstones (no payload) and records missing the
        attribute.
        """
        self.observe(split_matter_anti(chunk, self._extractor))

    def observe(self, split: tuple[Sequence[Any], Sequence[Any]]) -> None:
        """Feed one chunk's (matter, anti-matter) split to the builders;
        the values are read, never mutated."""
        matter_seq, anti_seq = split
        instruments = self._instruments
        if anti_seq:
            instruments.antimatter_records.inc(len(anti_seq))
            self._anti_builder.add_many(anti_seq)
            self._anti_seen = True
        if matter_seq:
            instruments.matter_records.inc(len(matter_seq))
            self._builder.add_many(matter_seq)

    def finish(self, component: DiskComponent) -> None:
        started = time.perf_counter()
        synopsis = self._builder.build()
        # An anti-matter twin that saw no value is the family's empty
        # synopsis: it is not built here, and it travels as None.
        anti_synopsis = self._anti_builder.build() if self._anti_seen else None
        self._instruments.build_seconds.observe(time.perf_counter() - started)
        _note_sketch_shipment(self._instruments, synopsis, anti_synopsis)
        key = self._registration.statistics_key
        self._emit([(key, component.uid, synopsis, anti_synopsis)])


class _CompositeSink:
    """Fans one component write out to several registration sinks."""

    def __init__(self, sinks: list[_RegistrationSink]) -> None:
        self._sinks = sinks

    def accept(self, record: Record) -> None:
        self.accept_many(ColumnarChunk.from_records((record,)))

    def accept_many(self, chunk: ColumnarChunk) -> None:
        # Registrations on one index share its extractor (a family and
        # its #ndv lane): split the chunk once per extractor.
        splits: dict[Any, tuple[Sequence[Any], Sequence[Any]]] = {}
        for sink in self._sinks:
            split = splits.get(sink._extractor)
            if split is None:
                split = splits[sink._extractor] = split_matter_anti(
                    chunk, sink._extractor
                )
            sink.observe(split)

    def finish(self, component: DiskComponent) -> None:
        for sink in self._sinks:
            sink.finish(component)


class StatisticsCollector:
    """LSM event observer building synopses for registered targets."""

    def __init__(self, config: StatisticsConfig, sink: StatisticsSink) -> None:
        if not config.enabled:
            raise ConfigurationError(
                "StatisticsCollector requires an enabled configuration; "
                "for the NoStats baseline simply do not attach a collector"
            )
        self.config = config
        self.sink = sink
        self._instruments = _Instruments.bind()
        # index name -> registrations tapping that index's stream
        self._registrations: dict[str, list[_Registration]] = {}

    def register_index(self, index_name: str, domain: Domain) -> None:
        """Enable statistics on one LSM index's key over ``domain``."""
        self._register(
            _Registration(index_name, index_name, domain, None)
        )

    def register_attribute(
        self,
        index_name: str,
        attribute: str,
        domain: Domain,
        value_extractor: Callable[[Record], Any] | None = None,
    ) -> str:
        """Enable statistics on an arbitrary (unsorted) record attribute.

        The attribute's values are read off ``index_name``'s component
        stream (normally the primary index, whose records carry the full
        payload).  Requires an order-insensitive synopsis family; the
        default extractor reads ``record.value[attribute]``.

        Returns the statistics key to query the estimator with.
        """
        synopsis_type = self.config.synopsis_type
        assert synopsis_type is not None
        if synopsis_type.requires_sorted_input:
            raise ConfigurationError(
                f"synopsis type {synopsis_type.value} requires sorted input "
                "and cannot summarise a non-indexed attribute; use a "
                "gk_sketch or reservoir_sample configuration"
            )
        if value_extractor is None:
            def value_extractor(record: Record) -> Any:
                payload = record.value
                if not isinstance(payload, dict):
                    return None
                return payload.get(attribute)

            # The tag is what the columnar tap reads: the payload column
            # it names (ColumnarChunk.payload_column has identical None
            # rules).  An untagged custom extractor is rejected when
            # the tap opens.
            value_extractor.payload_field = attribute  # type: ignore[attr-defined]

        key = attribute_statistics_key(index_name, attribute)
        self._register(_Registration(key, index_name, domain, value_extractor))
        return key

    def register_composite_index(
        self,
        index_name: str,
        domains: tuple[Domain, Domain],
        synopsis_type: Synopsis2DType = Synopsis2DType.GRID,
        budget: int = 1024,
    ) -> None:
        """Enable 2-D statistics on a composite-key B-tree or R-tree
        index, whose key extractor yields ``(x, y)`` pairs.

        The estimator then takes a rectangle ``(lo_x, hi_x, lo_y,
        hi_y)`` where a 1-D index takes ``(lo, hi)``.  2-D statistics
        are local: neither the cluster wire nor ``load_catalog``
        deserialises a 2-D payload.
        """
        if budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        self._register(
            _Registration(
                index_name, index_name, domains, None, synopsis_type, budget
            )
        )

    def _register(self, registration: _Registration) -> None:
        bucket = self._registrations.setdefault(registration.index_name, [])
        bucket[:] = [
            existing
            for existing in bucket
            if existing.statistics_key != registration.statistics_key
        ]
        bucket.append(registration)
        # The NDV lane: every configured-family target gets an HLL twin
        # registration under its ``#ndv`` key, sharing the extractor
        # and the component stream (docs/SKETCHES.md lifecycle).
        if self.config.ndv_enabled and registration.synopsis_type is None:
            self._register(
                _Registration(
                    ndv_statistics_key(registration.statistics_key),
                    registration.index_name,
                    registration.domain,
                    registration.value_extractor,
                    synopsis_type=SynopsisType.HLL_SKETCH,
                    budget=1 << self.config.ndv_precision,
                )
            )

    def _builder_pair(
        self, registration: _Registration, expected_records: int
    ) -> tuple[SynopsisBuilder, SynopsisBuilder]:
        """The matter/anti builder twins for one registration."""
        synopsis_type = (
            registration.synopsis_type
            if registration.synopsis_type is not None
            else self.config.synopsis_type
        )
        assert synopsis_type is not None
        budget = (
            registration.budget
            if registration.budget is not None
            else self.config.budget
        )
        domain = registration.domain
        if isinstance(synopsis_type, Synopsis2DType):
            return (
                create_builder_2d(synopsis_type, domain, budget),
                create_builder_2d(synopsis_type, domain, budget),
            )
        return (
            create_builder(synopsis_type, domain, budget, expected_records),
            create_builder(synopsis_type, domain, budget, expected_records),
        )

    def registered_keys(self) -> list[str]:
        """All statistics keys with collection enabled."""
        return sorted(
            registration.statistics_key
            for bucket in self._registrations.values()
            for registration in bucket
        )

    # -- LSMEventObserver ----------------------------------------------------

    def begin_component_write(
        self, context: ComponentWriteContext
    ) -> RecordSink | None:
        sink = self._open_sink(
            context.index_name, context.key_extractor, context.expected_records
        )
        if sink is not None:
            self._instruments.component_writes.inc()
        return sink

    def _open_sink(
        self,
        index_name: str,
        key_extractor: Callable[[Record], Any],
        expected_records: int,
    ) -> "_RegistrationSink | _CompositeSink | None":
        """The tap for one component of ``index_name`` (live write or
        recovery re-derivation), or ``None`` with nothing registered."""
        registrations = self._registrations.get(index_name)
        if not registrations:
            return None
        sinks = [
            _RegistrationSink(
                registration,
                key_extractor,
                *self._builder_pair(registration, expected_records),
                self._emit,
                self._instruments,
            )
            for registration in registrations
        ]
        if len(sinks) == 1:
            return sinks[0]
        return _CompositeSink(sinks)

    def component_replaced(
        self,
        index_name: str,
        old_components: tuple[DiskComponent, ...],
        new_component: DiskComponent,
    ) -> None:
        uids = tuple(c.uid for c in old_components)
        self._emit(
            retracts=[
                (registration.statistics_key, uids)
                for registration in self._registrations.get(index_name, ())
            ]
        )

    def _emit(
        self,
        entries: Iterable[Entry] = (),
        retracts: Iterable[tuple[str, tuple[int, ...]]] = (),
    ) -> None:
        """Stage entries and retracts into this thread's open event
        group, or -- outside any group -- publish them at once."""
        staged = stage(self, _Staged)
        if staged is None:
            self._publish(tuple(entries), tuple(retracts))
        else:
            staged.entries.extend(entries)
            staged.retracts.extend(retracts)

    def close_group(self, staged: _Staged, committed: bool) -> None:
        """The event group closed: one sink call for all it staged."""
        if committed:
            self._publish(tuple(staged.entries), tuple(staged.retracts))

    def _publish(
        self,
        entries: tuple[Entry, ...],
        retracts: tuple[tuple[str, tuple[int, ...]], ...],
    ) -> None:
        if not entries and not retracts:
            return
        self.sink.publish(StatisticsUpdate(entries, retracts))
        self._instruments.synopses_published.inc(2 * len(entries))

    def components_recovered(
        self,
        index_name: str,
        components: Sequence[DiskComponent],
        key_extractor: Callable[[Record], Any],
    ) -> None:
        """Re-derive and republish synopses for recovered components.

        Crash recovery reinstates disk components from the manifest
        without replaying the component-write stream, so each
        component's scan is re-chunked and fed through the same tap a
        live write uses.  The builders get the same geometry as the
        original write (the descriptor persists ``expected_records``),
        so deterministic synopsis families reproduce the pre-crash
        payloads exactly; randomised families (reservoir samples) are
        only statistically equivalent.
        """
        pairs = len(self._registrations.get(index_name, ()))
        for component in components:
            sink = self._open_sink(
                index_name, key_extractor, component.expected_records
            )
            if sink is None:  # nothing registered on this index
                return
            for chunk in columnar_chunk_stream(
                component.scan(), DEFAULT_WRITE_BATCH_SIZE
            ):
                sink.accept_many(chunk)
            sink.finish(component)
            self._instruments.synopses_rederived.inc(2 * pairs)
