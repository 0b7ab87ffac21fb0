"""Columnar chunks: the write path's record representation.

Every disk component is built from a stream of :class:`ColumnarChunk`
objects -- one key column, one value column, one anti-matter column
and one seqnum column per chunk -- so no stage pays per-record
attribute walks and a bulkload allocates no ``Record`` per input row.
The chunks flow end-to-end through

    memtable ``sorted_columnar_chunks`` / bulkload stamping /
    merge-cursor re-chunking (``columnar_chunk_stream``)
      -> ``LSMTree._write_component`` (bloom + observer taps)
      -> ``build_btree_chunks`` (columnar leaf packing)
      -> ``StatisticsCollector`` / ``SynopsisBuilder.add_many``

Integer key columns additionally freeze into a typed ``array('q')``
buffer that synopsis builders consume without a normalising copy.

The full contract -- column layout, dtype rules, ownership, how a
statistics extractor names its column, and how equivalence with the
naive per-record reference (``tests/lsm/reference.py``) is verified --
is docs/DATAPATH.md.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.lsm.record import Record
from repro.util.npbackend import INT64_TYPECODE

__all__ = [
    "ColumnarChunk",
    "columnar_chunk_stream",
    "register_summary_extractor",
    "split_matter_anti",
    "summary_column_fn",
]


class ColumnarChunk:
    """One immutable slice of a key-sorted component-write stream.

    Columns (see docs/DATAPATH.md for the full layout rules):

    * ``typed_keys`` -- ``array('q')`` of the keys, present only when
      every key fits a signed 64-bit integer; the canonical key storage
      for primary indexes.  ``None`` for non-integer keys (tuples,
      strings), in which case the Python-object key column is primary.
    * ``values`` -- payload column, or ``None`` meaning *every* value
      is ``None`` (secondary-index entries, tombstone-only chunks).
    * ``anti`` -- per-row anti-matter flags, or ``None`` meaning the
      chunk is pure matter (the common flush/bulkload case);
      ``antimatter_count`` is precomputed either way.
    * ``seqnums`` -- per-row sequence numbers; a ``range`` when the
      rows were bulk-stamped, which is both the cheapest and the most
      compressible representation.

    Chunks are write-once: no consumer may mutate a column.  Every
    consumer reads columns; ``Record`` objects are only ever built
    from them on the read side (a B-tree or R-tree leaf, lazily).
    """

    __slots__ = (
        "_keys",
        "typed_keys",
        "values",
        "anti",
        "antimatter_count",
        "seqnums",
        "_length",
    )

    def __init__(
        self,
        keys: list[Any] | None,
        typed_keys: "array[int] | None",
        values: list[Any] | None,
        anti: list[bool] | None,
        antimatter_count: int,
        seqnums: Sequence[int],
    ) -> None:
        self._keys = keys
        self.typed_keys = typed_keys
        self.values = values
        self.anti = anti
        self.antimatter_count = antimatter_count
        self.seqnums = seqnums
        self._length = len(keys) if keys is not None else len(typed_keys)  # type: ignore[arg-type]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "ColumnarChunk":
        """Columnarise an existing record slice (flush/merge paths)."""
        records = list(records)
        keys = [record.key for record in records]
        anti = [record.antimatter for record in records]
        antimatter_count = sum(anti)
        values = [record.value for record in records]
        return cls(
            keys,
            _freeze_keys(keys),
            values if any(value is not None for value in values) else None,
            anti if antimatter_count else None,
            antimatter_count,
            [record.seqnum for record in records],
        )

    @classmethod
    def from_columns(
        cls,
        keys: list[Any],
        values: list[Any] | None = None,
        seqnums: Sequence[int] | None = None,
        anti: list[bool] | None = None,
    ) -> "ColumnarChunk":
        """Build a chunk directly from columns (the bulkload hot path,
        where no ``Record`` objects need ever exist).

        ``values=None`` declares an all-``None`` value column and
        ``anti=None`` a pure-matter chunk; ``seqnums`` defaults to all
        zeros (unstamped), and a ``range`` is the preferred form for
        bulk-stamped chunks.
        """
        if values is not None and not any(
            value is not None for value in values
        ):
            values = None
        antimatter_count = sum(anti) if anti is not None else 0
        if not antimatter_count:
            anti = None
        return cls(
            keys,
            _freeze_keys(keys),
            values,
            anti,
            antimatter_count,
            seqnums if seqnums is not None else [0] * len(keys),
        )

    # -- accessors -------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def keys_list(self) -> list[Any]:
        """The key column as Python objects (lazily thawed from the
        typed buffer; ``array('q')`` iteration yields plain ints, so
        the thaw changes representation, never values)."""
        if self._keys is None:
            assert self.typed_keys is not None
            self._keys = self.typed_keys.tolist()
        return self._keys

    def payload_column(self, field: str) -> list[Any]:
        """Per-row ``value[field]`` with the same ``None`` semantics as
        the per-record attribute extractor: ``None`` for tombstones,
        non-dict payloads and missing fields."""
        values = self.values
        if values is None:
            return [None] * self._length
        return [
            value.get(field) if isinstance(value, dict) else None
            for value in values
        ]


def _freeze_keys(keys: list[Any]) -> "array[int] | None":
    """The typed twin of a key column, or ``None`` for keys that are
    not int64-representable (tuple/string keys keep the object column
    as primary -- the dtype rule of docs/DATAPATH.md)."""
    try:
        return array(INT64_TYPECODE, keys)
    except (TypeError, OverflowError):
        return None


def columnar_chunk_stream(
    stream: Iterable[Record], chunk_size: int
) -> Iterator[ColumnarChunk]:
    """Drain a record stream into consecutive columnar chunks.

    The edge adapter for sources that are inherently per-record (the
    merge cursor's reconciled stream, a recovered component's scan, the
    record-stream ``build_btree``); ordering is preserved exactly.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = iter(stream)
    while True:
        chunk = list(itertools.islice(iterator, chunk_size))
        if not chunk:
            return
        yield ColumnarChunk.from_records(chunk)


# -- summary-column extraction -------------------------------------------
#
# A statistics registration names its summarised value by an extractor
# (record -> value).  So the collector never has to call it per row,
# known extractor *functions* register a column twin here (chunk ->
# value column); attribute extractors instead carry a ``payload_field``
# attribute naming the payload key they read.  An extractor with
# neither is rejected when its tap opens (``summary_column_fn``).

_SUMMARY_COLUMNS: dict[Any, Callable[[ColumnarChunk], list[Any]]] = {}
_RAW_KEY_EXTRACTORS: set[Any] = set()


def register_summary_extractor(
    extractor: Callable[[Record], Any],
    column_fn: Callable[[ColumnarChunk], list[Any]] | None = None,
    *,
    raw_key: bool = False,
) -> None:
    """Register the column twin of a per-record value extractor.

    ``raw_key=True`` declares that ``extractor(record)`` is exactly
    ``record.key``, unlocking the zero-copy fast path: a pure-matter
    chunk with typed keys feeds its ``array('q')`` buffer straight into
    ``SynopsisBuilder.add_many``.
    """
    if raw_key:
        _RAW_KEY_EXTRACTORS.add(extractor)
        column_fn = ColumnarChunk.keys_list
    if column_fn is None:
        raise ValueError("register_summary_extractor needs a column_fn")
    _SUMMARY_COLUMNS[extractor] = column_fn


def summary_column_fn(
    extractor: Callable[[Record], Any],
) -> Callable[[ColumnarChunk], Sequence[Any]]:
    """The column twin of a value extractor (chunk -> value column).

    Raises :class:`~repro.errors.ConfigurationError` for an extractor
    with neither a registered twin nor a ``payload_field`` tag: every
    consumer reads columns, so there is no per-record slow path to
    fall back to.  The collector calls this when a tap opens, which
    turns an unknown extractor into a failed write rather than a
    silently dropped observer.
    """
    column_fn = _SUMMARY_COLUMNS.get(extractor)
    if column_fn is not None:
        return column_fn
    field = getattr(extractor, "payload_field", None)
    if field is None:
        raise ConfigurationError(
            f"value extractor {extractor!r} has no column twin: register "
            "one with register_summary_extractor, or tag the function "
            "with a payload_field attribute naming the payload key it reads"
        )
    return lambda chunk: chunk.payload_column(field)


_NO_VALUES: tuple[Any, ...] = ()


def split_matter_anti(
    chunk: ColumnarChunk, extractor: Callable[[Record], Any]
) -> tuple[Sequence[Any], Sequence[Any]]:
    """Split a chunk into (matter values, anti values) for one
    statistics registration, reading columns only.

    Row order is preserved within each class and ``None`` values are
    skipped, so feeding the results to ``add_many`` is bit-identical
    to per-record ``add`` calls in stream order.
    """
    if (
        chunk.anti is None
        and chunk.typed_keys is not None
        and extractor in _RAW_KEY_EXTRACTORS
    ):
        # Pure matter, int keys, raw-key registration: the typed
        # column *is* the matter value sequence; no copy at all.
        return chunk.typed_keys, _NO_VALUES
    column = summary_column_fn(extractor)(chunk)
    anti = chunk.anti
    if anti is None:
        return [value for value in column if value is not None], _NO_VALUES
    matter_values = []
    anti_values: list[Any] = []
    for value, is_anti in zip(column, anti):
        if value is None:
            continue
        if is_anti:
            anti_values.append(value)
        else:
            matter_values.append(value)
    return matter_values, anti_values
