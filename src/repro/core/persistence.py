"""Catalog persistence.

The paper persists synopses "in the system catalog, so that [they] can
be used during query optimization" (Section 3.4) -- surviving restarts
is the point of a catalog.  This module serialises a
:class:`~repro.core.catalog.StatisticsCatalog` to a file and
restores it, re-inserting entries in their original version order so
relative freshness (which the merged-synopsis cache's staleness check
relies on) is preserved.  Absolute version numbers restart from the
entry count, which is harmless: caches are empty after a restart.

The file is the statistics wire format (:mod:`repro.cluster.wire`,
the codec the synopses already cross the network in): one frame
holding ``format``, ``checksum`` and ``entries`` -- the entry list,
itself encoded as one frame, with the CRC-32 of exactly those bytes.
The catalog file is the one artefact that crosses process lifetimes,
so it gets the same paranoia as the WAL and manifest: a truncated or
bit-flipped file is rejected instead of silently loading a partial
catalog, and per-entry ``epoch`` stamps preserve the node-restart
fencing state across a master restart.

Format 3 is the first binary one.  Files of format 2 and older were
JSON text (hex-coded sketches, a checksum over a canonical re-dump)
and are rejected with a :class:`~repro.errors.CatalogError` naming
both versions -- the format guard, not silent best-effort parsing.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any

from repro.cluster import wire
from repro.core.catalog import StatisticsCatalog
from repro.errors import CatalogError, SynopsisError, WireError
from repro.synopses.factory import synopsis_from_payload

__all__ = ["save_catalog", "load_catalog", "CATALOG_FORMAT_VERSION"]

CATALOG_FORMAT_VERSION = 3


def save_catalog(catalog: StatisticsCatalog, path: str | Path) -> int:
    """Serialise every live entry; returns the number written."""
    entries: list[dict[str, Any]] = []
    for index_name in catalog.index_names():
        for entry in catalog.entries_for(index_name):
            entries.append(
                {
                    "index": entry.index_name,
                    "node": entry.node_id,
                    "partition": entry.partition_id,
                    "component_uid": entry.component_uid,
                    "version": entry.version,
                    "epoch": entry.epoch,
                    "synopsis": entry.synopsis.to_payload(),
                    "anti_synopsis": entry.anti_synopsis.to_payload(),
                }
            )
    entries.sort(key=lambda e: e["version"])
    frame = wire.encode(entries)
    document = {
        "format": CATALOG_FORMAT_VERSION,
        "checksum": zlib.crc32(frame),
        "entries": frame,
    }
    Path(path).write_bytes(wire.encode(document))
    return len(entries)


def load_catalog(path: str | Path) -> StatisticsCatalog:
    """Restore a catalog saved by :func:`save_catalog`.

    Raises :class:`~repro.errors.CatalogError` on a missing file, a
    file that is not a frame (format 2 and older, garbage), an
    unsupported format version, a checksum mismatch (truncation/bit
    rot), or structurally invalid entries.
    """
    path = Path(path)
    if not path.exists():
        raise CatalogError(f"no catalog file at {path}")
    try:
        document = wire.decode(path.read_bytes())
    except WireError as exc:
        raise CatalogError(
            f"catalog file {path} is not a format-{CATALOG_FORMAT_VERSION} "
            f"catalog (truncated or corrupted, or written as format 2 or "
            f"older, which were JSON text and are no longer read): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise CatalogError(f"catalog file {path} does not hold a catalog document")
    if document.get("format") != CATALOG_FORMAT_VERSION:
        raise CatalogError(
            f"unsupported catalog format {document.get('format')!r} "
            f"(expected {CATALOG_FORMAT_VERSION})"
        )
    frame = document.get("entries")
    if not isinstance(frame, bytes):
        raise CatalogError(f"catalog file {path} has no entry list")
    if document.get("checksum") != zlib.crc32(frame):
        raise CatalogError(
            f"catalog file {path} failed its checksum "
            "(truncated or corrupted)"
        )
    try:
        entries = wire.decode(frame)
    except WireError as exc:
        raise CatalogError(f"catalog file {path}: corrupt entry list: {exc}") from exc
    if not isinstance(entries, list):
        raise CatalogError(f"catalog file {path} has no entry list")
    catalog = StatisticsCatalog()
    for position, entry in enumerate(entries):
        try:
            catalog.put(
                entry["index"],
                entry["node"],
                entry["partition"],
                entry["component_uid"],
                synopsis_from_payload(entry["synopsis"]),
                synopsis_from_payload(entry["anti_synopsis"]),
                epoch=int(entry.get("epoch", 0)),
            )
        except (KeyError, TypeError, ValueError, SynopsisError) as exc:
            raise CatalogError(
                f"catalog file {path}: malformed entry {position}: {exc!r}"
            ) from exc
    return catalog
