"""Component manifest: the durable source of truth for LSM structure.

Real LSM engines persist the set of live SSTables in a MANIFEST log;
recovery replays it to learn which files are components and which are
garbage.  This module is that log for the simulated disk.  Every
component-creating operation is *two-phase*:

1. a ``*.begin`` entry records the intent (flush/merge/bulkload about
   to build a file) -- if the process dies mid-build, the half-built
   file has no commit entry and recovery GCs it as an orphan;
2. a ``*.commit`` entry atomically installs the built component by
   persisting its :class:`ComponentDescriptor` (and, for merges, the
   file ids it replaces).

Dataset flushes add a transaction layer on top: each per-tree flush
commit is stamped with a transaction id, and the whole multi-tree flush
only takes effect once the matching ``txn.commit`` entry is durable.
Replay *voids* component commits whose transaction never committed, so
a crash between two trees' flushes can never install the primary's
component without its secondaries' (no torn dataset flush).

Every entry carries a checksum; replay verifies it and raises
:class:`~repro.errors.ManifestError` on corruption.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ManifestError
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.storage import FileHandle, SimulatedDisk
from repro.obs.registry import get_registry

__all__ = ["Manifest", "ManifestState", "ComponentDescriptor", "MANIFEST_EVENTS"]

MANIFEST_EVENTS = ("flush", "merge", "bulkload")
"""Component-creating operations the manifest records."""


@dataclass(frozen=True)
class ComponentDescriptor:
    """Everything recovery needs to reopen one disk component.

    ``ordinal`` is the manifest entry index of the commit that installed
    the component.  Within a tree, ordinals follow creation order, so
    recovery can mint fresh component uids in the same relative order as
    the crashed process did -- the statistics catalog compares component
    identity by rank, not by raw uid.
    """

    tree: str
    min_seq: int
    max_seq: int
    matter_count: int
    antimatter_count: int
    expected_records: int
    btree: dict[str, Any]
    ordinal: int

    @property
    def file_id(self) -> int:
        return self.btree["file_id"]


@dataclass
class ManifestState:
    """The result of replaying a manifest log.

    Attributes:
        components: Per-tree live descriptors, **newest first** (the
            order :class:`~repro.lsm.tree.LSMTree` keeps components in).
        committed_txns: Ids of flush transactions that fully committed.
        next_txn: First unused transaction id.
    """

    components: dict[str, list[ComponentDescriptor]] = field(
        default_factory=dict
    )
    committed_txns: set[int] = field(default_factory=set)
    next_txn: int = 0

    def live_file_ids(self) -> set[int]:
        """Component files referenced by the live descriptors."""
        return {
            descriptor.file_id
            for descriptors in self.components.values()
            for descriptor in descriptors
        }

    def descriptors_by_ordinal(self) -> list[ComponentDescriptor]:
        """All live descriptors across trees, in creation order."""
        return sorted(
            (
                descriptor
                for descriptors in self.components.values()
                for descriptor in descriptors
            ),
            key=lambda descriptor: descriptor.ordinal,
        )


def _entry_checksum(kind: str, tree: str | None, txn: int | None, payload: Any) -> int:
    return zlib.crc32(repr((kind, tree, txn, payload)).encode())


class Manifest:
    """An append-only log of component lifecycle entries.

    Args:
        disk: The partition's simulated disk.
        name: Namespace (e.g. ``"orders.p3"``); the manifest file id is
            kept under ``manifest:<name>`` in the disk's superblock.
        recover: Reopen the existing manifest named in the superblock
            instead of starting a fresh one.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        name: str,
        recover: bool = False,
        crash_injector: CrashInjector | None = None,
    ) -> None:
        self.disk = disk
        self.name = name
        self._injector = crash_injector
        self._m_txns = get_registry().counter("manifest.txns")
        superblock_key = self._superblock_key
        if recover and superblock_key in disk.superblock:
            self._file = FileHandle(disk, disk.superblock[superblock_key])
        else:
            self._file = disk.create_file()
            disk.superblock[superblock_key] = self._file.file_id
        # Seed the txn counter past anything already logged so restarted
        # nodes never reuse a transaction id.
        self._next_txn = 0
        if recover:
            self._next_txn = self.replay().next_txn

    @property
    def _superblock_key(self) -> str:
        return f"manifest:{self.name}"

    @property
    def file_id(self) -> int:
        """Id of the manifest file (a live reference for GC)."""
        return self._file.file_id

    def _fire(self, point: str) -> None:
        if self._injector is not None:
            self._injector.reached(point)

    def _append(
        self,
        kind: str,
        tree: str | None,
        txn: int | None,
        payload: Any,
    ) -> None:
        self._file.append_page(
            {
                "kind": kind,
                "tree": tree,
                "txn": txn,
                "payload": payload,
                "crc": _entry_checksum(kind, tree, txn, payload),
            }
        )

    # -- write path ------------------------------------------------------

    def begin(
        self,
        event: str,
        tree: str,
        txn: int | None = None,
        payload: Any = None,
    ) -> None:
        """Record intent: ``event`` on ``tree`` is about to build a file."""
        if event not in MANIFEST_EVENTS:
            raise ManifestError(f"unknown manifest event {event!r}")
        self._append(f"{event}.begin", tree, txn, payload)
        self._fire("manifest.begin")

    def commit(
        self,
        event: str,
        tree: str,
        descriptor: ComponentDescriptor,
        replaces: tuple[int, ...] = (),
        txn: int | None = None,
    ) -> None:
        """Atomically install a built component.

        ``replaces`` names the file ids of the components a merge
        supersedes; flush/bulkload commits replace nothing.
        """
        if event not in MANIFEST_EVENTS:
            raise ManifestError(f"unknown manifest event {event!r}")
        payload = {
            "descriptor": {
                "tree": descriptor.tree,
                "min_seq": descriptor.min_seq,
                "max_seq": descriptor.max_seq,
                "matter_count": descriptor.matter_count,
                "antimatter_count": descriptor.antimatter_count,
                "expected_records": descriptor.expected_records,
                "btree": dict(descriptor.btree),
            },
            "replaces": list(replaces),
        }
        self._append(f"{event}.commit", tree, txn, payload)
        self._fire("manifest.commit")

    def begin_txn(self) -> int:
        """Open a multi-tree flush transaction; returns its id."""
        txn = self._next_txn
        self._next_txn += 1
        self._append("txn.begin", None, txn, None)
        return txn

    def commit_txn(self, txn: int) -> None:
        """Durably commit a flush transaction: every component commit
        stamped with ``txn`` takes effect at once."""
        self._append("txn.commit", None, txn, None)
        self._m_txns.inc()
        self._fire("txn.commit")

    # -- recovery --------------------------------------------------------

    def replay(self) -> ManifestState:
        """Fold the log into the current live-component state."""
        entries = [
            self._read_entry(page_no) for page_no in range(self._file.num_pages)
        ]

        state = ManifestState()
        for entry in entries:
            txn = entry["txn"]
            if txn is not None:
                state.next_txn = max(state.next_txn, txn + 1)
            if entry["kind"] == "txn.commit":
                state.committed_txns.add(txn)

        for ordinal, entry in enumerate(entries):
            kind = entry["kind"]
            if not kind.endswith(".commit") or kind == "txn.commit":
                continue
            txn = entry["txn"]
            if txn is not None and txn not in state.committed_txns:
                continue  # voided: its dataset flush never committed
            descriptor = self._descriptor_from(entry, ordinal)
            # Oldest-first while folding; reversed to newest-first below.
            live = state.components.setdefault(descriptor.tree, [])
            replaces = set(entry["payload"]["replaces"])
            if replaces:
                self._splice_merge(live, descriptor, replaces)
            else:
                live.append(descriptor)

        state.components = {
            tree: list(reversed(descriptors))
            for tree, descriptors in state.components.items()
        }
        return state

    def _splice_merge(
        self,
        live: list[ComponentDescriptor],
        merged: ComponentDescriptor,
        replaces: set[int],
    ) -> None:
        indices = [
            i for i, d in enumerate(live) if d.file_id in replaces
        ]
        if len(indices) != len(replaces):
            raise ManifestError(
                f"manifest {self.name!r}: merge commit for "
                f"{merged.tree!r} replaces unknown components"
            )
        if indices != list(range(indices[0], indices[-1] + 1)):
            raise ManifestError(
                f"manifest {self.name!r}: merge commit for "
                f"{merged.tree!r} replaces a non-contiguous run"
            )
        live[indices[0] : indices[-1] + 1] = [merged]

    def _descriptor_from(
        self, entry: dict[str, Any], ordinal: int
    ) -> ComponentDescriptor:
        raw = entry["payload"]["descriptor"]
        try:
            return ComponentDescriptor(
                tree=raw["tree"],
                min_seq=raw["min_seq"],
                max_seq=raw["max_seq"],
                matter_count=raw["matter_count"],
                antimatter_count=raw["antimatter_count"],
                expected_records=raw["expected_records"],
                btree=raw["btree"],
                ordinal=ordinal,
            )
        except (KeyError, TypeError) as exc:
            raise ManifestError(
                f"manifest {self.name!r}: malformed descriptor in entry "
                f"{ordinal} ({exc})"
            ) from exc

    def _read_entry(self, page_no: int) -> dict[str, Any]:
        page = self._file.read_page(page_no)
        if not isinstance(page, dict) or "kind" not in page:
            raise ManifestError(
                f"manifest {self.name!r}: page {page_no} is not an entry"
            )
        expected = _entry_checksum(
            page["kind"], page.get("tree"), page.get("txn"), page.get("payload")
        )
        if page.get("crc") != expected:
            raise ManifestError(
                f"manifest {self.name!r}: checksum mismatch on entry {page_no}"
            )
        return page
