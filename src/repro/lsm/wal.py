"""Per-partition write-ahead log on the simulated disk.

RocksDB-style durability for the memtable: every operation's records
are appended to the log *before* any memtable accepts them, so a crash
can never lose acknowledged writes (the manifest protects the disk
components; the WAL protects the mutable component).  Three design
points mirror the real thing:

* **Op-atomic entries.**  A dataset operation writes one record into
  the primary index and one per secondary index, all under one sequence
  number.  The log stores all of them as a single entry, so replay can
  never observe a *torn* operation (primary updated, secondary not).

* **Group commit.**  :meth:`WriteAheadLog.log_op` only buffers; one
  :meth:`~WriteAheadLog.sync` commits the buffer as one group.  The
  dataset syncs once per DML call before acknowledging it (an
  ``insert_many`` batch is one group, a single insert, update or delete
  is a group of one) and before every memtable rotation, so
  *acknowledged == durable* and a flush never finds a buffered entry.
  A group is charged ``ceil(encoded bytes / page_bytes)`` log pages,
  each holding a slice of its entries under its own checksum, so a
  large batch pays for its size rather than hiding in one nominal
  page.  The crash model keeps this honest: a buffered-but-uncommitted
  group is lost on crash, and the ``wal.commit`` crash point fires once
  per group, after its last page (see :mod:`repro.lsm.crashpoints`).

* **Truncate at flush.**  Once a flush transaction commits, the logged
  operations live in disk components and the log restarts as a fresh
  file; the superblock pointer flips first, so a crash between the flip
  and the old file's deletion leaves an orphan that recovery GCs.

Replay verifies each page's checksum and raises
:class:`~repro.errors.WALError` on corruption.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Iterator

from repro.errors import WALError
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.record import Record
from repro.lsm.storage import FileHandle, SimulatedDisk
from repro.obs.registry import get_registry

__all__ = ["WriteAheadLog"]


def _group_checksum(entries: list[tuple[int, list[tuple[str, tuple]]]]) -> int:
    return zlib.crc32(repr(entries).encode())


class WriteAheadLog:
    """An append-only operation log for one dataset partition.

    Args:
        disk: The partition's simulated disk.
        name: Namespace of this log (e.g. ``"orders.p3"``); the current
            log file id is kept under ``wal:<name>`` in the disk's
            superblock so recovery can find it.
        recover: Reopen the existing log named in the superblock
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
        # A dataset logs, syncs and truncates under its DML lock; the
        # mutex keeps the buffer and the current-file switch atomic for
        # any other caller too.
        self._mutex = threading.Lock()
        self._pending: list[tuple[int, list[tuple[str, tuple]]]] = []
        obs = get_registry()
        self._m_appends = obs.counter("wal.appends")
        self._m_commits = obs.counter("wal.commits")
        self._m_truncations = obs.counter("wal.truncations")
        self._m_replayed = obs.counter("wal.replayed.records")
        superblock_key = self._superblock_key
        if recover and superblock_key in disk.superblock:
            self._file = FileHandle(disk, disk.superblock[superblock_key])
        else:
            self._file = disk.create_file()
            disk.superblock[superblock_key] = self._file.file_id

    @property
    def _superblock_key(self) -> str:
        return f"wal:{self.name}"

    @property
    def file_id(self) -> int:
        """Id of the current log file (a live reference for GC)."""
        return self._file.file_id

    @property
    def pending_ops(self) -> int:
        """Operations buffered but not yet group-committed."""
        return len(self._pending)

    def _fire(self, point: str) -> None:
        if self._injector is not None:
            self._injector.reached(point)

    # -- write path ------------------------------------------------------

    def log_op(self, seqnum: int, writes: list[tuple[str, Record]]) -> None:
        """Buffer one operation: every index's record under one seqnum.
        Nothing is durable until the next :meth:`sync`.

        Records are stored by value (the frozen dataclass fields), not
        by reference, mirroring serialisation onto the log page.
        """
        entry = (
            seqnum,
            [
                (tree_name, (r.key, r.value, r.antimatter, r.seqnum))
                for tree_name, r in writes
            ],
        )
        with self._mutex:
            self._pending.append(entry)
            self._m_appends.inc()

    def sync(self) -> None:
        """Commit the buffered operations as one group (a no-op when
        nothing is buffered)."""
        with self._mutex:
            if self._pending:
                self._commit_group()

    def _commit_group(self) -> None:
        """Write the buffer as ``ceil(encoded bytes / page_bytes)``
        pages, each a slice of the group under its own checksum."""
        group = self._pending
        self._pending = []
        encoded = repr(group).encode()
        pages = -(-len(encoded) // self.disk.page_bytes)
        if pages == 1:
            self._file.append_page({"entries": group, "crc": zlib.crc32(encoded)})
        else:
            count = len(group)
            for page in range(pages):
                part = group[page * count // pages : (page + 1) * count // pages]
                self._file.append_page(
                    {"entries": part, "crc": _group_checksum(part)}
                )
        self._m_commits.inc()
        self._fire("wal.commit")

    def truncate(self) -> None:
        """Restart the log in a fresh file (called after the flushed
        data became durable in components via the manifest)."""
        with self._mutex:
            if self._pending:
                raise WALError(
                    f"truncate with {len(self._pending)} uncommitted ops "
                    "(sync before flushing)"
                )
            old = self._file
            self._file = self.disk.create_file()
            self.disk.superblock[self._superblock_key] = self._file.file_id
            self._m_truncations.inc()
            # Crash here and the old log file is an orphan: the superblock
            # already points at the fresh file, recovery GCs the old one.
            self._fire("wal.truncate")
            old.delete()

    # -- recovery --------------------------------------------------------

    def replay(self) -> Iterator[tuple[int, str, Record]]:
        """Yield ``(seqnum, tree_name, record)`` for every logged write,
        in log order, verifying each page's checksum."""
        for page_no in range(self._file.num_pages):
            page = self._file.read_page(page_no)
            entries = self._read_group(page, page_no)
            for seqnum, writes in entries:
                for tree_name, fields in writes:
                    key, value, antimatter, record_seq = fields
                    self._m_replayed.inc()
                    yield (
                        seqnum,
                        tree_name,
                        Record(key, value, antimatter, record_seq),
                    )

    def _read_group(
        self, page: Any, page_no: int
    ) -> list[tuple[int, list[tuple[str, tuple]]]]:
        if not isinstance(page, dict) or "entries" not in page:
            raise WALError(
                f"wal {self.name!r}: page {page_no} is not a log group"
            )
        entries = page["entries"]
        if page.get("crc") != _group_checksum(entries):
            raise WALError(
                f"wal {self.name!r}: checksum mismatch on page {page_no}"
            )
        return entries
