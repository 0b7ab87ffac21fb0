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

* **Group commit.**  Entries buffer in memory and are committed to one
  log page per group (the same notion of a chunk as the component-write
  path's ``write_batch_size``), amortising the page write the way group
  commit amortises the fsync.  The crash model keeps this honest: a
  buffered-but-uncommitted group is lost on crash, and crash points
  only exist at instants where the buffer is empty (see
  :mod:`repro.lsm.crashpoints`).

* **Truncate at flush.**  Once a flush transaction commits, the logged
  operations live in disk components and the log restarts as a fresh
  file; the superblock pointer flips first, so a crash between the flip
  and the old file's deletion leaves an orphan that recovery GCs.

Each committed page carries a checksum over its entries; replay
verifies it and raises :class:`~repro.errors.WALError` on corruption.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Iterator

from repro.errors import WALError
from repro.lsm.crashpoints import CrashInjector
from repro.lsm.record import Record
from repro.lsm.storage import FileHandle, SimulatedDisk
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["WriteAheadLog", "DEFAULT_WAL_GROUP_SIZE"]

DEFAULT_WAL_GROUP_SIZE = 1
"""Operations buffered per group commit (one log page per group).

The default of 1 makes *acknowledged == durable*: every operation's
entry is committed before the op returns.  Real group commit amortises
the fsync across concurrent writers while each of them still blocks
until its group is durable; this simulation has a single logical
writer, so honest group commit degenerates to one commit per op.
Larger sizes are the async-WAL trade (RocksDB ``sync=false``): the log
page write is amortised, but a crash between group commits loses the
acknowledged ops still sitting in the buffer.  Lifecycle crash points
never observe a non-empty buffer either way, because every flush path
syncs the log first.
"""


def _group_checksum(entries: list[tuple[int, list[tuple[str, tuple]]]]) -> int:
    return zlib.crc32(repr(entries).encode())


class WriteAheadLog:
    """An append-only operation log for one dataset partition.

    Args:
        disk: The partition's simulated disk.
        name: Namespace of this log (e.g. ``"orders.p3"``); the current
            log file id is kept under ``wal:<name>`` in the disk's
            superblock so recovery can find it.
        group_size: Operations per group commit.
        recover: Reopen the existing log named in the superblock
            instead of starting a fresh one.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        name: str,
        group_size: int = DEFAULT_WAL_GROUP_SIZE,
        recover: bool = False,
        crash_injector: CrashInjector | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if group_size < 1:
            raise WALError(f"group_size must be >= 1, got {group_size}")
        self.disk = disk
        self.name = name
        self.group_size = group_size
        self._injector = crash_injector
        # The application thread appends operations while a background
        # flush task syncs and truncates the same log; the mutex keeps
        # the pending buffer and the current-file switch atomic.
        self._mutex = threading.Lock()
        self._pending: list[tuple[int, list[tuple[str, tuple]]]] = []
        obs = registry if registry is not None else get_registry()
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
        """Log one operation: every index's record under one seqnum.

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
            if len(self._pending) >= self.group_size:
                self._commit_group()

    def append(self, tree_name: str, record: Record) -> None:
        """Log a single-index write (standalone-tree convenience)."""
        self.log_op(record.seqnum, [(tree_name, record)])

    def sync(self) -> None:
        """Force-commit the buffered group (e.g. before a flush)."""
        with self._mutex:
            if self._pending:
                self._commit_group()

    def _commit_group(self) -> None:
        group = self._pending
        self._pending = []
        self._file.append_page(
            {"entries": group, "crc": _group_checksum(group)}
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
        in log order, verifying each group's checksum."""
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
