"""Immutable disk-resident B-tree components.

Every LSM disk operation is generalised by a single ``bulkload()``
routine (paper Section 3.1) that receives a stream of records already
sorted by key and builds an index bottom-up: leaf pages are filled
left-to-right, then interior levels are stacked on top.  The resulting
tree is immutable, exactly like an LSM disk component.

Pages live on a :class:`~repro.lsm.storage.SimulatedDisk`, so lookups and
scans are charged random/sequential I/O.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import lt
from typing import Any, Iterable, Iterator

from repro.errors import BulkloadError, StorageError
from repro.lsm.columnar import ColumnarChunk, columnar_chunk_stream
from repro.lsm.record import Record
from repro.lsm.storage import FileHandle, SimulatedDisk

__all__ = [
    "DiskBTree",
    "build_btree",
    "build_btree_chunks",
    "ColumnarLeafPage",
    "pack_columnar_leaves",
    "btree_from_descriptor",
    "DEFAULT_LEAF_CAPACITY",
    "DEFAULT_FANOUT",
]

DEFAULT_LEAF_CAPACITY = 64
"""Records per leaf page."""

DEFAULT_FANOUT = 64
"""Children per interior page."""


class ColumnarLeafPage:
    """A leaf holding sorted rows as columns plus a next-sibling pointer.

    Stores the key/value/anti/seqnum columns a
    :class:`~repro.lsm.columnar.ColumnarChunk` delivered -- ``Record``
    objects are materialised lazily (and memoized) the first time a
    read actually touches the leaf, so the ingest path never allocates
    them.  ``values``/``anti`` keep the chunk contract's ``None``
    sentinels (all-``None`` payloads / pure matter).
    """

    __slots__ = ("keys", "values", "anti", "seqnums", "next_leaf", "_records")

    def __init__(
        self,
        keys: list[Any],
        values: list[Any] | None,
        anti: list[bool] | None,
        seqnums: list[int],
    ) -> None:
        self.keys = keys
        self.values = values
        self.anti = anti
        self.seqnums = seqnums
        self.next_leaf: int | None = None
        self._records: list[Record] | None = None

    @classmethod
    def head_of(
        cls,
        keys: list[Any],
        values: list[Any] | None,
        anti: list[bool] | None,
        seqnums: list[int],
        count: int,
    ) -> "ColumnarLeafPage":
        """A leaf owning copies of the first ``count`` buffered rows."""
        return cls(
            keys[:count],
            values[:count] if values is not None else None,
            anti[:count] if anti is not None else None,
            seqnums[:count],
        )

    @property
    def records(self) -> list[Record]:
        if self._records is None:
            keys = self.keys
            values = self.values
            anti = self.anti
            seqnums = self.seqnums
            self._records = [
                Record(
                    keys[i],
                    values[i] if values is not None else None,
                    anti[i] if anti is not None else False,
                    seqnums[i],
                )
                for i in range(len(keys))
            ]
        return self._records


class _InteriorPage:
    """An interior node: separator keys and child page numbers.

    ``separators[i]`` is the smallest key reachable under
    ``children[i + 1]``; a lookup key ``k`` descends into
    ``children[bisect_right(separators, k)]``.
    """

    __slots__ = ("separators", "children")

    def __init__(self, separators: list[Any], children: list[int]) -> None:
        self.separators = separators
        self.children = children


class DiskBTree:
    """An immutable B-tree over sorted records, backed by disk pages."""

    def __init__(
        self,
        file: FileHandle,
        root_page: int | None,
        height: int,
        num_records: int,
        first_leaf: int | None,
    ) -> None:
        self._file = file
        self._root_page = root_page
        self.height = height
        self.num_records = num_records
        self._first_leaf = first_leaf

    @property
    def num_pages(self) -> int:
        """Total pages occupied by the tree."""
        return self._file.num_pages

    def memory_bytes(self) -> int:
        """Accounted *resident* footprint (docs/MEMORY.md): the handle
        plus per-page metadata.  Pages themselves live on the simulated
        disk and are charged as I/O, not memory; what a real engine
        keeps resident per open component is the file handle and page
        table, modelled as a fixed 64 bytes plus 16 per page."""
        return 64 + 16 * self._file.num_pages

    @property
    def file_id(self) -> int:
        """Id of the backing file on the simulated disk."""
        return self._file.file_id

    def __len__(self) -> int:
        return self.num_records

    def describe(self) -> dict[str, int | None]:
        """The tree's structural root pointers as plain data.

        Everything needed to reopen the tree against its (sealed,
        surviving) file after a crash -- the manifest persists this in
        component commit entries, mirroring how a real MANIFEST records
        SSTable metadata rather than the SSTable bytes.
        """
        return {
            "file_id": self._file.file_id,
            "root_page": self._root_page,
            "height": self.height,
            "num_records": self.num_records,
            "first_leaf": self._first_leaf,
        }

    def lookup(self, key: Any) -> Record | None:
        """Point lookup; returns the record (possibly anti-matter) or None."""
        if self._root_page is None:
            return None
        page = self._descend(key)
        index = bisect_left(page.keys, key)
        if index < len(page.keys) and page.keys[index] == key:
            return page.records[index]
        return None

    def scan(self, lo: Any = None, hi: Any = None) -> Iterator[Record]:
        """Records with ``lo <= key <= hi`` in key order.

        ``None`` bounds are open.  Sibling leaves are followed via their
        next pointers, so a long scan is mostly sequential I/O.
        """
        if self._root_page is None:
            return
        if lo is None:
            page_no: int | None = self._first_leaf
            assert page_no is not None
            page = self._read_page(page_no)
            start = 0
        else:
            page, page_no = self._descend_with_page_no(lo)
            start = bisect_left(page.keys, lo)
        while True:
            for index in range(start, len(page.records)):
                record = page.records[index]
                if hi is not None and record.key > hi:
                    return
                yield record
            if page.next_leaf is None:
                return
            page = self._read_page(page.next_leaf)
            start = 0

    def iter_all(self) -> Iterator[Record]:
        """All records in key order (equivalent to an unbounded scan)."""
        return self.scan()

    def min_key(self) -> Any:
        """Smallest key, or ``None`` for an empty tree."""
        if self._first_leaf is None:
            return None
        return self._read_page(self._first_leaf).keys[0]

    def max_key(self) -> Any:
        """Largest key, or ``None`` for an empty tree."""
        if self._root_page is None:
            return None
        page = self._read_page(self._root_page)
        for _level in range(self.height):
            assert isinstance(page, _InteriorPage)
            page = self._read_page(page.children[-1])
        assert not isinstance(page, _InteriorPage)
        return page.keys[-1]

    def destroy(self) -> None:
        """Release the backing file (component deleted after a merge)."""
        self._file.delete()

    # -- internals -------------------------------------------------------

    def _read_page(self, page_no: int) -> Any:
        return self._file.read_page(page_no)

    def _descend(self, key: Any) -> Any:
        page, _page_no = self._descend_with_page_no(key)
        return page

    def _descend_with_page_no(self, key: Any) -> tuple[Any, int]:
        if self._root_page is None:
            raise StorageError("descend into empty tree")
        page_no = self._root_page
        page = self._read_page(page_no)
        for _level in range(self.height):
            assert isinstance(page, _InteriorPage)
            child_index = bisect_right(page.separators, key)
            page_no = page.children[child_index]
            page = self._read_page(page_no)
        assert not isinstance(page, _InteriorPage)
        return page, page_no


def build_btree(
    disk: SimulatedDisk,
    records: Iterable[Record],
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    fanout: int = DEFAULT_FANOUT,
) -> DiskBTree:
    """Bulkload an immutable B-tree from a key-sorted record stream.

    The record-stream edge adapter over :func:`build_btree_chunks`: the
    stream is sliced into one columnar chunk per leaf.  Raises
    :class:`~repro.errors.BulkloadError` when the stream is not
    strictly sorted by key (LSM components never contain duplicate keys:
    reconciliation keeps one entry per key).
    """
    return build_btree_chunks(
        disk,
        columnar_chunk_stream(records, leaf_capacity),
        leaf_capacity=leaf_capacity,
        fanout=fanout,
    )


def build_btree_chunks(
    disk: SimulatedDisk,
    chunks: Iterable[ColumnarChunk],
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    fanout: int = DEFAULT_FANOUT,
) -> DiskBTree:
    """Bulkload an immutable B-tree from a stream of key-sorted
    columnar chunks (the component-write path).

    Sortedness is validated over the key column, leaves are packed by
    column slicing into :class:`ColumnarLeafPage` objects, and no
    ``Record`` is ever allocated at build time.  A build that raises
    deletes its half-written file; a simulated crash (a
    ``BaseException``) leaves it as the orphan recovery GC expects.
    """
    if leaf_capacity <= 1 or fanout <= 1:
        raise BulkloadError("leaf_capacity and fanout must both exceed 1")

    file = disk.create_file()
    try:
        leaf_page_nos, leaves = pack_columnar_leaves(file, chunks, leaf_capacity)
        return _seal_tree(file, leaf_page_nos, leaves, fanout)
    except Exception:
        file.delete()
        raise


def pack_columnar_leaves(
    file: FileHandle,
    chunks: Iterable[ColumnarChunk],
    leaf_capacity: int,
) -> tuple[list[int], list[ColumnarLeafPage]]:
    """Fill ``file`` with sibling-chained leaves sliced off the chunk
    columns; returns their page numbers and the leaves themselves.

    The leaf level every disk structure shares: leaves are filled in
    stream order whatever is stacked on top of them (separator keys
    for a B-tree, bounding rectangles for an R-tree), so the caller
    adds its interior levels and seals the file.
    """
    leaf_page_nos: list[int] = []
    leaves: list[ColumnarLeafPage] = []

    key_buf: list[Any] = []
    value_buf: list[Any] | None = None
    anti_buf: list[bool] | None = None
    seq_buf: list[int] = []
    previous_key: Any = None

    def emit_leaf() -> None:
        # Up to one leaf's worth off the front of the buffers (the
        # tail leaf is simply a short slice).
        leaf = ColumnarLeafPage.head_of(
            key_buf, value_buf, anti_buf, seq_buf, leaf_capacity
        )
        leaf_page_nos.append(file.append_page(leaf))
        leaves.append(leaf)
        del key_buf[:leaf_capacity]
        if value_buf is not None:
            del value_buf[:leaf_capacity]
        if anti_buf is not None:
            del anti_buf[:leaf_capacity]
        del seq_buf[:leaf_capacity]

    for chunk in chunks:
        if not len(chunk):
            continue
        keys = chunk.keys_list()
        previous_key = _check_chunk_sorted(keys, previous_key)
        key_buf.extend(keys)
        seq_buf.extend(chunk.seqnums)
        if chunk.values is not None:
            if value_buf is None:
                value_buf = [None] * (len(key_buf) - len(keys))
            value_buf.extend(chunk.values)
        elif value_buf is not None:
            value_buf.extend([None] * len(keys))
        if chunk.anti is not None:
            if anti_buf is None:
                anti_buf = [False] * (len(key_buf) - len(keys))
            anti_buf.extend(chunk.anti)
        elif anti_buf is not None:
            anti_buf.extend([False] * len(keys))
        while len(key_buf) >= leaf_capacity:
            emit_leaf()
    if key_buf:
        emit_leaf()
    # Chain the sibling pointers now that page numbers are known.
    for leaf, next_page in zip(leaves, leaf_page_nos[1:]):
        leaf.next_leaf = next_page
    return leaf_page_nos, leaves


def _check_chunk_sorted(keys: list[Any], previous_key: Any) -> Any:
    """Validate strict ascent of one columnar chunk (and its boundary
    against the previous chunk); returns the chunk's last key."""
    if previous_key is not None and not previous_key < keys[0]:
        raise BulkloadError(
            f"bulkload stream not strictly sorted: {previous_key!r} "
            f"followed by {keys[0]!r}"
        )
    if len(keys) > 1 and not all(map(lt, keys, islice(keys, 1, None))):
        for left, right in zip(keys, islice(keys, 1, None)):
            if not left < right:
                raise BulkloadError(
                    f"bulkload stream not strictly sorted: {left!r} "
                    f"followed by {right!r}"
                )
    return keys[-1]


def btree_from_descriptor(
    disk: SimulatedDisk, descriptor: dict[str, Any]
) -> DiskBTree:
    """Reopen an immutable B-tree from a :meth:`DiskBTree.describe`
    payload; the backing file must still be live on ``disk``."""
    try:
        file_id = descriptor["file_id"]
        tree = DiskBTree(
            FileHandle(disk, file_id),
            root_page=descriptor["root_page"],
            height=descriptor["height"],
            num_records=descriptor["num_records"],
            first_leaf=descriptor["first_leaf"],
        )
    except KeyError as exc:
        raise StorageError(
            f"malformed B-tree descriptor (missing {exc})"
        ) from exc
    # Fail fast on a dangling file reference instead of at first read.
    disk.num_pages(file_id)
    return tree


def _seal_tree(
    file: FileHandle,
    leaf_page_nos: list[int],
    leaves: list[ColumnarLeafPage],
    fanout: int,
) -> DiskBTree:
    """Stack separator levels over packed leaves and seal the file."""
    if not leaf_page_nos:
        file.seal()
        return DiskBTree(file, None, 0, 0, None)

    # Stack interior levels until a single root remains.
    height = 0
    level_pages = leaf_page_nos
    level_keys = [leaf.keys[0] for leaf in leaves]
    while len(level_pages) > 1:
        height += 1
        next_pages: list[int] = []
        next_keys: list[Any] = []
        for start in range(0, len(level_pages), fanout):
            children = level_pages[start : start + fanout]
            group_keys = level_keys[start : start + fanout]
            node = _InteriorPage(separators=group_keys[1:], children=children)
            next_pages.append(file.append_page(node))
            next_keys.append(group_keys[0])
        level_pages, level_keys = next_pages, next_keys

    file.seal()
    return DiskBTree(
        file,
        root_page=level_pages[0],
        height=height,
        num_records=sum(len(leaf.keys) for leaf in leaves),
        first_leaf=leaf_page_nos[0],
    )
