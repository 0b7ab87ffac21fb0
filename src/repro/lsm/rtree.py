"""Immutable disk R-trees for LSM-ified spatial indexes.

The paper's Section 5 names R-trees among the multidimensional index
types its framework should extend to; AsterixDB's LSM layer wraps
R-trees with exactly the same flush/merge lifecycle as B-trees.  This
module provides the disk component structure: entries are records whose
key is a ``(x, y, pk)`` triple.

Design choice: leaves are filled in the *lexicographic* ``(x, y, pk)``
order of the bulkload stream (the same order the merge cursor needs)
-- by the B-tree's own columnar leaf packer, so ``Record`` objects
materialise lazily on read -- and the internal levels store minimum
bounding rectangles (MBRs) over their children instead of separator
keys.  Compared to an STR-packed R-tree this trades some MBR tightness
on y for two properties the LSM machinery depends on:

* ordered full scans (``scan``) walk the sibling-linked leaves exactly
  like a B-tree component, so k-way merge + anti-matter reconciliation
  work unchanged;
* the component-write stream stays lex-sorted, so the 2-D statistics
  builders can tap it.

Rectangle queries (``search``) descend only the subtrees whose MBR
intersects the query window.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator

from repro.errors import BulkloadError
from repro.lsm.btree import ColumnarLeafPage, pack_columnar_leaves
from repro.lsm.columnar import ColumnarChunk, columnar_chunk_stream
from repro.lsm.record import Record
from repro.lsm.storage import FileHandle, SimulatedDisk

__all__ = ["MBR", "DiskRTree", "build_rtree", "build_rtree_chunks"]


class MBR:
    """A minimum bounding rectangle over (x, y) points."""

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: int, min_y: int, max_x: int, max_y: int) -> None:
        self.min_x = min_x
        self.min_y = min_y
        self.max_x = max_x
        self.max_y = max_y

    @classmethod
    def of_points(cls, points: Iterable[tuple[int, int]]) -> "MBR":
        """The tight bound of a non-empty point set."""
        xs, ys = zip(*points)
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def union(cls, boxes: Iterable["MBR"]) -> "MBR":
        """The covering rectangle of several MBRs."""
        boxes = list(boxes)
        return cls(
            min(b.min_x for b in boxes),
            min(b.min_y for b in boxes),
            max(b.max_x for b in boxes),
            max(b.max_y for b in boxes),
        )

    def intersects(self, lo_x: int, hi_x: int, lo_y: int, hi_y: int) -> bool:
        """Whether the rectangle overlaps the query window."""
        return not (
            self.max_x < lo_x
            or self.min_x > hi_x
            or self.max_y < lo_y
            or self.min_y > hi_y
        )

    def contains_point(self, x: int, y: int) -> bool:
        """Whether the rectangle covers the point."""
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def __repr__(self) -> str:
        return f"MBR[({self.min_x},{self.min_y})..({self.max_x},{self.max_y})]"


class _InteriorPage:
    """Children page numbers with their MBRs (R-tree internal node)."""

    __slots__ = ("mbrs", "children", "min_keys")

    def __init__(
        self, mbrs: list[MBR], children: list[int], min_keys: list[Any]
    ) -> None:
        self.mbrs = mbrs
        self.children = children
        # Smallest lex key under each child: kept so ordered range
        # scans can descend like a B-tree.
        self.min_keys = min_keys


class DiskRTree:
    """An immutable spatial component over (x, y, pk)-keyed records."""

    def __init__(
        self,
        file: FileHandle,
        root_page: int | None,
        height: int,
        num_records: int,
        first_leaf: int | None,
        mbr: MBR | None,
    ) -> None:
        self._file = file
        self._root_page = root_page
        self.height = height
        self.num_records = num_records
        self._first_leaf = first_leaf
        self.mbr = mbr

    @property
    def num_pages(self) -> int:
        """Total pages occupied."""
        return self._file.num_pages

    def memory_bytes(self) -> int:
        """Accounted resident footprint, modelled as the B-tree's
        (:meth:`repro.lsm.btree.DiskBTree.memory_bytes`): a 64-byte
        handle plus 16 bytes of page metadata per page."""
        return 64 + 16 * self._file.num_pages

    def __len__(self) -> int:
        return self.num_records

    # -- ordered access (the LSM merge path) --------------------------------

    def scan(self, lo: Any = None, hi: Any = None) -> Iterator[Record]:
        """Records with lex keys in ``[lo, hi]``, in key order."""
        if self._first_leaf is None:
            return
        page_no: int | None = self._first_leaf
        while page_no is not None:
            page = self._file.read_page(page_no)
            assert isinstance(page, ColumnarLeafPage)
            start = 0 if lo is None else bisect_left(page.keys, lo)
            for index in range(start, len(page.records)):
                record = page.records[index]
                if hi is not None and record.key > hi:
                    return
                yield record
            page_no = page.next_leaf

    def iter_all(self) -> Iterator[Record]:
        """All records in key order."""
        return self.scan()

    def lookup(self, key: Any) -> Record | None:
        """Point lookup of one full (x, y, pk) key."""
        x, y = key[0], key[1]
        for record in self.search(x, x, y, y):
            if record.key == key:
                return record
        return None

    def min_key(self) -> Any:
        """Smallest lex key, or None when empty."""
        if self._first_leaf is None:
            return None
        page = self._file.read_page(self._first_leaf)
        return page.keys[0]

    def max_key(self) -> Any:
        """Largest lex key, or None when empty (walks the leaf chain)."""
        last = None
        for record in self.scan():
            last = record.key
        return last

    # -- spatial access -------------------------------------------------------

    def search(
        self, lo_x: int, hi_x: int, lo_y: int, hi_y: int
    ) -> Iterator[Record]:
        """All records (matter and anti-matter) inside the rectangle."""
        if self._root_page is None:
            return
        stack = [(self._root_page, self.height)]
        while stack:
            page_no, level = stack.pop()
            page = self._file.read_page(page_no)
            if level == 0:
                assert isinstance(page, ColumnarLeafPage)
                for record in page.records:
                    x, y = record.key[0], record.key[1]
                    if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
                        yield record
            else:
                assert isinstance(page, _InteriorPage)
                for mbr, child in zip(page.mbrs, page.children):
                    if mbr.intersects(lo_x, hi_x, lo_y, hi_y):
                        stack.append((child, level - 1))

    def destroy(self) -> None:
        """Release the backing file."""
        self._file.delete()


def build_rtree(
    disk: SimulatedDisk,
    records: Iterable[Record],
    leaf_capacity: int = 64,
    fanout: int = 64,
) -> DiskRTree:
    """Bulkload a spatial component from a lex-sorted record stream.

    Names the R-tree structure in ``LSMTree(index_builder=build_rtree)``
    and is the record-stream edge adapter over
    :func:`build_rtree_chunks`, which the tree's write path calls.
    """
    return build_rtree_chunks(
        disk,
        columnar_chunk_stream(records, leaf_capacity),
        leaf_capacity=leaf_capacity,
        fanout=fanout,
    )


def build_rtree_chunks(
    disk: SimulatedDisk,
    chunks: Iterable[ColumnarChunk],
    leaf_capacity: int = 64,
    fanout: int = 64,
) -> DiskRTree:
    """Bulkload a spatial component from lex-sorted columnar chunks
    (the component-write path).

    The leaf level is the B-tree's; only the interior levels differ.
    A build that raises deletes its half-written file; a simulated
    crash (a ``BaseException``) leaves the orphan for recovery GC.
    """
    if leaf_capacity <= 1 or fanout <= 1:
        raise BulkloadError("leaf_capacity and fanout must both exceed 1")
    file = disk.create_file()
    try:
        leaf_page_nos, leaves = pack_columnar_leaves(
            file, _point_keyed(chunks), leaf_capacity
        )
        return _seal_rtree(file, leaf_page_nos, leaves, fanout)
    except Exception:
        file.delete()
        raise


def _point_keyed(chunks: Iterable[ColumnarChunk]) -> Iterator[ColumnarChunk]:
    """Pass chunks through, rejecting keys that carry no (x, y) point."""
    for chunk in chunks:
        for key in chunk.keys_list():
            if not (isinstance(key, tuple) and len(key) >= 2):
                raise BulkloadError(
                    f"R-tree keys must be (x, y, ...) tuples, got {key!r}"
                )
        yield chunk


def _seal_rtree(
    file: FileHandle,
    leaf_page_nos: list[int],
    leaves: list[ColumnarLeafPage],
    fanout: int,
) -> DiskRTree:
    """Stack MBR levels over packed leaves and seal the file."""
    if not leaves:
        file.seal()
        return DiskRTree(file, None, 0, 0, None, None)

    # Stack MBR levels until a single root remains.
    height = 0
    level_pages = leaf_page_nos
    level_mbrs = [
        MBR.of_points((key[0], key[1]) for key in leaf.keys) for leaf in leaves
    ]
    level_min_keys = [leaf.keys[0] for leaf in leaves]
    while len(level_pages) > 1:
        height += 1
        next_pages: list[int] = []
        next_mbrs: list[MBR] = []
        next_min_keys: list[Any] = []
        for start in range(0, len(level_pages), fanout):
            children = level_pages[start : start + fanout]
            mbrs = level_mbrs[start : start + fanout]
            min_keys = level_min_keys[start : start + fanout]
            node = _InteriorPage(mbrs, children, min_keys)
            next_pages.append(file.append_page(node))
            next_mbrs.append(MBR.union(mbrs))
            next_min_keys.append(min_keys[0])
        level_pages, level_mbrs, level_min_keys = (
            next_pages,
            next_mbrs,
            next_min_keys,
        )

    file.seal()
    return DiskRTree(
        file,
        root_page=level_pages[0],
        height=height,
        num_records=sum(len(leaf.keys) for leaf in leaves),
        first_leaf=leaf_page_nos[0],
        mbr=level_mbrs[0],
    )
