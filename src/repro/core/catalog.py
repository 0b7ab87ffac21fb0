"""The statistics catalog.

"Each LSM-framework event creates a local synopsis which is sent over
the network to the master node; [the] synopsis is persisted in the
system catalog, so that it can be used during query optimization"
(Section 3.4).  The catalog keys every entry by (index, node,
partition, component) -- one regular synopsis plus its anti-matter twin
per disk component -- and keeps a per-index version counter so the
merged-synopsis cache can detect staleness (Algorithm 2's ``isStale``).

The catalog is safe under *at-least-once* delivery, the contract of the
retrying network sink:

* a duplicate publish (same key, identical payload) is a no-op and does
  not bump the version, so cache invalidation only fires on actual
  change;
* a retract leaves a *tombstone* per retracted component, so a publish
  that was delayed past its own retraction cannot resurrect a
  merged-away component's statistics;
* a duplicate retract removes nothing and does not bump the version.

Component uids are allocated from a process-global counter and never
reused, so a tombstone can never block a legitimate future publish;
tombstones are kept for the catalog's lifetime (they are three-element
tuples -- bounded by the total number of components ever merged away).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import CatalogError
from repro.synopses.base import Synopsis
from repro.synopses.factory import empty_twin

if TYPE_CHECKING:
    from repro.core.collector import StatisticsUpdate

__all__ = ["StatisticsEntry", "StatisticsCatalog"]


@dataclass(frozen=True)
class StatisticsEntry:
    """One component's statistics as stored in the catalog.

    Attributes:
        index_name: Fully qualified LSM index name.
        node_id: Storage node that produced the synopsis.
        partition_id: Data partition on that node.
        component_uid: Unique id of the summarised disk component.
        synopsis: Summary of the component's matter records.
        anti_synopsis: Summary of its anti-matter records (Section 3.3).
        version: Catalog version at insertion time.
        epoch: Restart epoch of the producing node; a node that crashed
            and recovered publishes under a higher epoch, and its reset
            message clears the lower-epoch entries it replaces.
    """

    index_name: str
    node_id: str
    partition_id: int
    component_uid: int
    synopsis: Synopsis
    anti_synopsis: Synopsis
    version: int
    epoch: int = 0


_insertion_version = attrgetter("version")


class StatisticsCatalog:
    """In-memory system catalog of per-component synopses."""

    def __init__(self) -> None:
        self._entries: dict[str, dict[tuple[str, int, int], StatisticsEntry]] = {}
        self._versions: dict[str, int] = {}
        # Per index: (version, entries in version order), see entries_for.
        self._ordered: dict[str, tuple[int, list[StatisticsEntry]]] = {}
        # Per index: (node, partition, uid) triples whose statistics
        # were retracted -- late/replayed publishes for them are no-ops.
        self._tombstones: dict[str, set[tuple[str, int, int]]] = {}

    def put(
        self,
        index_name: str,
        node_id: str,
        partition_id: int,
        component_uid: int,
        synopsis: Synopsis,
        anti_synopsis: Synopsis,
        epoch: int = 0,
    ) -> StatisticsEntry | None:
        """Insert (or replace) the statistics of one component.

        Idempotent under redelivery: returns ``None`` without touching
        the catalog when the component was already retracted (its
        tombstone wins over a late publish), and returns the existing
        entry -- no version bump -- when an identical publish is
        already stored.  A put carrying *different* statistics for an
        existing key still replaces the entry (a deliberate re-publish),
        and so does a put under a newer epoch: a recovered node's
        re-derived statistics must not be mistaken for duplicates of
        its pre-crash ones.
        """
        key = (node_id, partition_id, component_uid)
        if key in self._tombstones.get(index_name, ()):
            return None
        bucket = self._entries.setdefault(index_name, {})
        existing = bucket.get(key)
        if (
            existing is not None
            and existing.epoch == epoch
            and self._same_payload(existing, synopsis, anti_synopsis)
        ):
            return existing
        version = self._bump(index_name)
        entry = StatisticsEntry(
            index_name,
            node_id,
            partition_id,
            component_uid,
            synopsis,
            anti_synopsis,
            version,
            epoch,
        )
        bucket[key] = entry
        return entry

    def retract(
        self,
        index_name: str,
        node_id: str,
        partition_id: int,
        component_uids: list[int],
    ) -> int:
        """Drop the entries of superseded (merged-away) components;
        returns how many were actually removed.

        Every named component is tombstoned (even when its publish has
        not arrived yet), so delayed or replayed publishes cannot
        resurrect it.  The version bumps only when live entries actually
        changed, keeping cache invalidation tied to real catalog change.
        """
        bucket = self._entries.get(index_name, {})
        tombstones = self._tombstones.setdefault(index_name, set())
        removed = 0
        for component_uid in component_uids:
            key = (node_id, partition_id, component_uid)
            tombstones.add(key)
            if bucket.pop(key, None) is not None:
                removed += 1
        if removed:
            self._bump(index_name)
        return removed

    def apply(
        self,
        update: "StatisticsUpdate",
        node_id: str,
        partition_id: int,
        epoch: int = 0,
    ) -> list[str]:
        """Apply one lifecycle event's statistics from one node/partition
        as one transition: :meth:`put` per entry, then :meth:`retract`
        per key.  An anti-matter twin of ``None`` is the family's empty
        synopsis (:func:`~repro.synopses.factory.empty_twin`).  Returns
        the keys whose version moved -- the caches to invalidate."""
        before = {key: self.version_for(key) for key in update.keys()}
        for index_name, uid, synopsis, anti_synopsis in update.entries:
            if anti_synopsis is None:
                anti_synopsis = empty_twin(synopsis)
            self.put(
                index_name,
                node_id,
                partition_id,
                uid,
                synopsis,
                anti_synopsis,
                epoch=epoch,
            )
        for index_name, uids in update.retracts:
            self.retract(index_name, node_id, partition_id, list(uids))
        return [
            key for key, version in before.items() if self.version_for(key) != version
        ]

    def reset_partition(
        self,
        index_name: str,
        node_id: str,
        partition_id: int,
        below_epoch: int,
    ) -> int:
        """Drop every entry of one node/partition published under an
        epoch older than ``below_epoch``; returns how many were removed.

        A recovered node sends this *before* republishing: the entries
        its crashed incarnation delivered describe components whose
        post-recovery identities (uids) are fresh, so the stale ones
        would otherwise double-count the partition forever.
        """
        bucket = self._entries.get(index_name, {})
        stale = [
            key
            for key, entry in bucket.items()
            if key[0] == node_id
            and key[1] == partition_id
            and entry.epoch < below_epoch
        ]
        for key in stale:
            del bucket[key]
        if stale:
            self._bump(index_name)
        return len(stale)

    @staticmethod
    def _same_payload(
        existing: StatisticsEntry, synopsis: Synopsis, anti_synopsis: Synopsis
    ) -> bool:
        if existing.synopsis is synopsis and existing.anti_synopsis is anti_synopsis:
            return True
        return (
            existing.synopsis.to_payload() == synopsis.to_payload()
            and existing.anti_synopsis.to_payload() == anti_synopsis.to_payload()
        )

    def entries_for(self, index_name: str) -> list[StatisticsEntry]:
        """All live entries for an index, in insertion-version order.

        The ordered list is kept per index with the version it was
        sorted at and rebuilt only once that version moves (every
        ``put``, ``retract`` or ``reset_partition`` that changes the
        entries bumps it); callers get their own copy.
        """
        version = self._versions.get(index_name, 0)
        ordered = self._ordered.get(index_name)
        if ordered is None or ordered[0] != version:
            bucket = self._entries.get(index_name)
            if bucket is None:
                return []
            ordered = self._ordered[index_name] = (
                version,
                sorted(bucket.values(), key=_insertion_version),
            )
        return list(ordered[1])

    def version_for(self, index_name: str) -> int:
        """Monotone per-index version; bumps on every put/retract."""
        return self._versions.get(index_name, 0)

    def index_names(self) -> list[str]:
        """All indexes with catalogued statistics."""
        return sorted(self._entries)

    def entry_count(self, index_name: str | None = None) -> int:
        """Number of live entries, for one index or overall."""
        if index_name is not None:
            return len(self._entries.get(index_name, {}))
        return sum(len(bucket) for bucket in self._entries.values())

    def total_bytes(self, index_name: str | None = None) -> int:
        """Approximate catalog space consumed by synopses.

        The paper's mergeability trade-off (Section 3.5) is primarily a
        *space* trade-off; this is the number the ablation benchmarks
        report.
        """
        if index_name is not None:
            names = [index_name]
            if index_name not in self._entries:
                raise CatalogError(f"no statistics for index {index_name!r}")
        else:
            names = list(self._entries)
        total = 0
        for name in names:
            for entry in self._entries[name].values():
                total += entry.synopsis.payload_bytes()
                total += entry.anti_synopsis.payload_bytes()
        return total

    def _bump(self, index_name: str) -> int:
        version = self._versions.get(index_name, 0) + 1
        self._versions[index_name] = version
        return version
