"""Tests for the statistics catalog."""

import pytest

from repro.core.catalog import StatisticsCatalog
from repro.errors import CatalogError
from repro.synopses import SynopsisType, create_builder
from repro.types import Domain

DOMAIN = Domain(0, 99)


def _synopsis(values=()):
    builder = create_builder(SynopsisType.EQUI_WIDTH, DOMAIN, 8, len(values))
    for value in sorted(values):
        builder.add(value)
    return builder.build()


def _put(
    catalog, index="idx", node="n1", partition=0, uid=1, values=(1, 2), epoch=0
):
    return catalog.put(
        index, node, partition, uid, _synopsis(values), _synopsis(), epoch=epoch
    )


def test_put_and_retrieve():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)
    _put(catalog, uid=2)
    entries = catalog.entries_for("idx")
    assert len(entries) == 2
    assert [e.component_uid for e in entries] == [1, 2]


def test_entries_for_unknown_index_is_empty():
    assert StatisticsCatalog().entries_for("nope") == []


def test_put_replaces_same_component():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1, values=(1,))
    _put(catalog, uid=1, values=(1, 2, 3))
    entries = catalog.entries_for("idx")
    assert len(entries) == 1
    assert entries[0].synopsis.total_count == 3


def test_versions_bump_on_put_and_retract():
    catalog = StatisticsCatalog()
    assert catalog.version_for("idx") == 0
    _put(catalog, uid=1)
    assert catalog.version_for("idx") == 1
    _put(catalog, uid=2)
    assert catalog.version_for("idx") == 2
    catalog.retract("idx", "n1", 0, [1])
    assert catalog.version_for("idx") == 3


def test_retract_missing_does_not_bump():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)
    version = catalog.version_for("idx")
    assert catalog.retract("idx", "n1", 0, [99]) == 0
    assert catalog.version_for("idx") == version


def test_entries_isolated_per_node_partition():
    catalog = StatisticsCatalog()
    _put(catalog, node="n1", partition=0, uid=1)
    _put(catalog, node="n2", partition=1, uid=1)
    assert catalog.entry_count("idx") == 2
    catalog.retract("idx", "n1", 0, [1])
    remaining = catalog.entries_for("idx")
    assert len(remaining) == 1
    assert remaining[0].node_id == "n2"


def test_index_names_and_counts():
    catalog = StatisticsCatalog()
    _put(catalog, index="b")
    _put(catalog, index="a")
    assert catalog.index_names() == ["a", "b"]
    assert catalog.entry_count() == 2


def test_total_bytes():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)
    assert catalog.total_bytes() > 0
    assert catalog.total_bytes("idx") == catalog.total_bytes()
    with pytest.raises(CatalogError):
        catalog.total_bytes("missing")


def test_put_identical_payload_is_noop():
    catalog = StatisticsCatalog()
    first = _put(catalog, uid=1, values=(1, 2))
    version = catalog.version_for("idx")
    second = _put(catalog, uid=1, values=(1, 2))  # redelivered publish
    assert second is first
    assert catalog.version_for("idx") == version
    assert catalog.entry_count("idx") == 1


def test_tombstone_blocks_late_publish():
    catalog = StatisticsCatalog()
    catalog.retract("idx", "n1", 0, [7])  # retract arrives before the publish
    assert _put(catalog, uid=7) is None
    assert catalog.entry_count("idx") == 0


def test_tombstone_is_scoped_to_one_component():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)
    catalog.retract("idx", "n1", 0, [1])
    assert _put(catalog, uid=2) is not None  # other uids unaffected
    assert _put(catalog, node="n2", uid=1) is not None  # other nodes too
    assert catalog.entry_count("idx") == 2


def test_duplicate_retract_is_noop():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)
    assert catalog.retract("idx", "n1", 0, [1]) == 1
    version = catalog.version_for("idx")
    assert catalog.retract("idx", "n1", 0, [1]) == 0
    assert catalog.version_for("idx") == version


def test_put_same_payload_new_epoch_replaces():
    # After a node restart the same component payload is republished
    # under a higher epoch; the entry must be replaced, not deduped,
    # so reset_partition cannot sweep it away later.
    catalog = StatisticsCatalog()
    _put(catalog, uid=1, values=(1, 2))
    version = catalog.version_for("idx")
    entry = _put(catalog, uid=1, values=(1, 2), epoch=1)
    assert entry is not None and entry.epoch == 1
    assert catalog.version_for("idx") > version
    assert catalog.entry_count("idx") == 1


def test_reset_partition_sweeps_only_stale_entries():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1)                      # stale (epoch 0)
    _put(catalog, uid=2, epoch=1)             # already current
    _put(catalog, partition=1, uid=3)         # other partition
    _put(catalog, node="n2", uid=4)           # other node
    version = catalog.version_for("idx")
    removed = catalog.reset_partition("idx", "n1", 0, below_epoch=1)
    assert removed == 1
    assert catalog.entry_count("idx") == 3
    assert catalog.version_for("idx") == version + 1
    remaining = {entry.component_uid for entry in catalog.entries_for("idx")}
    assert remaining == {2, 3, 4}


def test_reset_partition_without_matches_is_noop():
    catalog = StatisticsCatalog()
    _put(catalog, uid=1, epoch=5)
    version = catalog.version_for("idx")
    assert catalog.reset_partition("idx", "n1", 0, below_epoch=3) == 0
    assert catalog.version_for("idx") == version


def test_reset_partition_leaves_tombstones_intact():
    catalog = StatisticsCatalog()
    catalog.retract("idx", "n1", 0, [7])
    catalog.reset_partition("idx", "n1", 0, below_epoch=10)
    # The retract-before-publish fence still holds post-reset.
    assert _put(catalog, uid=7) is None


def test_republish_moves_the_entry_to_the_end():
    # Insertion-version order survives the cached ordering: a changed
    # re-publish takes a new version, so it sorts last.
    catalog = StatisticsCatalog()
    for uid in (1, 2, 3):
        _put(catalog, uid=uid)
    assert [e.component_uid for e in catalog.entries_for("idx")] == [1, 2, 3]
    _put(catalog, uid=1, values=(5, 6, 7))
    assert [e.component_uid for e in catalog.entries_for("idx")] == [2, 3, 1]
    _put(catalog, uid=2, values=(1, 2))  # identical payload: no move
    assert [e.component_uid for e in catalog.entries_for("idx")] == [2, 3, 1]


def test_entries_for_follows_every_version_move():
    catalog = StatisticsCatalog()
    for uid in (1, 2, 3):
        _put(catalog, uid=uid)
    _put(catalog, node="n2", uid=4, epoch=0)
    first = catalog.entries_for("idx")
    first.clear()  # callers get their own list
    assert len(catalog.entries_for("idx")) == 4
    catalog.retract("idx", "n1", 0, [2])
    assert [e.component_uid for e in catalog.entries_for("idx")] == [1, 3, 4]
    catalog.reset_partition("idx", "n2", 0, below_epoch=1)
    assert [e.component_uid for e in catalog.entries_for("idx")] == [1, 3]
    _put(catalog, uid=9)
    assert [e.component_uid for e in catalog.entries_for("idx")] == [1, 3, 9]
