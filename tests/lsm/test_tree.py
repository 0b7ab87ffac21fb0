"""Tests for the LSMTree: lifecycle, reconciliation, events."""

import pytest

from repro.errors import BulkloadError, StorageError
from repro.lsm.component import ComponentState
from repro.lsm.events import EventBus, LSMEventType
from repro.lsm.merge_policy import ConstantMergePolicy, StackMergePolicy
from repro.lsm.record import Record
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree


def _tree(**kwargs):
    return LSMTree("t.primary", SimulatedDisk(), **kwargs)


class TestWriteRead:
    def test_get_from_memtable(self):
        t = _tree()
        t.upsert(1, "a")
        assert t.get(1) == "a"

    def test_get_missing(self):
        t = _tree()
        assert t.get(1) is None

    def test_update_in_memtable(self):
        t = _tree()
        t.upsert(1, "a")
        t.upsert(1, "b")
        assert t.get(1) == "b"

    def test_delete_in_memtable(self):
        t = _tree()
        t.upsert(1, "a")
        t.delete(1)
        assert t.get(1) is None

    def test_get_from_disk_component(self):
        t = _tree()
        t.upsert(1, "a")
        t.flush()
        assert t.get(1) == "a"

    def test_update_shadows_disk_version(self):
        t = _tree()
        t.upsert(1, "old")
        t.flush()
        t.upsert(1, "new")
        assert t.get(1) == "new"
        t.flush()
        assert t.get(1) == "new"

    def test_delete_shadows_disk_version(self):
        t = _tree()
        t.upsert(1, "a")
        t.flush()
        t.delete(1)
        assert t.get(1) is None
        t.flush()
        assert t.get(1) is None


class TestFlush:
    def test_flush_empty_is_noop(self):
        t = _tree()
        assert t.flush() is None
        assert t.components == []

    def test_flush_creates_component(self):
        t = _tree()
        t.upsert(2, "b")
        t.upsert(1, "a")
        component = t.flush()
        assert component.matter_count == 2
        assert component.antimatter_count == 0
        assert len(t.memtable) == 0
        assert [r.key for r in component.scan()] == [1, 2]

    def test_flush_includes_antimatter(self):
        t = _tree()
        t.upsert(1, "a")
        t.flush()
        t.delete(1)
        component = t.flush()
        assert component.antimatter_count == 1
        assert component.matter_count == 0

    def test_auto_flush_at_capacity(self):
        t = _tree(memtable_capacity=10)
        for i in range(25):
            t.upsert(i, i)
        assert t.flush_count == 2
        assert len(t.memtable) == 5

    def test_component_id_tracks_seqnums(self):
        t = _tree()
        t.upsert(1, "a")  # seq 0
        t.upsert(2, "b")  # seq 1
        c1 = t.flush()
        t.upsert(3, "c")  # seq 2
        c2 = t.flush()
        assert (c1.component_id.min_seq, c1.component_id.max_seq) == (0, 1)
        assert (c2.component_id.min_seq, c2.component_id.max_seq) == (2, 2)


class TestScan:
    def test_scan_across_components(self):
        t = _tree()
        t.upsert(1, "a")
        t.flush()
        t.upsert(3, "c")
        t.flush()
        t.upsert(2, "b")  # stays in memtable
        assert [r.key for r in t.scan()] == [1, 2, 3]

    def test_scan_reconciles_deletes(self):
        t = _tree()
        for i in range(10):
            t.upsert(i, i)
        t.flush()
        for i in range(0, 10, 2):
            t.delete(i)
        t.flush()
        assert [r.key for r in t.scan()] == [1, 3, 5, 7, 9]

    def test_count_range(self):
        t = _tree()
        for i in range(100):
            t.upsert(i, i)
        t.flush()
        assert t.count_range(10, 19) == 10
        assert t.count_range() == 100
        assert len(t) == 100


class TestMerge:
    def test_full_merge_reconciles_antimatter(self):
        """The paper's Figure 10: <A> in DC1, anti-<A> in DC2, merge
        produces DC3 with no trace of A."""
        t = _tree()
        t.upsert("A", 1)
        dc1 = t.flush()
        t.delete("A")
        dc2 = t.flush()
        dc3 = t.merge([dc1, dc2])
        assert dc3.record_count == 0
        assert t.get("A") is None
        assert dc1.state is ComponentState.DELETED
        assert dc2.state is ComponentState.DELETED
        assert t.components == [dc3]

    def test_partial_merge_keeps_antimatter(self):
        t = _tree()
        t.upsert("A", 1)
        c_old = t.flush()
        t.upsert("B", 2)
        c_mid = t.flush()
        t.delete("A")
        c_new = t.flush()
        merged = t.merge([c_mid, c_new])  # excludes oldest
        assert merged.antimatter_count == 1  # tombstone for A carried
        assert merged.matter_count == 1  # B
        assert t.get("A") is None  # still cancelled through the tombstone
        assert t.components == [merged, c_old]

    def test_merge_noncontiguous_rejected(self):
        t = _tree()
        cs = []
        for i in range(3):
            t.upsert(i, i)
            cs.append(t.flush())
        newest, _middle, oldest = t.components
        with pytest.raises(StorageError):
            t.merge([newest, oldest])

    def test_merge_zero_components_rejected(self):
        t = _tree()
        with pytest.raises(StorageError):
            t.merge([])

    def test_merge_updates_component_id(self):
        t = _tree()
        t.upsert(1, "a")
        c1 = t.flush()
        t.upsert(2, "b")
        c2 = t.flush()
        merged = t.merge([c1, c2])
        assert merged.component_id.min_seq == c1.component_id.min_seq
        assert merged.component_id.max_seq == c2.component_id.max_seq

    def test_constant_policy_caps_components(self):
        t = _tree(memtable_capacity=5, merge_policy=ConstantMergePolicy(3))
        for i in range(100):
            t.upsert(i, i)
        assert len(t.components) <= 3
        assert t.merge_count > 0
        assert t.count_range() == 100

    def test_stack_policy_partial_merges_preserve_reads(self):
        t = _tree(memtable_capacity=4, merge_policy=StackMergePolicy(3))
        for i in range(50):
            t.upsert(i, i)
        for i in range(0, 50, 5):
            t.delete(i)
        t.flush()
        live = [r.key for r in t.scan()]
        assert live == [i for i in range(50) if i % 5 != 0]


class TestBulkload:
    def test_bulkload_builds_single_component(self):
        t = _tree()
        t.bulkload((Record.matter(i, i) for i in range(100)), expected_records=100)
        assert len(t.components) == 1
        assert t.count_range() == 100
        assert t.get(42) == 42

    def test_bulkload_into_nonempty_rejected(self):
        t = _tree()
        t.upsert(1, "a")
        with pytest.raises(BulkloadError):
            t.bulkload([Record.matter(2)], expected_records=1)

    def test_bulkload_rejects_antimatter(self):
        t = _tree()
        with pytest.raises(BulkloadError):
            t.bulkload(iter([Record.anti(1)]), expected_records=1)


class TestEvents:
    class _Recorder:
        def __init__(self):
            self.contexts = []
            self.keys = []
            self.components = []
            self.replacements = []

        def begin_component_write(self, context):
            self.contexts.append(context)
            recorder = self

            class Sink:
                def accept_many(self, chunk):
                    recorder.keys.extend(chunk.keys_list())

                def finish(self, component):
                    recorder.components.append(component)

            return Sink()

        def component_replaced(self, index_name, old, new):
            self.replacements.append((index_name, old, new))

    def test_flush_event_taps_stream(self):
        bus = EventBus()
        recorder = self._Recorder()
        bus.subscribe(recorder)
        t = LSMTree("idx", SimulatedDisk(), event_bus=bus)
        for i in range(5):
            t.upsert(i, i)
        t.flush()
        (ctx,) = recorder.contexts
        assert ctx.event_type is LSMEventType.FLUSH
        assert ctx.index_name == "idx"
        assert ctx.expected_records == 5
        assert recorder.keys == list(range(5))
        assert len(recorder.components) == 1

    def test_merge_event_announces_replacement(self):
        bus = EventBus()
        recorder = self._Recorder()
        bus.subscribe(recorder)
        t = LSMTree("idx", SimulatedDisk(), event_bus=bus)
        t.upsert(1, "a")
        c1 = t.flush()
        t.upsert(2, "b")
        c2 = t.flush()
        merged = t.merge([c1, c2])
        merge_ctx = recorder.contexts[-1]
        assert merge_ctx.event_type is LSMEventType.MERGE
        # Merged inputs are reported newest first.
        assert merge_ctx.merged_components == (c2, c1)
        assert merge_ctx.expected_records == 2
        ((name, old, new),) = recorder.replacements
        assert name == "idx"
        assert old == (c2, c1)
        assert new is merged

    def test_unsubscribe(self):
        bus = EventBus()
        recorder = self._Recorder()
        bus.subscribe(recorder)
        bus.unsubscribe(recorder)
        t = LSMTree("idx", SimulatedDisk(), event_bus=bus)
        t.upsert(1, "a")
        t.flush()
        assert recorder.contexts == []
