"""Failure injection: statistics observers must never break ingestion.

The framework's selling point is being a lightweight passenger on the
LSM lifecycle; a bug or resource failure in a synopsis builder (or in
the network sink shipping it) must not fail the flush/merge itself.
Isolation is at chunk granularity: the chunk a sink raises on is the
last one it is offered, and neither the component nor a healthy peer
(held against ``tests/lsm/reference.py``) notices.
"""

from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree
from tests.lsm.reference import ReferenceObserver

CHUNK = 4  # records per chunk in these trees


class _ExplodingSink:
    """Fails on the chunk carrying the Nth record (or on finish)."""

    def __init__(self, fail_at=None, fail_on_finish=False):
        self.fail_at = fail_at
        self.fail_on_finish = fail_on_finish
        self.accepted = 0
        self.chunks = 0
        self.finished = 0

    def accept_many(self, chunk):
        self.accepted += len(chunk)
        self.chunks += 1
        if self.fail_at is not None and self.accepted >= self.fail_at:
            raise RuntimeError("injected accept failure")

    def finish(self, component):
        if self.fail_on_finish:
            raise RuntimeError("injected finish failure")
        self.finished += 1


class _Observer:
    def __init__(self, sink):
        self.sink = sink

    def begin_component_write(self, context):
        return self.sink

    def component_replaced(self, index_name, old, new):
        pass


def _tree_with(*sinks):
    tree = LSMTree("t", SimulatedDisk(), write_batch_size=CHUNK)
    for sink in sinks:
        tree.event_bus.subscribe(_Observer(sink))
    return tree


def test_accept_failure_does_not_break_flush():
    sink = _ExplodingSink(fail_at=CHUNK + 1)
    tree = _tree_with(sink)
    for i in range(10):
        tree.upsert(i, i)
    component = tree.flush()
    assert component is not None
    assert component.matter_count == 10
    assert tree.observer_failures == 1
    # The failed sink was dropped mid-stream -- after the second of
    # three chunks, the one carrying the fatal record -- and never
    # finished.
    assert (sink.chunks, sink.accepted) == (2, 2 * CHUNK)
    assert sink.finished == 0
    # Data remains fully readable.
    assert tree.count_range() == 10


def test_finish_failure_does_not_break_flush():
    sink = _ExplodingSink(fail_on_finish=True)
    tree = _tree_with(sink)
    tree.upsert(1, "a")
    assert tree.flush() is not None
    assert tree.observer_failures == 1
    assert tree.get(1) == "a"


def test_healthy_observer_unaffected_by_failing_peer():
    failing = _ExplodingSink(fail_at=1)
    healthy = _ExplodingSink()  # never fails
    tree = _tree_with(failing, healthy)
    reference = ReferenceObserver([tree])
    tree.event_bus.subscribe(reference)
    for i in range(5):
        tree.upsert(i, i)
    tree.flush()
    assert (failing.chunks, failing.finished) == (1, 0)
    assert (healthy.chunks, healthy.accepted) == (2, 5)
    assert healthy.finished == 1
    assert tree.observer_failures == 1
    # The component itself is exactly what the reference builds.
    assert reference.mismatches() == []


def test_merge_survives_observer_failure():
    sink = _ExplodingSink(fail_at=1)
    tree = _tree_with()
    tree.upsert(1, "a")
    tree.flush()
    tree.upsert(2, "b")
    tree.flush()
    tree.event_bus.subscribe(_Observer(sink))
    merged = tree.merge(tree.components)
    assert merged.matter_count == 2
    assert tree.observer_failures == 1
    assert tree.count_range() == 2


def test_no_failures_counted_when_observers_healthy():
    sink = _ExplodingSink()
    tree = _tree_with(sink)
    for i in range(5):
        tree.upsert(i, i)
    tree.flush()
    assert tree.observer_failures == 0
    assert sink.finished == 1
