"""LSM lifecycle events and the observer hook for piggybacked work.

The statistics framework "piggybacks on the events (flush and merge) of
the LSM lifecycle" (paper abstract).  Concretely, every disk component
is written by a single ``bulkload()`` routine consuming a key-sorted
record stream, and observers may *tap* that stream: before the write
starts each registered observer is offered a :class:`ComponentWriteContext`
and may return a sink; every chunk of records flowing to disk is also
fed to the sink, and when the component is sealed the sink is finished
with the resulting component.  Observing therefore costs no extra I/O --
precisely the paper's design.

The stream arrives as columnar chunks
(:class:`repro.lsm.columnar.ColumnarChunk`, docs/DATAPATH.md); a sink
reads the columns it needs.

One lifecycle event may write several components -- a dataset's flush
writes one per index, a merge writes its output and then retires its
inputs -- and an observer that forwards what it saw (the statistics
collector) must forward the event whole, never half of it.  So an event
runs inside :meth:`EventBus.group`: observers :func:`stage` what they
would have sent into the thread's open group, and when the outermost
group closes each one is handed its staged work once.
"""

from __future__ import annotations

import enum
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, TypeVar

from repro.lsm.columnar import ColumnarChunk
from repro.lsm.component import DiskComponent
from repro.lsm.record import Record
from repro.obs.registry import get_registry

__all__ = [
    "LSMEventType",
    "ComponentWriteContext",
    "RecordSink",
    "LSMEventObserver",
    "GroupMember",
    "EventBus",
    "stage",
]

T = TypeVar("T")


class LSMEventType(enum.Enum):
    """The three LSM lifecycle events that create disk components."""

    FLUSH = "flush"
    MERGE = "merge"
    BULKLOAD = "bulkload"


@dataclass(frozen=True)
class ComponentWriteContext:
    """Everything an observer may need while a component is written.

    Attributes:
        event_type: Which lifecycle event triggered the write.
        index_name: Name of the LSM index being written.
        expected_records: Upper bound on the number of records in the
            stream.  Exact for flushes (the memtable size) and bulkloads
            (provided by the loader); for merges it is the sum of the
            input components' record counts, which reconciliation may
            reduce -- the paper uses the same approximation for the
            equi-height bucket-height invariant.
        key_extractor: Maps a record to the integer value the synopsis
            summarises (the PK for primary indexes, the SK part of the
            composite key for secondary indexes).
        merged_components: Input components of a merge (empty otherwise).
    """

    event_type: LSMEventType
    index_name: str
    expected_records: int
    key_extractor: Callable[[Record], Any]
    merged_components: tuple[DiskComponent, ...] = ()


class RecordSink(Protocol):
    """Per-component-write consumer of the bulkload stream."""

    def accept_many(self, chunk: ColumnarChunk) -> None:
        """Observe one chunk of consecutive stream records on its way
        to disk."""

    def finish(self, component: DiskComponent) -> None:
        """The write completed and produced ``component``."""


class LSMEventObserver(Protocol):
    """Subscriber to component writes on an :class:`EventBus`."""

    def begin_component_write(
        self, context: ComponentWriteContext
    ) -> RecordSink | None:
        """Offered once per component write; return a sink to tap the
        stream, or ``None`` to ignore this write."""

    def component_replaced(
        self,
        index_name: str,
        old_components: tuple[DiskComponent, ...],
        new_component: DiskComponent,
    ) -> None:
        """A merge superseded ``old_components`` with ``new_component``."""


class GroupMember(Protocol):
    """An owner of work staged in an event group (see :func:`stage`)."""

    def close_group(self, staged: Any, committed: bool) -> None:
        """The outermost group closed: act on ``staged`` when
        ``committed``, drop it when the event raised."""


class _OpenGroup(threading.local):
    """One thread's open event group: nesting depth and staged work.

    Per thread because flushes and merges of different datasets run on
    different maintenance threads under a concurrent scheduler; one
    thread runs one event at a time, so its groups nest rather than
    interleave.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.staged: dict[GroupMember, Any] = {}


_OPEN = _OpenGroup()


def stage(owner: GroupMember, new: Callable[[], T]) -> T | None:
    """``owner``'s staged work in this thread's open event group --
    made by ``new`` on first use -- or ``None`` outside any group (the
    caller then acts at once: a bare write is a group of one)."""
    state = _OPEN
    if not state.depth:
        return None
    staged = state.staged.get(owner)
    if staged is None:
        staged = state.staged[owner] = new()
    return staged


class EventBus:
    """Fan-out of LSM lifecycle notifications to registered observers.

    Emits the ``lsm.events.*`` metrics (docs/OBSERVABILITY.md): one
    count per component-write offer and per recovery notice -- enough
    to see whether a statistics framework is actually riding the
    lifecycle.
    """

    def __init__(self) -> None:
        self._observers: list[LSMEventObserver] = []
        # Notifications may fire from background maintenance threads
        # while the application (un)subscribes; the guard keeps the
        # observer list and the callbacks it drives consistent.  An
        # RLock, because an observer callback may legally re-enter the
        # bus (e.g. a collector publishing triggers another tap offer).
        self._guard = threading.RLock()
        obs = get_registry()
        self._m_writes = obs.counter("lsm.events.component_writes")
        self._m_recoveries = obs.counter("lsm.events.recoveries")
        self._m_observer_failures = obs.counter("lsm.observer.failures")

    @contextmanager
    def group(self) -> Iterator[None]:
        """One lifecycle event (nestable, per thread).

        Work staged while the group is open (:func:`stage`) is handed to
        its owners once, when the *outermost* group on this thread
        closes: committed if the event completed, dropped if it raised
        -- a crashed process ships nothing, and a failed event installs
        nothing.  An owner that raises while closing is counted in
        ``lsm.observer.failures`` and skipped, like a sink that raises
        mid-write: observers never fail the event they ride.
        """
        state = _OPEN
        state.depth += 1
        committed = False
        try:
            yield
            committed = True
        finally:
            state.depth -= 1
            if not state.depth and state.staged:
                staged, state.staged = state.staged, {}
                for owner, work in staged.items():
                    try:
                        owner.close_group(work, committed)
                    except Exception:
                        self._m_observer_failures.inc()

    def subscribe(self, observer: LSMEventObserver) -> None:
        """Register an observer (idempotent)."""
        with self._guard:
            if observer not in self._observers:
                self._observers.append(observer)

    def unsubscribe(self, observer: LSMEventObserver) -> None:
        """Remove an observer if registered."""
        with self._guard:
            if observer in self._observers:
                self._observers.remove(observer)

    def open_sinks(self, context: ComponentWriteContext) -> list[RecordSink]:
        """Collect sinks from all observers for one component write."""
        with self._guard:
            self._m_writes.inc()
            sinks = []
            for observer in self._observers:
                sink = observer.begin_component_write(context)
                if sink is not None:
                    sinks.append(sink)
            return sinks

    def notify_replaced(
        self,
        index_name: str,
        old_components: tuple[DiskComponent, ...],
        new_component: DiskComponent,
    ) -> None:
        """Broadcast that a merge superseded components."""
        with self._guard:
            for observer in self._observers:
                observer.component_replaced(
                    index_name, old_components, new_component
                )

    def notify_recovered(
        self,
        index_name: str,
        components: Sequence[DiskComponent],
        key_extractor: Callable[[Record], Any],
    ) -> None:
        """Broadcast that crash recovery reinstated ``components``
        (oldest first) for ``index_name``.

        Recovery rebuilds components from the manifest *without* the
        component-write stream observers normally tap, so observers that
        derive state from that stream (the statistics collector) get
        this one chance to re-derive it by scanning the recovered
        components.  Observers without a ``components_recovered`` method
        are skipped -- recovery is an optional part of the protocol.
        """
        with self._guard:
            self._m_recoveries.inc()
            for observer in self._observers:
                handler = getattr(observer, "components_recovered", None)
                if handler is not None:
                    handler(index_name, components, key_extractor)
