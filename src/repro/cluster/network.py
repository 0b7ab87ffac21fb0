"""A synchronous in-process network with serialisation accounting.

Implements the transport of the paper's Section 3.4 statistics
protocol: "each local synopsis ... is sent over the network to the
master node[;] the synopsis is persisted in the system catalog, so that
it can be used during query optimization."  It stands in for the
Gigabit Ethernet of the paper's 4+1-node AsterixDB cluster (Section
4.1's testbed).  The wire carries ``bytes``: a sender hands over one
immutable frame (:mod:`repro.cluster.wire` encodes the statistics
messages), every delivery is charged ``len(frame)`` and the receiving
handler gets exactly those bytes -- so the traffic experiments report
is by construction what the master learned from, the measure behind
the paper's argument that shipping a few hundred bucket values is
negligible next to the data itself.

By default delivery is synchronous, ordered and exactly-once --
adequate for the happy-path statistics protocol.  Installing a
:class:`~repro.cluster.faults.FaultPlan` turns the wire adversarial:
sends may be lost (the sender sees
:class:`~repro.errors.NetworkUnavailableError`, the simulated send
timeout), duplicated, held back past later traffic (reordering) or
delayed for several ticks.  The fault path is entirely bypassed when no
plan is installed, so the perfect-wire byte accounting of the figure
benchmarks is unchanged.

Traffic is observable twice over: the :class:`NetworkStats` attribute
and the ``network.*`` metrics of the registry bound at construction
(docs/OBSERVABILITY.md), including the fault counters
``network.dropped`` / ``network.duplicated`` / ``network.reordered`` /
``network.delayed``.  The attribute stays beside the registry because
it counts per network, not per registry: e2ebench and
:mod:`repro.eval.pipeline` read ``network.stats.bytes_sent`` of one
cluster by name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.faults import FaultDecision, FaultPlan
from repro.errors import ClusterError, NetworkUnavailableError
from repro.obs.registry import get_registry

__all__ = ["NetworkStats", "Network"]

MessageHandler = Callable[[str, bytes], None]


@dataclass
class NetworkStats:
    """Traffic counters, overall and per destination."""

    messages: int = 0
    bytes_sent: int = 0
    per_destination: dict[str, int] = field(default_factory=dict)

    def record(self, destination: str, size: int) -> None:
        """Charge one message of ``size`` bytes to ``destination``."""
        self.messages += 1
        self.bytes_sent += size
        self.per_destination[destination] = (
            self.per_destination.get(destination, 0) + size
        )


@dataclass(frozen=True)
class _HeldMessage:
    """A frame parked for reordering/delay until ``release_tick``."""

    release_tick: int
    order: int  # FIFO among equal release ticks
    source: str
    destination: str
    frame: bytes


class Network:
    """Registry of node endpoints with synchronous message delivery.

    Args:
        fault_plan: Optional seeded :class:`FaultPlan`; ``None`` (the
            default) keeps the wire perfect and the hot path identical
            to the pre-fault implementation.
    """

    def __init__(self, fault_plan: FaultPlan | None = None) -> None:
        self._handlers: dict[str, MessageHandler] = {}
        self.stats = NetworkStats()
        self.fault_plan = fault_plan
        self._clock = 0  # one tick per send attempt: the fault-plan time base
        self._held: list[_HeldMessage] = []
        self._held_order = 0
        # The wire is a shared medium: statistics sinks on background
        # maintenance threads and the application thread may send
        # concurrently.  One reentrant lock serialises send/drain (and
        # the handler calls inside them) -- delivery stays synchronous
        # and ordered, matching the single-wire model.  Reentrant
        # because a delivered message's handler may itself send.
        self._wire_lock = threading.RLock()
        obs = get_registry()
        self._m_messages = obs.counter("network.messages")
        self._m_bytes = obs.counter("network.bytes")
        self._m_dropped = obs.counter("network.dropped")
        self._m_duplicated = obs.counter("network.duplicated")
        self._m_reordered = obs.counter("network.reordered")
        self._m_delayed = obs.counter("network.delayed")

    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Attach a node endpoint; one handler per node id."""
        if node_id in self._handlers:
            raise ClusterError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def send(self, source: str, destination: str, frame: bytes) -> int:
        """Account and deliver one frame; returns its size in bytes.

        Raises :class:`NetworkUnavailableError` when the installed
        fault plan loses the message or the destination is inside an
        unavailability window -- the sender cannot tell which, exactly
        like a timed-out send.
        """
        with self._wire_lock:
            return self._send_locked(source, destination, frame)

    def _send_locked(self, source: str, destination: str, frame: bytes) -> int:
        handler = self._handlers.get(destination)
        if handler is None:
            raise ClusterError(f"unknown destination node {destination!r}")
        if not isinstance(frame, bytes):
            raise ClusterError(
                f"the wire carries bytes, got {type(frame).__name__} "
                f"from {source!r}"
            )
        plan = self.fault_plan
        if plan is None:
            self._deliver(handler, source, destination, frame)
            return len(frame)

        tick = self._clock
        self._clock += 1
        decision = plan.decide(source, destination, tick)
        if decision.disposition is FaultDecision.DROP:
            self._m_dropped.inc()
            # Losses still advance time, releasing any due held traffic.
            self._release_due(tick)
            raise NetworkUnavailableError(
                f"send {source!r} -> {destination!r} {decision.reason or 'lost'}"
                f" at tick {tick}"
            )
        copies = 1
        if decision.duplicate:
            copies = 2
            self._m_duplicated.inc()
        if decision.disposition is FaultDecision.HOLD:
            counter = (
                self._m_delayed
                if decision.reason == "delayed"
                else self._m_reordered
            )
            counter.inc()
            for _ in range(copies):
                self._held.append(
                    _HeldMessage(
                        decision.release_tick,
                        self._held_order,
                        source,
                        destination,
                        frame,
                    )
                )
                self._held_order += 1
        else:
            for _ in range(copies):
                self._deliver(handler, source, destination, frame)
        self._release_due(tick)
        return len(frame)

    def drain(self) -> int:
        """Deliver every held (reordered/delayed) message immediately.

        Recovery hook for chaos runs: once ingestion stops, no further
        sends advance the clock, so parked messages would otherwise
        never be released.  Returns how many messages were delivered.
        """
        with self._wire_lock:
            return self._release_due(None)

    @property
    def pending_count(self) -> int:
        """Messages currently parked for reordering/delay."""
        return len(self._held)

    @property
    def node_ids(self) -> list[str]:
        """All registered endpoints."""
        return sorted(self._handlers)

    # -- internals -----------------------------------------------------------

    def _deliver(
        self,
        handler: MessageHandler,
        source: str,
        destination: str,
        frame: bytes,
    ) -> None:
        self.stats.record(destination, len(frame))
        self._m_messages.inc()
        self._m_bytes.inc(len(frame))
        handler(source, frame)

    def _release_due(self, tick: int | None) -> int:
        """Deliver held messages whose release tick has passed
        (``tick=None`` releases everything)."""
        if not self._held:
            return 0
        due: list[_HeldMessage] = []
        keep: list[_HeldMessage] = []
        for held in self._held:
            if tick is None or held.release_tick <= tick:
                due.append(held)
            else:
                keep.append(held)
        if not due:
            return 0
        self._held = keep
        for held in sorted(due, key=lambda h: (h.release_tick, h.order)):
            handler = self._handlers.get(held.destination)
            if handler is None:  # endpoint vanished; count as a loss
                self._m_dropped.inc()
                continue
            self._deliver(handler, held.source, held.destination, held.frame)
        return len(due)
