"""The cluster controller (master node).

Receives per-component synopses from storage nodes, persists them in
the system catalog, and serves cardinality estimates to the query
optimizer -- including the merged-synopsis cache of Algorithm 2.

Message application is idempotent so the retrying sink's at-least-once
delivery is safe: exact redeliveries are recognised by their
``(node, partition, seq)`` stamp and skipped, the catalog itself
tombstones retracted components against late publishes, and the merged-
synopsis cache is invalidated only when the catalog actually changed.

``stats_messages_received`` counts every statistics message handled --
publishes *and* retracts -- and therefore always equals the
``cluster.stats.messages`` metric (they moved at different rates before
this was pinned down; tests assert the equality).
"""

from __future__ import annotations

import threading
from functools import partial

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.estimator import (
    CardinalityEstimator,
    EstimateResult,
    NDVEstimate,
)
from repro.cluster import wire
from repro.cluster.network import Network
from repro.errors import ClusterError, SynopsisError, WireError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.synopses.factory import synopsis_from_payload

__all__ = ["ClusterController"]


class ClusterController:
    """Master node: statistics catalog, cache and estimator."""

    def __init__(
        self,
        network: Network,
        node_id: str = "cc",
        cache_merged: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.node_id = node_id
        # Statistics publishes may arrive from background maintenance
        # threads while the application thread asks for estimates; the
        # lock keeps catalog/cache/dedup state consistent between the
        # two.  RLock: the estimator may consult the catalog re-entrantly.
        self._lock = threading.RLock()
        obs = registry if registry is not None else get_registry()
        self.catalog = StatisticsCatalog()
        self.cache = MergedSynopsisCache(obs) if cache_merged else None
        self.estimator = CardinalityEstimator(self.catalog, self.cache, obs)
        self.stats_messages_received = 0
        # (source node, partition, epoch) -> seqs already applied;
        # messages re-delivered by the at-least-once transport are
        # skipped.  Epoch is part of the channel because a restarted
        # node's sink restarts its sequence counter.
        self._applied_seqs: dict[tuple[str, int, int], set[int]] = {}
        # (source node, partition) -> highest epoch seen; messages from
        # older epochs are a crashed incarnation's stragglers and must
        # not land after the recovered node's reset.
        self._epochs: dict[tuple[str, int], int] = {}
        self._m_messages = obs.counter("cluster.stats.messages")
        self._m_duplicates = obs.counter("cluster.stats.duplicates")
        self._m_stale = obs.counter("cluster.stats.stale_epoch")
        self._m_resets = obs.counter("cluster.stats.resets")
        self._g_catalog_entries = obs.gauge("cluster.catalog.entries")
        network.register(node_id, self._on_message)

    def set_cache_capacity(self, capacity_bytes: int | None) -> None:
        """Re-target the merged-synopsis cache's byte bound.

        The memory arbiters' hook (docs/MEMORY.md): the cluster calls
        this with the sum of the per-node cache pools on every
        estimate, because bloom overflow squeezes them.  Shrinking
        evicts cold entries immediately; a no-op without a cache.
        """
        with self._lock:
            if self.cache is not None:
                self.cache.set_capacity(capacity_bytes)

    def estimate(self, index_name: str, lo: int, hi: int) -> float:
        """Cluster-wide cardinality estimate for a key range."""
        with self._lock:
            return self.estimator.estimate(index_name, lo, hi)

    def estimate_detailed(self, index_name: str, lo: int, hi: int) -> EstimateResult:
        """Estimate with overhead/caching diagnostics."""
        with self._lock:
            return self.estimator.estimate_detailed(index_name, lo, hi)

    def estimate_ndv(self, index_name: str) -> float:
        """Cluster-wide distinct-value estimate for ``index_name``."""
        with self._lock:
            return self.estimator.estimate_ndv(index_name)

    def estimate_ndv_detailed(self, index_name: str) -> NDVEstimate:
        """NDV estimate with the anti-matter interval and diagnostics."""
        with self._lock:
            return self.estimator.estimate_ndv_detailed(index_name)

    def estimate_degraded(
        self, index_name: str, lo: int, hi: int
    ) -> EstimateResult | None:
        """A degraded (possibly-stale) estimate from the cached merge.

        The overload fallback of the estimate service: answers from
        whatever merged synopsis is cached for the index, *ignoring*
        staleness, and flags the result ``degraded=True``.  Returns
        ``None`` when nothing is cached (the caller then surfaces the
        overload rejection instead).  Never touches the catalog or the
        cache's LRU/metrics state, so degraded traffic cannot perturb
        the primary path.
        """
        with self._lock:
            if self.cache is None:
                return None
            cached = self.cache.peek(index_name)
            if cached is None:
                return None
            estimate = max(
                cached.synopsis.estimate(lo, hi)
                - cached.anti_synopsis.estimate(lo, hi),
                0.0,
            )
            return EstimateResult(estimate, 0, True, 0.0, degraded=True)

    # -- message handling ---------------------------------------------------

    def _on_message(self, source: str, frame: bytes) -> None:
        message = wire.decode(frame)
        kind = message.get("kind") if isinstance(message, dict) else None
        if kind not in ("stats.publish", "stats.retract", "stats.reset"):
            raise ClusterError(f"unknown message kind {kind!r} from {source}")
        # Everything a frame can get wrong is read here, before the
        # fencing / dedup state or the catalog is touched: a rejected
        # frame leaves no trace, so a good copy of it still applies.
        try:
            index_name = message["index"]
            if not isinstance(index_name, str):
                raise TypeError(f"index name {index_name!r} is not a string")
            partition = int(message["partition"])
            epoch = int(message.get("epoch", 0))
            seq = message.get("seq")
            if seq is not None:
                seq = int(seq)
            if kind == "stats.publish":
                change = partial(
                    self.catalog.put,
                    index_name,
                    source,
                    partition,
                    int(message["component_uid"]),
                    synopsis_from_payload(message["synopsis"]),
                    synopsis_from_payload(message["anti_synopsis"]),
                    epoch=epoch,
                )
            elif kind == "stats.retract":
                change = partial(
                    self.catalog.retract,
                    index_name,
                    source,
                    partition,
                    list(map(int, message["component_uids"])),
                )
            else:
                # A recovered node disowns its pre-crash statistics:
                # every entry this node/partition published under an
                # older epoch goes; the sink's FIFO outbox guarantees
                # the reset precedes the new incarnation's re-publishes.
                change = partial(
                    self.catalog.reset_partition,
                    index_name,
                    source,
                    partition,
                    below_epoch=epoch,
                )
        except (KeyError, TypeError, ValueError, SynopsisError) as exc:
            raise WireError(f"malformed {kind} from {source}: {exc!r}") from exc
        with self._lock:
            # Legacy attribute and metric count the same thing: every
            # statistics message handled, publishes, retracts and resets
            # alike.
            self.stats_messages_received += 1
            self._m_messages.inc()
            if self._is_stale_epoch(source, partition, epoch):
                self._m_stale.inc()
                return
            if seq is not None and self._is_duplicate(source, partition, epoch, seq):
                self._m_duplicates.inc()
                return
            if kind == "stats.reset":
                self._m_resets.inc()
            self._apply(index_name, change)

    def _is_stale_epoch(self, source: str, partition: int, epoch: int) -> bool:
        """Fence out a crashed incarnation's straggler messages.

        Each node/partition carries a monotone restart epoch; the first
        message of a newer epoch raises the floor, and anything stamped
        below the floor is dropped -- a delayed pre-crash publish must
        not land after the recovered node reset its statistics.
        """
        channel = (source, partition)
        floor = self._epochs.get(channel, 0)
        if epoch < floor:
            return True
        if epoch > floor:
            self._epochs[channel] = epoch
        return False

    def _is_duplicate(
        self, source: str, partition: int, epoch: int, seq: int
    ) -> bool:
        """Whether this exact message was applied before.

        Messages are stamped ``(partition, seq)`` by the sending sink
        (unique per node/partition/epoch -- a restarted sink restarts
        its sequence, so the epoch is part of the channel); unstamped
        messages -- hand-rolled tests, pre-stamp senders -- bypass
        deduplication and rely on the catalog's own idempotency.
        """
        applied = self._applied_seqs.setdefault((source, partition, epoch), set())
        if seq in applied:
            return True
        applied.add(seq)
        return False

    def _apply(self, index_name: str, apply_change) -> None:
        """Run a catalog mutation; refresh gauge and cache only when
        the catalog version actually moved."""
        before = self.catalog.version_for(index_name)
        apply_change()
        if self.catalog.version_for(index_name) == before:
            return
        self._g_catalog_entries.set(self.catalog.entry_count())
        if self.cache is not None:
            self.cache.invalidate(index_name)
