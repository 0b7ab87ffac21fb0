"""The cluster controller (master node).

Receives per-component synopses from storage nodes, persists them in
the system catalog, and serves cardinality estimates to the query
optimizer -- including the merged-synopsis cache of Algorithm 2.

Two message kinds reach it (docs/ARCHITECTURE.md "Wire format"):

* ``stats.apply`` -- one lifecycle event of one partition (a flush
  transaction, a merge, a bulkload, a recovery's re-derivation): the
  new components' synopsis pairs and the merged-away components' uids.
  It is one catalog transition: every entry is decoded and validated
  first, then one lock hold puts every entry and retracts every key,
  so no estimate ever sees a merged component beside its inputs.  An
  anti-matter payload of ``None`` means the twin saw no value; the
  family's empty synopsis (:func:`~repro.synopses.factory.empty_twin`)
  is installed in its place.
* ``stats.reset`` -- a recovered node disowns its pre-crash entries.

Anything else is refused as an unknown kind.  Application is
idempotent so the retrying sink's at-least-once delivery is safe:
exact redeliveries are recognised by their ``(node, partition, seq)``
stamp and skipped, the catalog itself tombstones retracted components
against late publishes, and the merged-synopsis cache is invalidated
only for the indexes whose catalog version actually moved.

``stats_messages_received`` counts every statistics message handled --
applies *and* resets -- and therefore always equals the
``cluster.stats.messages`` metric (tests assert the equality).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.cache import MergedSynopsisCache
from repro.core.catalog import StatisticsCatalog
from repro.core.collector import StatisticsUpdate
from repro.core.estimator import (
    CardinalityEstimator,
    EstimateResult,
    NDVEstimate,
)
from repro.cluster import wire
from repro.cluster.network import Network
from repro.errors import ClusterError, DomainError, SynopsisError, WireError
from repro.obs.registry import get_registry
from repro.synopses.factory import empty_twin, synopsis_from_payload

__all__ = ["ClusterController"]


class ClusterController:
    """Master node: statistics catalog, cache and estimator."""

    def __init__(
        self,
        network: Network,
        node_id: str = "cc",
        cache_merged: bool = True,
    ) -> None:
        self.node_id = node_id
        # Statistics publishes may arrive from background maintenance
        # threads while the application thread asks for estimates; the
        # lock keeps catalog/cache/dedup state consistent between the
        # two.  RLock: the estimator may consult the catalog re-entrantly.
        self._lock = threading.RLock()
        obs = get_registry()
        self.catalog = StatisticsCatalog()
        self.cache = MergedSynopsisCache() if cache_merged else None
        self.estimator = CardinalityEstimator(self.catalog, self.cache)
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
        if kind not in ("stats.apply", "stats.reset"):
            raise ClusterError(f"unknown message kind {kind!r} from {source}")
        # Everything a frame can get wrong is read here, before the
        # fencing / dedup state or the catalog is touched: a rejected
        # frame leaves no trace, so a good copy of it still applies.
        try:
            partition = int(message["partition"])
            epoch = int(message.get("epoch", 0))
            seq = message.get("seq")
            if seq is not None:
                seq = int(seq)
            if kind == "stats.apply":
                update = self._parse_apply(message)
            else:
                reset_key = message["index"]
                if not isinstance(reset_key, str):
                    raise TypeError(f"index name {reset_key!r} is not a string")
        except (KeyError, TypeError, ValueError, DomainError, SynopsisError) as exc:
            raise WireError(f"malformed {kind} from {source}: {exc!r}") from exc
        with self._lock:
            # Legacy attribute and metric count the same thing: every
            # statistics message handled, applies and resets alike.
            self.stats_messages_received += 1
            self._m_messages.inc()
            if self._is_stale_epoch(source, partition, epoch):
                self._m_stale.inc()
                return
            if seq is not None and self._is_duplicate(source, partition, epoch, seq):
                self._m_duplicates.inc()
                return
            if kind == "stats.apply":
                moved = self.catalog.apply(update, source, partition, epoch)
            else:
                # A recovered node disowns its pre-crash statistics:
                # every entry this node/partition published under an
                # older epoch goes; the sink's FIFO outbox guarantees
                # the reset precedes the new incarnation's re-publishes.
                self._m_resets.inc()
                removed = self.catalog.reset_partition(
                    reset_key, source, partition, below_epoch=epoch
                )
                moved = [reset_key] if removed else []
            if moved:
                self._g_catalog_entries.set(self.catalog.entry_count())
                if self.cache is not None:
                    for index_name in moved:
                        self.cache.invalidate(index_name)

    @staticmethod
    def _parse_apply(message: dict[str, Any]) -> StatisticsUpdate:
        """A ``stats.apply`` frame's body as the update it carries, every
        payload decoded and every empty twin resolved -- or the first
        thing wrong with it raised, nothing having changed."""
        entries, retracts = message["entries"], message["retracts"]
        if not isinstance(entries, list) or not isinstance(retracts, list):
            raise TypeError("entries and retracts must be lists")
        parsed = []
        for index_name, uid, payload, anti_payload in entries:
            if not isinstance(index_name, str):
                raise TypeError(f"index name {index_name!r} is not a string")
            if type(uid) is not int:
                raise TypeError(f"component uid {uid!r} is not an int")
            if not isinstance(payload, dict):
                raise TypeError(f"synopsis payload {payload!r} is not a dict")
            synopsis = synopsis_from_payload(payload)
            anti_synopsis = (
                empty_twin(synopsis)
                if anti_payload is None
                else synopsis_from_payload(anti_payload)
            )
            parsed.append((index_name, uid, synopsis, anti_synopsis))
        retracted = []
        for index_name, uids in retracts:
            if not isinstance(index_name, str):
                raise TypeError(f"index name {index_name!r} is not a string")
            if not isinstance(uids, list) or not set(map(type, uids)) <= {int}:
                raise TypeError(f"retracted uids {uids!r} are not a list of ints")
            retracted.append((index_name, tuple(uids)))
        return StatisticsUpdate(tuple(parsed), tuple(retracted))

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
