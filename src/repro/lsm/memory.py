"""Per-node memory arbitration for the LSM storage layer.

The paper's synopses stay "lightweight" only while someone arbitrates
the memory they and the LSM components compete for.  Following Luo &
Carey (*Breaking Down Memory Walls*, PAPERS.md), a single global byte
budget per node beats any static per-dataset split: the
:class:`MemoryArbiter` owns that budget and divides it between

* the **write arena** -- every dataset's active memtables,
* the **immutable pool** -- sealed memtables queued for flush,
* **bloom headroom** -- filters attached to resident disk components,
* the **merged-synopsis cache** -- the master-side fast path of
  Algorithm 2 (``core/cache.py``).

The four shares are constants that sum to 1.0.  Where a flush cuts a
component decides what the statistics catalog holds (one synopsis per
component), so nothing a reader does and nothing a restart forgets may
move the cut: the per-dataset allowance is a pure function of (budget,
registered datasets).  Pressure responses are split by determinism
class (the same discipline ``MergePacer`` follows, docs/MEMORY.md):

* **Early flushes** are *image-affecting but mode-invariant*: the
  trigger compares the active memtables' accounted bytes -- a pure
  function of the DML stream and prior rotation points -- against the
  per-dataset allowance, so sync, virtual and threaded schedulers, any
  interleaving of estimate clients, and a WAL replay after a crash all
  rotate at the identical record.  ``racecheck --memory`` and
  ``tests/test_verify.py`` prove it.
* **Backpressure and cache evictions** are *timing-only*: the write
  path may wait for the immutable pool to drain (never changing what
  flushes produce), and LRU evictions only cost the master a
  deterministic re-merge on the next estimate.

Accounting is incremental: every component exposes ``memory_bytes()``
maintained as cheap running counters (no O(n) walks on the hot path),
and datasets push per-pool breakdowns to the arbiter at write, flush,
merge and recovery boundaries.  The arbiter's view therefore equals the
ground-truth sum of component footprints at every quiescent point -- an
invariant the hypothesis suite replays under all three scheduler modes.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import MergedSynopsisCache
    from repro.lsm.record import Record

__all__ = [
    "MemoryArbiter",
    "MemoryUsage",
    "record_footprint",
    "ENTRY_OVERHEAD_BYTES",
]


ENTRY_OVERHEAD_BYTES = 64
"""Fixed per-entry cost: map node, record object, key reference."""

_KEY_BYTES = 16
_VALUE_SLOT_BYTES = 24
_DICT_OVERHEAD_BYTES = 32


def record_footprint(record: "Record") -> int:
    """Deterministic size model for one memtable entry.

    A *model*, not ``sys.getsizeof``: identical records must cost
    identical bytes on every platform and Python version, because
    arbitration decisions derived from these numbers are replayed by
    the determinism oracles (``racecheck --memory``).
    """
    bytes_ = ENTRY_OVERHEAD_BYTES + _KEY_BYTES
    value = record.value
    if isinstance(value, dict):
        bytes_ += _DICT_OVERHEAD_BYTES + _VALUE_SLOT_BYTES * len(value)
    elif value is not None:
        bytes_ += _KEY_BYTES
    return bytes_


class MemoryUsage:
    """One dataset's accounted footprint, split by pool."""

    __slots__ = ("active", "immutable", "bloom", "resident")

    def __init__(
        self,
        active: int = 0,
        immutable: int = 0,
        bloom: int = 0,
        resident: int = 0,
    ) -> None:
        self.active = active
        self.immutable = immutable
        self.bloom = bloom
        self.resident = resident

    @property
    def total(self) -> int:
        """Sum over every pool."""
        return self.active + self.immutable + self.bloom + self.resident


class MemoryArbiter:
    """One global byte budget, split between LSM pools in fixed shares.

    Datasets register themselves and push usage breakdowns; the master's
    merged-synopsis cache may be attached so its capacity tracks the
    cache share.  All methods are thread-safe (background flush/merge
    completions publish usage from worker threads), but the one
    *image-affecting* decision -- the early-flush allowance -- moves
    only with :meth:`register_dataset`: no usage publish, cache traffic
    or estimate changes it.
    """

    #: Share of the write arena: every dataset's active memtables.
    WRITE_SHARE = 0.45
    #: Share reserved for sealed memtables awaiting flush.
    IMMUTABLE_SHARE = 0.25
    #: Headroom for component bloom filters; overflow beyond it is
    #: charged to the cache pool, which the cluster re-reads on every
    #: estimate.
    BLOOM_SHARE = 0.15
    #: Share of the merged-synopsis cache (the one evictable pool).
    CACHE_SHARE = 0.15
    #: Per-dataset allowance floor: arbitration may flush early but must
    #: never wedge a dataset below a couple of records of headroom.
    MIN_WRITE_ALLOWANCE = 1024
    #: Cache capacity floor (one small merged pair stays admissible).
    MIN_CACHE_BYTES = 4096

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ConfigurationError(
                f"memory budget must be >= 1 byte, got {budget_bytes}"
            )
        # RLock: an attached cache's bytes-changed listener may fire
        # while this arbiter already holds the lock (attaching a cache
        # that must evict re-enters through the listener).
        self._lock = threading.RLock()
        self._budget = int(budget_bytes)
        self._usage: dict[str, MemoryUsage] = {}
        self._cache: "MergedSynopsisCache | None" = None
        self._peak = 0
        obs = get_registry()
        self._m_early_flush = obs.counter("memory.pressure.early_flush")
        self._m_stall = obs.counter("memory.pressure.stall")
        self._g_budget = obs.gauge("memory.budget.bytes")
        self._g_peak = obs.gauge("memory.peak.bytes")
        self._g_write_pool = obs.gauge("memory.pool.write.bytes")
        self._g_cache_pool = obs.gauge("memory.pool.cache.bytes")
        # Gauges are maintained *additively* (publish deltas against the
        # last published value) so several per-node arbiters sharing one
        # registry aggregate instead of overwriting each other.
        self._published: dict[str, float] = {}
        self._publish(self._g_budget, "budget", self._budget)
        self._publish(self._g_write_pool, "write_pool", self.write_pool_bytes())
        self._publish_cache_pool_locked()

    # -- configuration ---------------------------------------------------

    def register_dataset(self, key: str) -> None:
        """Admit a dataset into the write arena (idempotent: a restart
        re-registers the same key, so the allowance survives it)."""
        with self._lock:
            self._usage.setdefault(key, MemoryUsage())

    def attach_cache(self, cache: "MergedSynopsisCache") -> None:
        """Bound the merged-synopsis cache by the cache pool and count
        its bytes in the accounted total.

        The cache's bytes-changed listener keeps the accounted total
        and its high-water mark current for cache traffic that happens
        between dataset usage publishes."""
        with self._lock:
            self._cache = cache
            cache.add_bytes_listener(self._on_cache_bytes)
            self._track_peak_locked()
            cache.set_capacity(self._cache_pool_locked())

    def _on_cache_bytes(self, _bytes: int) -> None:
        with self._lock:
            self._track_peak_locked()

    # -- pool geometry ---------------------------------------------------

    def write_pool_bytes(self) -> int:
        """Bytes assigned to the write arena."""
        return int(self._budget * self.WRITE_SHARE)

    def write_allowance(self) -> int:
        """Per-dataset active-memtable allowance (write pool / datasets).

        Mode-invariant by construction: depends only on the budget and
        the registration count.
        """
        with self._lock:
            return max(
                self.MIN_WRITE_ALLOWANCE,
                self.write_pool_bytes() // max(1, len(self._usage)),
            )

    def cache_pool_bytes(self) -> int:
        """Bytes the merged-synopsis cache may occupy right now.

        Bloom overflow beyond its fixed headroom is charged here: the
        cache is the one evictable pool, so it absorbs the squeeze.
        """
        with self._lock:
            return self._cache_pool_locked()

    def _cache_pool_locked(self) -> int:
        bloom_bytes = sum(usage.bloom for usage in self._usage.values())
        overflow = max(0, bloom_bytes - int(self._budget * self.BLOOM_SHARE))
        return max(
            self.MIN_CACHE_BYTES,
            int(self._budget * self.CACHE_SHARE) - overflow,
        )

    # -- pressure decisions ----------------------------------------------

    def should_early_flush(self, active_bytes: int) -> bool:
        """True when a dataset's active memtables exceed their allowance.

        ``active_bytes`` is DML-thread state, so the decision replays
        identically under every scheduler mode.
        """
        return active_bytes > self.write_allowance()

    def note_early_flush(self) -> None:
        """Count an arbitration-triggered early rotation."""
        self._m_early_flush.inc()

    def immutable_within_pool(self) -> bool:
        """Whether sealed-memtable bytes fit the immutable pool (the
        write path's backpressure predicate; timing-only)."""
        with self._lock:
            immutable = sum(u.immutable for u in self._usage.values())
        return immutable <= int(self._budget * self.IMMUTABLE_SHARE)

    def note_pressure_stall(self) -> None:
        """Count one write-path wait on the immutable pool."""
        self._m_stall.inc()

    # -- accounting -------------------------------------------------------

    def update_usage(
        self,
        key: str,
        active: int,
        immutable: int,
        bloom: int,
        resident: int,
    ) -> None:
        """Publish one dataset's footprint breakdown (any thread)."""
        with self._lock:
            previous = self._usage.get(key)
            self._usage[key] = MemoryUsage(active, immutable, bloom, resident)
            self._track_peak_locked()
            # (only bloom bytes move the cache pool -- at flushes and
            # merges, not per write: keep the per-write section short)
            if previous is None or previous.bloom != bloom:
                self._publish_cache_pool_locked()

    def accounted_bytes(self) -> int:
        """Current accounted total: every dataset plus the cache."""
        with self._lock:
            return self._accounted_locked()

    def peak_bytes(self) -> int:
        """High-water mark of :meth:`accounted_bytes`."""
        with self._lock:
            return self._peak

    def _accounted_locked(self) -> int:
        total = sum(usage.total for usage in self._usage.values())
        if self._cache is not None:
            total += self._cache.memory_bytes()
        return total

    def _track_peak_locked(self) -> None:
        total = self._accounted_locked()
        if total > self._peak:
            self._peak = total
            self._publish(self._g_peak, "peak", self._peak)

    def _publish_cache_pool_locked(self) -> None:
        self._publish(self._g_cache_pool, "cache_pool", self._cache_pool_locked())

    def _publish(self, gauge: Any, key: str, value: float) -> None:
        previous = self._published.get(key, 0.0)
        if value != previous:
            gauge.inc(value - previous)
            self._published[key] = value
