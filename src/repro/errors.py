"""Exception hierarchy for the repro library.

Every exception raised by the library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class DomainError(ReproError):
    """A value fell outside its declared fixed-width integer domain."""


class StorageError(ReproError):
    """The simulated storage layer was used incorrectly."""


class ComponentStateError(StorageError):
    """An LSM component was used in an illegal lifecycle state."""


class BulkloadError(StorageError):
    """A bulkload stream violated its contract (e.g. unsorted input)."""


class WALError(StorageError):
    """The write-ahead log was used incorrectly or failed verification."""


class ManifestError(StorageError):
    """The component manifest is corrupt or was used incorrectly."""


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class SchedulerError(StorageError):
    """A background maintenance task failed or the scheduler was misused."""


class SynopsisError(ReproError):
    """A statistical synopsis was built or queried incorrectly."""


class MergeabilityError(SynopsisError):
    """A merge was attempted on synopses that cannot be combined."""


class CatalogError(ReproError):
    """The statistics catalog was queried for missing/invalid entries."""


class ClusterError(ReproError):
    """A simulated cluster operation failed."""


class FeedError(ClusterError):
    """A data feed misbehaved: missing source, a malformed record the
    caller asked to be strict about, or a consumer that exhausted its
    reconnect budget."""


class FeedDisconnectedError(FeedError):
    """The feed's transport dropped mid-stream (an injected or genuine
    disconnect).  The consumer reconnects with backoff and resumes from
    its in-memory position; only a crash falls back to the durable
    cursor."""


class OverloadedError(ClusterError):
    """The estimate service shed this request (admission queue full
    after the retry budget, or the caller's wait timed out).  The typed
    rejection of graceful degradation: callers back off or accept a
    degraded (possibly-stale) answer instead of queueing unboundedly."""


class NetworkUnavailableError(ClusterError):
    """A send was lost in flight or refused by an unavailable node.

    This is the simulated stand-in for a send timeout: the transport
    could not confirm delivery, so the sender must assume the worst and
    retry (the message may or may not have arrived -- at-least-once
    semantics).  Raised only when a :class:`~repro.cluster.faults.FaultPlan`
    is installed; the perfect default wire never raises it.
    """


class WireError(ClusterError):
    """A wire frame could not be encoded or decoded: a value of a type
    the format does not carry, or bytes that are truncated, corrupt or
    not a frame at all.  Nothing of a rejected frame is applied."""


class QueryError(ReproError):
    """A query or predicate was malformed."""


class BenchmarkError(ReproError):
    """A perf-suite report or baseline was malformed or incomparable."""
