"""Merge pacing: a token-bucket budget for background merge progress.

Luo & Carey, *On Performance Stability in LSM-based Storage Systems*,
show that unpaced merges are the dominant cause of write stalls: a
merge that runs flat-out monopolizes the resources (here: the GIL and
the worker pool) that ingestion and flushes need, so writer latency
spikes for the whole duration of the merge.  The fix is to meter merge
progress against a budget and hand the freed time to the write path.

:class:`MergePacer` implements that budget as a token bucket measured
in *records merged*.  The merge build path consults it at chunk
boundaries (:meth:`MergePacer.pace`); when the budget is exhausted the
merge sleeps off its deficit in short slices, yielding the worker (and
the GIL) between chunks so flush tasks and DML threads run while the
merge is parked.  One pacer is typically shared by every dataset of a
node -- the budget is a per-node resource, exactly like the disk
bandwidth it stands in for.

Pacing is a *scheduling* lever only: it changes **when** merge chunks
are processed, never their bytes.  Under the ``sync`` and ``virtual``
schedulers there is no concurrent writer to protect, so blocking is
disarmed (:meth:`set_blocking`) and ``pace`` only keeps the token
accounting -- which is what lets ``repro racecheck --paced`` prove
paced concurrent runs end bit-identical to the synchronous oracle.

Metrics (docs/OBSERVABILITY.md): ``merge.pacing.tokens`` (records
granted), ``merge.pacing.waits`` (paced pauses) and
``merge.pacing.wait.seconds`` (pause duration distribution).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry

__all__ = ["MergePacer", "DEFAULT_MERGE_PACE_SLICE"]

DEFAULT_MERGE_PACE_SLICE = 0.05
"""Longest single sleep of a paced merge (seconds).  Short slices keep
paced merges responsive to drains and shutdowns."""

_TOKEN_EPSILON = 1e-9
"""Slack on the tokens-vs-charge comparison.  The bucket refills from
``elapsed * rate`` float arithmetic, so a refill meant to land exactly
on the charge can fall an ulp short; without the slack the wait loop
would chase that ulp with ever-smaller sleeps."""

_MIN_SLEEP = 1e-6
"""Floor on one paced sleep.  A deficit below the clock's resolution
would otherwise sleep for less than a tick and spin."""


class MergePacer:
    """A token-bucket rate limit on merge progress, in records/second.

    Thread-safe and shareable: concurrent merges (different lanes of
    one node) draw from the same bucket, so the configured rate bounds
    the node's *total* merge throughput.  The bucket refills
    continuously from wall time and holds at most ``burst`` tokens, so
    an idle period buys a merge at most ``burst`` records of
    full-speed catch-up before pacing kicks in again.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        blocking: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        max_sleep: float = DEFAULT_MERGE_PACE_SLICE,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"pacing rate must be > 0, got {rate}")
        self.rate = float(rate)
        # Default burst: a tenth of a second of budget, but never less
        # than one typical write batch so a single chunk cannot exceed
        # the bucket and wait forever.
        self.burst = float(burst) if burst is not None else max(rate / 10.0, 1024.0)
        if self.burst <= 0:
            raise ConfigurationError(f"burst must be > 0, got {self.burst}")
        self._blocking = blocking
        self._clock = clock
        self._sleep = sleep
        self._max_sleep = max_sleep
        self._lock = threading.Lock()
        self._tokens = self.burst  # start full: the first chunks are free
        self._last = clock()
        obs = get_registry()
        self._m_tokens = obs.counter("merge.pacing.tokens")
        self._m_waits = obs.counter("merge.pacing.waits")
        self._h_wait = obs.histogram("merge.pacing.wait.seconds")

    @property
    def blocking(self) -> bool:
        """Whether an exhausted budget actually pauses the caller."""
        return self._blocking

    def set_blocking(self, blocking: bool) -> None:
        """Arm or disarm the pause.  Disarmed (``sync``/``virtual``
        schedulers) the pacer only keeps token accounting: there is no
        concurrent writer to yield to, and sleeping would change
        nothing but test wall time."""
        self._blocking = blocking

    def pace(self, records: int) -> float:
        """Charge ``records`` against the budget; returns the seconds
        paused (0.0 when the budget covered the charge or blocking is
        disarmed).  Called at chunk boundaries by the merge build."""
        if records <= 0:
            return 0.0
        self._m_tokens.inc(records)
        # A charge larger than the whole bucket could never be covered;
        # cap it so the wait math terminates (the overflow is free).
        required = min(float(records), self.burst)
        wait_started: float | None = None
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self.burst, self._tokens + (now - self._last) * self.rate
                )
                self._last = now
                if self._tokens + _TOKEN_EPSILON >= required or not self._blocking:
                    # Non-blocking mode may drive the bucket negative;
                    # clamp the debt so one giant merge cannot mute
                    # pacing for the rest of the run.
                    self._tokens = max(self._tokens - required, -self.burst)
                    break
                deficit = (required - self._tokens) / self.rate
            if wait_started is None:
                wait_started = self._clock()
                self._m_waits.inc()
            self._sleep(min(max(deficit, _MIN_SLEEP), self._max_sleep))
        if wait_started is None:
            return 0.0
        waited = self._clock() - wait_started
        self._h_wait.observe(waited)
        return waited
