"""The concurrent estimate service: an overload-safe serving front.

The paper evaluates estimation accuracy and overhead with a single
closed-loop client.  A serving deployment is different: many optimizer
threads ask for estimates concurrently while feeds keep publishing new
statistics, and an unbounded queue in front of the estimator turns a
load spike into unbounded latency.  This module puts the standard
serving armour around :class:`~repro.core.estimator.CardinalityEstimator`
(via the :class:`~repro.cluster.cluster.LSMCluster` facade):

* **callers run their own estimates** -- an estimate is catalog-only
  work of a few microseconds (paper Section 3.4), cheaper than any
  hand-off to another thread, so every estimate runs on its caller's
  thread and the service owns no thread.  ``workers`` is the number of
  slots, the bound on estimates running at once;
* a **bounded admission queue** -- a caller that finds every slot taken,
  or others already waiting, waits in the queue, at most
  ``max_queue_depth`` of them; admission past the bound retries with
  the shared :class:`~repro.util.retry.RetryPolicy` pauses and then
  sheds the request with a typed :class:`~repro.errors.OverloadedError`;
* **per-client fair scheduling** -- a finishing estimate hands its slot
  to the next waiting client in round-robin order, so one chatty
  client cannot starve the rest (its requests queue behind its own
  backlog, not everyone else's);
* **timeouts** -- a deadline bounds the wait for a slot, never the
  estimate: a waiter whose deadline passes leaves the queue and
  surfaces either the typed rejection or a degraded answer;
* **graceful degradation** -- with ``degraded_mode`` on, a shed or
  timed-out request falls back to
  :meth:`~repro.cluster.cluster.LSMCluster.estimate_degraded`: the
  possibly-stale cached merged synopsis, flagged
  ``EstimateResult.degraded`` so the optimizer knows what it got.

Everything observable is a ``serve.*`` metric (docs/OBSERVABILITY.md);
the ``repro servecheck`` harness drives this service to saturation and
asserts sheds are typed, depth stays bounded and nothing deadlocks.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any

from repro.core.estimator import EstimateResult
from repro.errors import ConfigurationError, OverloadedError
from repro.obs.registry import get_registry
from repro.util.retry import RetryPolicy

__all__ = ["EstimateService"]

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_WORKERS = 2
DEFAULT_TIMEOUT_SECONDS = 1.0


class _Waiter:
    """One caller queued for a slot, woken only by its own grant."""

    __slots__ = ("granted", "wakeup")

    def __init__(self, lock: threading.Lock) -> None:
        self.granted = False
        self.wakeup = threading.Condition(lock)


class EstimateService:
    """Thread-safe serving front over a cluster's estimate path.

    Args:
        cluster: The :class:`~repro.cluster.cluster.LSMCluster` (or any
            object with ``estimate_detailed`` / ``estimate_degraded``).
        max_queue_depth: Bound on callers waiting across all clients.
        workers: The number of slots: at most this many estimates run
            at once, each on its caller's thread.
        default_timeout: Per-request bound on the wait for a slot when
            the caller does not pass one.
        retry_policy: Admission retry/backoff against a full queue;
            defaults to the shared :class:`RetryPolicy` defaults.
        degraded_mode: Serve possibly-stale cached answers (flagged
            ``degraded=True``) instead of shedding, when one exists.
    """

    def __init__(
        self,
        cluster: Any,
        max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        workers: int = DEFAULT_WORKERS,
        default_timeout: float = DEFAULT_TIMEOUT_SECONDS,
        retry_policy: RetryPolicy | None = None,
        degraded_mode: bool = False,
    ) -> None:
        if max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._cluster = cluster
        self.max_queue_depth = max_queue_depth
        self.num_workers = workers
        self.default_timeout = default_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.degraded_mode = degraded_mode
        # One lock guards the per-client queues, the round-robin order,
        # the depth accounting and the running-estimate count; every
        # waiter's condition is bound to it.
        self._lock = threading.Lock()
        self._queues: dict[str, deque[_Waiter]] = {}
        self._rotation: deque[str] = deque()
        self._depth = 0
        self._running = 0
        self.peak_queue_depth = 0
        self._stopping = False
        obs = get_registry()
        self._m_requests = obs.counter("serve.requests")
        self._m_rejected = obs.counter("serve.rejected")
        self._m_degraded = obs.counter("serve.degraded")
        self._m_timeouts = obs.counter("serve.timeouts")
        self._g_depth = obs.gauge("serve.queue.depth")
        self._h_latency = obs.histogram("serve.latency.seconds")
        self._h_queue_wait = obs.histogram("serve.queue_wait.seconds")

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Refuse new requests; waiting callers fail with ``OverloadedError``."""
        with self._lock:
            self._stopping = True
            for queue in self._queues.values():
                for waiter in queue:
                    waiter.wakeup.notify()
                queue.clear()
            self._rotation.clear()
            self._set_depth(0)

    def __enter__(self) -> "EstimateService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    @property
    def queue_depth(self) -> int:
        """Current number of callers waiting for a slot."""
        with self._lock:
            return self._depth

    # -- client API ---------------------------------------------------------

    def estimate(
        self,
        client_id: str,
        dataset: str,
        index_name: str,
        lo: int,
        hi: int,
        timeout: float | None = None,
    ) -> EstimateResult:
        """Answer one estimate request on the calling thread.

        A free slot with nobody waiting runs the estimate at once;
        otherwise the caller queues until a finishing estimate hands it
        a slot.  Raises :class:`~repro.errors.OverloadedError` when the
        request is shed (queue full after the admission retry budget,
        the wait deadline expired, or shutdown) and no degraded answer
        is available.
        """
        self._m_requests.inc()
        started = time.perf_counter()
        shed = self._acquire_slot(client_id, timeout)
        if shed is not None:
            request = (dataset, index_name, lo, hi)
            return self._degrade_or_raise(client_id, request, shed)
        try:
            return self._cluster.estimate_detailed(dataset, index_name, lo, hi)
        finally:
            self._h_latency.observe(time.perf_counter() - started)
            self._release_slot()

    # -- internals ----------------------------------------------------------

    def _acquire_slot(self, client_id: str, timeout: float | None) -> str | None:
        """Hold one slot for the caller: ``None`` once held, else the
        reason the request is shed.  Admission against a full queue
        retries with the policy's pauses."""
        pauses = None
        while True:
            with self._lock:
                if not self._stopping:
                    if not self._depth and self._running < self.num_workers:
                        self._running += 1
                        return None
                    if self._depth < self.max_queue_depth:
                        return self._wait_for_slot(client_id, timeout)
            if pauses is None:
                pauses = self.retry_policy.pauses(random.Random(f"serve:{client_id}"))
            pause = next(pauses, None)
            if pause is None:
                self._m_rejected.inc()
                return "admission queue full"
            self.retry_policy.sleep(pause)

    def _wait_for_slot(self, client_id: str, timeout: float | None) -> str | None:
        """Queue the caller until a finishing estimate hands it a slot or
        its deadline passes.  Called under the lock."""
        waiter = _Waiter(self._lock)
        queue = self._queues.setdefault(client_id, deque())
        queue.append(waiter)
        if len(queue) == 1:
            self._rotation.append(client_id)
        self._set_depth(self._depth + 1)
        self.peak_queue_depth = max(self.peak_queue_depth, self._depth)
        queued_at = time.perf_counter()
        deadline = self.default_timeout if timeout is None else timeout
        while not waiter.granted:  # a grant that races the deadline wins
            if self._stopping:
                raise OverloadedError("estimate service shut down")
            remaining = queued_at + deadline - time.perf_counter()
            if remaining <= 0:
                queue.remove(waiter)
                if not queue:
                    self._rotation.remove(client_id)
                self._set_depth(self._depth - 1)
                self._m_timeouts.inc()
                return f"no slot within {deadline}s"
            waiter.wakeup.wait(remaining)
        self._h_queue_wait.observe(time.perf_counter() - queued_at)
        return None

    def _release_slot(self) -> None:
        """Hand the slot straight to the next waiter in round-robin
        order -- the oldest request of the next client in rotation,
        which re-enters the rotation tail while it still has a
        backlog -- or free it when nobody waits."""
        with self._lock:
            if not self._rotation:
                self._running -= 1
                return
            client_id = self._rotation.popleft()
            queue = self._queues[client_id]
            waiter = queue.popleft()
            if queue:
                self._rotation.append(client_id)
            self._set_depth(self._depth - 1)
            waiter.granted = True
            waiter.wakeup.notify()

    def _set_depth(self, depth: int) -> None:
        self._depth = depth
        self._g_depth.set(depth)

    def _degrade_or_raise(
        self, client_id: str, request: tuple[str, str, int, int], reason: str
    ) -> EstimateResult:
        if self.degraded_mode:
            degraded = self._cluster.estimate_degraded(*request)
            if degraded is not None:
                self._m_degraded.inc()
                return degraded
        raise OverloadedError(f"estimate request from {client_id!r} shed: {reason}")
