"""The one seeded retry/backoff policy shared by every reconnecting
component.

Extracted from ``cluster/node.py`` so the statistics sink's delivery
retries and the feed consumers' reconnect loops draw from a single
implementation: exponential backoff with proportional jitter, a
cumulative per-operation time budget, and an injectable ``sleep`` hook
so tests and the chaos harnesses keep backoff purely simulated.
Jitter is sampled from a caller-supplied :class:`random.Random`, so a
seeded component stays bit-reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff behaviour of a retrying component.

    One attempt plus up to ``max_attempts - 1`` retries, with
    exponential backoff (``base_backoff * 2^retry``, capped at
    ``max_backoff``) and proportional jitter.  ``timeout`` is the
    per-operation budget: once the cumulative backoff would exceed it,
    the caller gives up for now (the statistics sink parks the message
    in its outbox; a feed consumer surfaces a
    :class:`~repro.errors.FeedError`; the estimate service sheds the
    request).  :meth:`pauses` enforces both budgets for every caller.

    ``sleep`` is the wall-clock hook; tests and the chaos harnesses
    install a no-op to keep backoff purely simulated.
    """

    max_attempts: int = 4
    base_backoff: float = 0.001
    max_backoff: float = 0.05
    jitter: float = 0.5
    timeout: float = 0.25
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ValueError(
                "need 0 <= base_backoff <= max_backoff, got "
                f"{self.base_backoff}/{self.max_backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_for(self, retry: int, rng: random.Random) -> float:
        """The jittered pause before retry number ``retry`` (0-based)."""
        base = min(self.base_backoff * (2.0 ** retry), self.max_backoff)
        if not self.jitter:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def pauses(self, rng: random.Random) -> Iterator[float]:
        """The pauses of one operation's retries, in order.

        Each pause is drawn (jitter from ``rng``), checked against the
        cumulative ``timeout`` budget, then yielded for the caller to
        sleep before its next attempt.  The generator ends once the
        attempt budget or the time budget is spent: the caller's cue
        to give up.
        """
        waited = 0.0
        for retry in range(self.max_attempts - 1):
            pause = self.backoff_for(retry, rng)
            if waited + pause > self.timeout:
                return
            waited += pause
            yield pause

    @classmethod
    def immediate(cls, max_attempts: int = 4) -> "RetryPolicy":
        """A policy that retries without sleeping (tests, chaos runs)."""
        return cls(
            max_attempts=max_attempts,
            base_backoff=0.0,
            max_backoff=0.0,
            jitter=0.0,
            sleep=lambda _s: None,
        )
