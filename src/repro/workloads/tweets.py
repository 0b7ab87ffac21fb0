"""Tweet-like record generation (paper Section 4.1.1).

The paper's synthetic experiments "emulated a Twitter Firehose-like
external data source to ingest generated records resembling real
Tweets", each ~1 KB, augmented with a special integer field drawn from
a synthetic distribution and covered by a secondary B-tree index.

:class:`TweetGenerator` realises a :class:`SyntheticDistribution`
exactly: the generated multiset of ``value`` fields matches the
distribution's frequency set record-for-record, so distribution-based
ground truth (``true_range_count``) applies to the ingested dataset.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.workloads.distributions import SyntheticDistribution

__all__ = ["TweetGenerator", "VALUE_FIELD"]

VALUE_FIELD = "value"
"""The indexed synthetic integer field on generated tweets."""

_USERS = [
    "NathanGiesen", "ColineGeyer", "NilaMilliron", "MarcosTorres",
    "ChangEwing", "EmoryUnk", "VerneWoodworth", "SuzannaTillson",
]
_TOPICS = [
    "at&t", "verizon", "t-mobile", "sprint", "iphone", "samsung",
    "platform", "speed", "voice-clarity", "signal", "plan", "network",
]


class TweetGenerator:
    """Deterministic generator of tweet-like documents.

    Args:
        distribution: The synthetic distribution the indexed ``value``
            field realises exactly.
        seed: Shuffle seed for the ingestion order.
        message_bytes: Size of the filler message payload.  The paper
            uses ~1 KB records; shrink it to trade realism for speed.
    """

    def __init__(
        self,
        distribution: SyntheticDistribution,
        seed: int = 0,
        message_bytes: int = 96,
    ) -> None:
        self.distribution = distribution
        self._rng = np.random.default_rng(seed)
        self.message_bytes = message_bytes

    def generate(self) -> Iterator[dict[str, Any]]:
        """All records, PKs sequential, values in shuffled order."""
        record_values = self.distribution.record_values(self._rng)
        for pk, value in enumerate(record_values):
            yield self.make_document(pk, int(value))

    def make_document(self, pk: int, value: int) -> dict[str, Any]:
        """One tweet-like document with the indexed value field."""
        user = _USERS[pk % len(_USERS)]
        topic = _TOPICS[(pk // len(_USERS)) % len(_TOPICS)]
        message = (
            f" love {topic} its {'#'*3}{topic} is good:)"
            .ljust(self.message_bytes, "x")[: self.message_bytes]
        )
        return {
            "id": pk,
            "username": user,
            "message": message,
            "location": [(pk * 31 % 360) - 180.0, (pk * 17 % 180) - 90.0],
            "send_time": 1_200_000_000 + pk,
            VALUE_FIELD: value,
        }
