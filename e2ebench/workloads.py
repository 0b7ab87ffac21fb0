"""Seeded input generators -- the only place the ``--seed`` reaches.

Every generator is a pure function of its arguments: one seed gives
identical inputs in any process (``random.Random`` seeded with a string
hashes it with SHA-512, never with the salted builtin ``hash``).  The
program under test receives only the generated inputs.

The documents are orders/customer shaped (after the TPC-CH-style schema
ROADMAP.md points at): a scattered primary key, a Zipf foreign key, a
Pareto-skewed amount, a monotone timestamp and a spiky categorical.
``RATIONALE`` records, in one line each, why a generator looks the way
it does; the runner copies it into the result JSON.
"""

from __future__ import annotations

import itertools
import random
from typing import Any

__all__ = [
    "RATIONALE",
    "PK_DOMAIN",
    "VALUE_DOMAIN",
    "TS_DOMAIN",
    "CUST_DOMAIN",
    "STATUS_DOMAIN",
    "documents",
    "churn_ops",
    "range_queries",
    "estimate_schedule",
    "due_times",
]

PK_DOMAIN = (0, 2**30 - 1)
VALUE_DOMAIN = (0, 2**16 - 1)
TS_DOMAIN = (0, 2**26 - 1)
CUST_DOMAIN = (0, 2**12 - 1)
STATUS_DOMAIN = (0, 15)

_PK_STRIDE = 514_229  # odd, so i * stride mod 2**30 is a permutation
_KIND_CYCLE = (
    "range", "summed", "range", "ndv", "range", "range", "summed", "range", "plan", "range",
)  # 60% range, 20% summed, 10% ndv, 10% plan
_CHURN_BLOCK = ("insert",) * 14 + ("update",) * 3 + ("delete",) * 3  # 70/15/15
_STATUS_WEIGHTS = (50, 20, 10, 6, 4, 3, 2, 1, 1, 1, 0.5, 0.5, 0.4, 0.3, 0.2, 0.1)

RATIONALE = {
    "documents": (
        "scattered PKs keep memtable inserts unsorted; Pareto value skews the "
        "histograms (one value per equal-probability stratum, dealt out by the "
        "seed, so accuracy reads the synopsis and not a sample's luck); monotone "
        "ts gives every component a disjoint key range; Zipf cust repeats keys "
        "so NDV << records"
    ),
    "churn_ops": (
        "an exact 70/15/15 insert/update/delete mix, shuffled per 20 ops; victims "
        "recency-Zipf among records already flushed, so anti-matter cancels "
        "persisted matter in components not yet merged away"
    ),
    "range_queries": (
        "a fixed (unseeded) ladder: half short ranges (<= 1% of the domain), "
        "half long, half of the starts in the dense low sixteenth, so every "
        "seed's data meets the same yardstick"
    ),
    "estimate_schedule": (
        "an exact 60/10/10/20 range/NDV/plan/unmergeable cycle with Zipf index "
        "choice, so a bounded cache sees a hot set and a cold tail"
    ),
    "due_times": (
        "fixed-rate arrivals precomputed before the clock starts, so a slow "
        "system cannot slow its own load (Luo & Carey's open loop)"
    ),
}


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"e2ebench:{seed}:{stream}")


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank**exponent) for rank in range(1, n + 1)))


def _pareto_values(rng: random.Random, count: int) -> list[int]:
    """``count`` Pareto(1.2) amounts, stratified: one draw from each of
    ``count`` equal-probability slices of the law, in seeded order.  Every
    seed then holds nearly the same multiset of values (what the accuracy
    and byte metrics depend on) and differs in which record, partition
    and component gets which."""
    values = [
        min(int(50.0 * (1.0 - (i + rng.random()) / count) ** (-1.0 / 1.2)), VALUE_DOMAIN[1])
        for i in range(count)
    ]
    rng.shuffle(values)
    return values


def primary_key(ordinal: int) -> int:
    """The ``ordinal``-th primary key: unique, scattered over the domain."""
    return (ordinal * _PK_STRIDE) % (PK_DOMAIN[1] + 1)


def documents(
    seed: int, count: int, first_ordinal: int = 0, stream: str = "orders"
) -> list[dict[str, Any]]:
    """``count`` order-shaped documents with consecutive ordinals."""
    rng = _rng(seed, f"documents:{stream}:{first_ordinal}")
    customers = rng.choices(
        range(CUST_DOMAIN[1] + 1),
        cum_weights=_zipf_cum_weights(CUST_DOMAIN[1] + 1, 1.1),
        k=count,
    )
    statuses = rng.choices(range(len(_STATUS_WEIGHTS)), weights=_STATUS_WEIGHTS, k=count)
    values = _pareto_values(rng, count)
    docs = []
    # ~2 ticks per document on average: count documents span well under
    # the ts domain at every scale this benchmark runs.
    ts = first_ordinal * 2
    for i in range(count):
        ts += rng.randint(0, 4)
        docs.append(
            {
                "id": primary_key(first_ordinal + i),
                "cust": customers[i],
                "value": values[i],
                "ts": min(ts, TS_DOMAIN[1]),
                "status": statuses[i],
            }
        )
    return docs


def churn_ops(
    seed: int, count: int, min_age: int
) -> tuple[list[tuple[str, dict[str, Any]]], dict[int, dict[str, Any]]]:
    """An insert/update/delete script plus the live records it leaves.

    Returns ``(ops, model)``: ``ops`` is a list of ``(kind, document)``
    with kind in ``insert``/``update``/``delete`` (a delete's document
    carries only ``id``); ``model`` maps every PK alive at the end to its
    final document -- the correctness oracle's ground truth.  Every
    update and delete names a live PK, so no operation can fail.

    Victims are drawn Zipf by recency among the PKs at least ``min_age``
    writes old (the caller passes a few memtables' worth).  A younger
    victim would still sit in the memtable, where its tombstone replaces
    the record in place and reaches disk as anti-matter with no matter to
    cancel -- the in-memory resolution the paper's Section 4.3.4 staging
    exists to avoid, and which biases every estimate low.
    """
    rng = _rng(seed, "churn")
    inserts = iter(documents(seed, count, stream="churn"))
    ranks = rng.choices(range(4096), cum_weights=_zipf_cum_weights(4096, 1.1), k=count)
    # The mix is exact, not sampled: every seed writes the same number of
    # records (so the same user bytes, give or take a digit) in another order.
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(_CHURN_BLOCK)
        rng.shuffle(block)
        kinds += block
    new_values = iter(_pareto_values(rng, kinds[:count].count("update")))
    ops: list[tuple[str, dict[str, Any]]] = []
    model: dict[int, dict[str, Any]] = {}
    live: list[int] = []  # PKs, oldest write first
    for i in range(count):
        kind = kinds[i]
        aged = len(live) - min_age
        if kind == "insert" or aged < 64:
            doc = next(inserts)
            model[doc["id"]] = doc
            live.append(doc["id"])
            ops.append(("insert", doc))
            continue
        pk = live.pop(aged - 1 - ranks[i] % aged)
        if kind == "update":
            # An update moves the amount and the status but not ts or cust:
            # value_idx takes an anti-matter/matter pair, ts_idx is untouched.
            doc = dict(model[pk], value=next(new_values), status=rng.randint(0, 15))
            model[pk] = doc
            live.append(pk)  # freshly written: young again
            ops.append(("update", doc))
        else:
            del model[pk]
            ops.append(("delete", {"id": pk}))
    return ops, model


def range_queries(count: int) -> list[tuple[int, int]]:
    """The fixed accuracy sweep: ``count`` inclusive ``(lo, hi)`` ranges
    over ``VALUE_DOMAIN``.

    Deliberately not seeded: the sweep is the yardstick, so every seed's
    data is measured against the same ranges and every run's estimates
    walk the same number of buckets.  Lengths climb a fixed ladder (odd
    queries up to 1% of the domain -- the selective half, whose latency
    ``harness.sweep_latency_metrics`` reports -- even ones up to half of
    it); half of the starts fall in the dense low sixteenth of the domain.
    """
    lo_bound, hi_bound = VALUE_DOMAIN
    width = hi_bound - lo_bound + 1
    short, dense = max(1, width // 100), max(1, width // 16)
    queries = []
    for i in range(count):
        if i % 2:
            length = 1 + (i * 37) % short
        else:
            length = short + (i * 7919) % (width // 2 - short)
        region = dense if (i // 2) % 2 else width
        start = lo_bound + (i * 104_729) % region
        start = min(start, hi_bound - length)
        queries.append((start, start + length))
    return queries


def estimate_schedule(
    seed: int,
    count: int,
    range_targets: list[tuple[str, str, tuple[int, int]]],
    phase: str,
) -> list[tuple[str, int, int, int]]:
    """The closed-loop client's fixed request list for one phase.

    ``range_targets`` lists ``(dataset, index, domain)``; each request is
    ``(kind, target position, lo, hi)`` with kind ``range`` (mergeable
    cluster), ``ndv``, ``plan`` or ``summed`` (unmergeable cluster).
    Targets are drawn Zipf by position, so the first few are hot.
    """
    rng = _rng(seed, f"schedule:{phase}")
    targets = rng.choices(
        range(len(range_targets)),
        cum_weights=_zipf_cum_weights(len(range_targets), 1.0),
        k=count,
    )
    # The mix is exact, not sampled: a seed moves targets and ranges, never
    # the share of each request kind (whose costs differ by 100x).
    kinds = itertools.islice(itertools.cycle(_KIND_CYCLE), count)
    schedule = []
    for kind, target in zip(kinds, targets):
        lo_bound, hi_bound = range_targets[target][2]
        width = hi_bound - lo_bound + 1
        lo = lo_bound + rng.randrange(width)
        hi = min(lo + rng.randint(1, max(1, width // 8)), hi_bound)
        schedule.append((kind, target, lo, hi))
    return schedule


def due_times(rate_per_s: float, seconds: float, per_op: int = 1) -> list[float]:
    """Offsets (seconds from the window start) at which an open-loop
    generator sends: one op of ``per_op`` units every ``per_op / rate``."""
    ops = int(seconds * rate_per_s / per_op)
    return [i * per_op / rate_per_s for i in range(ops)]
