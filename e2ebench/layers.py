"""Turn what was read from outside into the named per-layer metrics.

Three sources, all outside ``src/``: the tracer's per-name aggregates
(``*.self_s``, ``*.calls``, ``*.records``), the program's own registry
counters and histogram sums (the ® metrics: read, not recomputed), and
what the workload itself measured (``client.*``, cache hit ratios,
estimator medians).  Every name in ``BENCHMARK.json``'s ``per_layer``
list gets a value on every workload; 0 means the layer did no work in
the traced section, which for the bypass pairs is the prediction.  A name
that nothing here can produce -- a wrapper row or a counter of the
program that was renamed -- is an error, never a silent 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from repro.lsm.storage import IOStats
from repro.obs.registry import get_registry

from e2ebench import harness, spec
from e2ebench.trace import SYNOPSIS_FAMILIES, Tracer, aggregate_names, delta

__all__ = ["Probe", "Section", "probe", "cluster_readings", "assemble"]

CALLS, TOTAL, SELF, COUNT = range(4)

# metric -> (tracer aggregate, field)
_TRACED: dict[str, tuple[str, int]] = {
    "lsm.dataset.insert_many.self_s": ("lsm.dataset.insert_many", SELF),
    "lsm.dataset.insert_many.calls": ("lsm.dataset.insert_many", CALLS),
    "lsm.dataset.insert_many.records": ("lsm.dataset.insert_many", COUNT),
    "lsm.dataset.bulkload.self_s": ("lsm.dataset.bulkload", SELF),
    "lsm.dataset.update_delete.self_s": ("lsm.dataset.update_delete", SELF),
    "lsm.memtable.write.self_s": ("lsm.memtable.write", SELF),
    "lsm.memtable.write.records": ("lsm.memtable.write", CALLS),
    "lsm.memtable.sorted_chunks.self_s": ("lsm.memtable.sorted_chunks", SELF),
    "lsm.wal.log_op.self_s": ("lsm.wal.log_op", SELF),
    "lsm.wal.log_op.calls": ("lsm.wal.log_op", CALLS),
    "lsm.manifest.self_s": ("lsm.manifest", SELF),
    "lsm.tree.flush.self_s": ("lsm.tree.flush", SELF),
    "lsm.tree.merge.self_s": ("lsm.tree.merge", SELF),
    "lsm.tree.bulkload.self_s": ("lsm.tree.bulkload", SELF),
    "lsm.btree.build.self_s": ("lsm.btree.build", SELF),
    "lsm.btree.build.records": ("lsm.btree.build", COUNT),
    "lsm.bloom.add_all.self_s": ("lsm.bloom.add_all", SELF),
    "lsm.cursor.merge.self_s": ("lsm.cursor.merge", SELF),
    "lsm.cursor.merge.records": ("lsm.cursor.merge", COUNT),
    "synopses.hll.hbs_encode.self_s": ("synopses.hll.hbs_encode", SELF),
    "core.collector.accept_many.self_s": ("core.collector.accept_many", SELF),
    "core.collector.finish.self_s": ("core.collector.finish", SELF),
    "core.catalog.put.self_s": ("core.catalog.put", SELF),
    "core.catalog.puts": ("core.catalog.put", CALLS),
    "core.catalog.retracts": ("core.catalog.retract", CALLS),
    "core.catalog.entries_for.self_s": ("core.catalog.entries_for", SELF),
    "core.estimator.self_s": ("core.estimator", SELF),
    "cluster.node.sink.publish.self_s": ("cluster.node.sink.publish", SELF),
    "cluster.network.send.self_s": ("cluster.network.send", SELF),
    "cluster.master.handle.self_s": ("cluster.master.handle", SELF),
    "cluster.feeds.consumer.self_s": ("cluster.feeds.consumer", SELF),
    "query.optimizer.plan.self_s": ("query.optimizer.plan", SELF),
    "query.optimizer.calls": ("query.optimizer.plan", CALLS),
}
for _family in sorted(set(SYNOPSIS_FAMILIES.values())):
    _TRACED[f"synopses.{_family}.add_many.self_s"] = (
        f"synopses.{_family}.add_many", SELF)
    _TRACED[f"synopses.{_family}.add_many.records"] = (
        f"synopses.{_family}.add_many", COUNT)
    _TRACED[f"synopses.{_family}.build.self_s"] = (f"synopses.{_family}.build", SELF)
    _TRACED[f"synopses.{_family}.estimate.self_s"] = (
        f"synopses.{_family}.estimate", SELF)
    _TRACED[f"synopses.{_family}.merge_with.self_s"] = (
        f"synopses.{_family}.merge_with", SELF)

# metric -> tracer aggregate whose self time is read off the traced crash
# recovery (one restart_nodes + recover_statistics), not off the rounds
_RECOVERY = {
    "lsm.wal.replay.self_s": "lsm.wal.replay",
    "lsm.manifest.replay.self_s": "lsm.manifest.replay",
    "lsm.tree.recover.self_s": "lsm.tree.recover",
    "core.collector.rederive.self_s": "core.collector.rederive",
}

_unrecorded = (
    {aggregate for aggregate, _ in _TRACED.values()} | set(_RECOVERY.values())
) - aggregate_names()
if _unrecorded:
    raise ImportError(f"no row of trace.TABLE records {sorted(_unrecorded)}")

# metric -> the program's own counter (®)
_COUNTERS = {
    "lsm.wal.commits": "wal.commits",
    "lsm.manifest.txns": "manifest.txns",
    "lsm.tree.flush.calls": "lsm.flush.count",
    "lsm.tree.merge.calls": "lsm.merge.count",
    "lsm.tree.bulkload.calls": "lsm.bulkload.count",
    "lsm.scheduler.stalls": "scheduler.stalls",
    "lsm.scheduler.tasks": "scheduler.tasks.completed",
    "core.collector.published": "collector.synopses.published",
    "core.cache.evictions": "cache.evictions",
    "core.estimator.lazy_merges": "estimator.lazy_merge.count",
    "cluster.node.shipped": "cluster.synopses.shipped",
    "cluster.node.retractions": "cluster.retractions.sent",
    "cluster.node.retries": "sink.retries",
    "cluster.network.messages": "network.messages",
    "cluster.network.bytes": "network.bytes",
    "cluster.master.duplicates": "cluster.stats.duplicates",
    "cluster.feeds.applied": "feed.records.applied",
    "cluster.feeds.checkpoints": "feed.cursor.checkpoints",
    "cluster.feeds.deduplicated": "feed.records.deduplicated",
    "cluster.serving.rejected": "serve.rejected",
    "cluster.serving.timeouts": "serve.timeouts",
}

# metric -> the program's own histogram, whose sum is seconds spent (®)
_HISTOGRAM_SUMS = {
    "lsm.scheduler.stall_s": "scheduler.stall.seconds",
    "lsm.scheduler.task_s": "scheduler.task.seconds",
}

# metric -> the workloads whose scenario measures it itself and hands it
# over in ``extras``; on the others there is nothing of the kind to measure
# and it reads 0.  Every other name of ``extras`` comes from every workload.
_MEASURED_ON = {
    "lsm.scheduler.settle_s": ("htap_openloop",),
    "synopses.equi_width.overhead_ratio": ("bulkload",),
    "synopses.equi_height.overhead_ratio": ("bulkload",),
    "synopses.wavelet.overhead_ratio": ("bulkload",),
    "synopses.hll.overhead_ratio": ("bulkload", "feed_churn", "htap_openloop"),
    "core.cache.hit_ratio.fits": ("estimate_mix",),
    "core.cache.hit_ratio.spills": ("estimate_mix",),
    "core.estimator.warm_us": ("estimate_mix",),
    "core.estimator.cold_us": ("estimate_mix",),
    "core.estimator.ndv_us": ("estimate_mix",),
    "cluster.serving.estimate.self_s": ("htap_openloop",),
    "cluster.serving.queue_peak": ("htap_openloop",),
}

# The program registers a metric when the object that owns it is built;
# these layers' objects are built by one workload only, so elsewhere their
# metrics are rightly unknown to the registry (and read 0).
_BUILT_ONLY_ON = {"cluster.feeds.": "feed_churn", "cluster.serving.": "htap_openloop"}


@dataclass
class Probe:
    """Everything read from outside at one instant."""

    traced: dict[str, list[Any]]
    counters: dict[str, int]
    histogram_sums: dict[str, float]
    root_s: float


def probe(tracer: Tracer, threads: tuple[str, ...] | None = None) -> Probe:
    """``threads`` names the driving threads whose time inside traced
    spans counts toward ``trace.attributed_share`` (default: all)."""
    snapshot = get_registry().snapshot()  # the program's default registry
    return Probe(
        tracer.totals(),
        dict(snapshot["counters"]),
        {name: entry["sum"] for name, entry in snapshot["histograms"].items()},
        tracer.root_seconds(threads),
    )


@dataclass
class Section:
    """One traced section of a workload: what accumulated between two
    probes, its wall-clock, and the cluster it ran against."""

    traced: dict[str, list[Any]]
    counters: dict[str, int]
    histogram_sums: dict[str, float]
    wall_s: float
    root_s: float

    def __add__(self, other: "Section") -> "Section":
        def add(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
            merged = dict(a)
            for name, value in b.items():
                mine = merged.get(name)
                if mine is None:
                    merged[name] = value
                elif isinstance(value, list):
                    merged[name] = [x + y for x, y in zip(mine, value)]
                else:
                    merged[name] = mine + value
            return merged

        return Section(
            add(self.traced, other.traced),
            add(self.counters, other.counters),
            add(self.histogram_sums, other.histogram_sums),
            self.wall_s + other.wall_s,
            self.root_s + other.root_s,
        )

    @classmethod
    def between(cls, before: Probe, after: Probe, wall_s: float) -> "Section":
        return cls(
            delta(after.traced, before.traced),
            _since(after.counters, before.counters),
            _since(after.histogram_sums, before.histogram_sums),
            wall_s,
            after.root_s - before.root_s,
        )


def _since(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _live_bytes(cluster: Any) -> int:
    """Bytes of every file still on the node disks."""
    total = 0
    for node in cluster.nodes:
        disk = node.disk
        total += disk.page_bytes * sum(
            disk.num_pages(file_id) for file_id in disk.live_file_ids()
        )
    return total


def cluster_readings(
    cluster: Any, user_bytes: int, since: IOStats | None = None
) -> dict[str, float]:
    """Counts read off one cluster's disks, catalog and cache.  The I/O
    counts cover the cluster's life, or what accumulated after ``since``
    (a workload whose timed section starts on a loaded cluster)."""
    io = harness.io_totals(cluster)
    if since is not None:
        io = io.delta(since)
    gauges = get_registry().snapshot()["gauges"]  # a renamed gauge: KeyError
    catalog = cluster.master.catalog
    return {
        "lsm.storage.bytes_written": io.bytes_written,
        "lsm.storage.pages_written": io.pages_written,
        "lsm.storage.bytes_read": io.bytes_read,
        "lsm.storage.live_bytes_per_user_byte": _live_bytes(cluster)
        / max(user_bytes, 1),
        "core.catalog.entries": gauges["cluster.catalog.entries"],
        "core.catalog.bytes": catalog.total_bytes() if catalog.entry_count() else 0,
        "core.cache.bytes": gauges["cache.bytes"],
    }


def assemble(
    workload: str,
    sections: list[Section],
    extras: dict[str, float],
    tracer: Tracer,
    recovery: Section | None = None,
) -> dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``.

    ``sections`` are the traced repetitions of one fixed unit of work (a
    round): times are their mean, counts are the first section's, which
    under the sync scheduler are the same in every repetition.
    ``recovery`` is the traced crash recovery of the workloads that trace
    one.  ``extras`` are the workload's own readings and win over anything
    derived here.  Raises when a named metric has no source.
    """
    first = sections[0]
    zero = [0, 0.0, 0.0, 0]
    values: dict[str, float] = {}
    for metric, (aggregate, which) in _TRACED.items():
        if which == SELF:
            values[metric] = statistics.fmean(
                section.traced.get(aggregate, zero)[SELF] for section in sections
            )
        else:
            values[metric] = first.traced.get(aggregate, zero)[which]
    for metric, aggregate in _RECOVERY.items():
        values[metric] = (
            recovery.traced.get(aggregate, zero)[SELF] if recovery is not None else 0.0
        )
    registered = set(get_registry().metric_names())
    for metric, name in (_COUNTERS | _HISTOGRAM_SUMS).items():
        built_on = next(
            (w for layer, w in _BUILT_ONLY_ON.items() if metric.startswith(layer)),
            workload,
        )
        if name not in registered and built_on == workload:
            raise LookupError(f"{metric}: the program registers no metric {name!r}")
    for metric, counter in _COUNTERS.items():
        values[metric] = first.counters.get(counter, 0)
    for metric, histogram in _HISTOGRAM_SUMS.items():
        values[metric] = statistics.fmean(
            section.histogram_sums.get(histogram, 0.0) for section in sections
        )
    values["trace.spans"] = tracer.frames()
    values["trace.wall_s"] = statistics.fmean(s.wall_s for s in sections)
    values.update(
        {metric: 0.0 for metric, on in _MEASURED_ON.items() if workload not in on}
    )
    values.update(extras)
    values["trace.unattributed_share"] = 1.0 - values["trace.attributed_share"]
    return {name: float(values[name]) for name in spec.PER_LAYER}
