"""Per-layer attribution from outside the program.

A static table names the public callables at each layer boundary.  Only
while a :class:`Tracer` is installed are those callables rebound -- class
attributes, module-level names and the copies imported into consuming
modules -- to wrappers that keep a per-thread frame stack; uninstalling
puts the original objects back.  Nothing under ``src/`` is edited.

Every wrapper does the same accounting: a frame's *self time* is its
duration minus the part covered by frames opened beneath it, so the self
times of one thread add up to the time that thread spent inside traced
calls.  Rows marked ``store`` also keep the span itself,
``(id, name, start, end, parent id, op id, thread)``, in memory until the
workload ends; per-record and per-request rows only aggregate, because a
stored tuple per memtable write would cost more than the write.

Two cases need more than a plain wrapper:

* generators (``sorted_columnar_chunks``, the merge cursor's chunk stream,
  ``WriteAheadLog.replay``) are timed per ``next()``;
* the B-tree chunk builder *pulls* its input through generator closures of
  ``LSMTree`` that cannot be rebound, so its wrapper times each pull of the
  input iterator and charges it to the calling tree span, leaving
  ``lsm.btree.build`` with leaf packing only.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Row", "TABLE", "Tracer", "SYNOPSIS_FAMILIES", "aggregate_names"]

SYNOPSIS_FAMILIES = {
    "EquiWidthBuilder": "equi_width",
    "EquiWidthHistogram": "equi_width",
    "EquiHeightBuilder": "equi_height",
    "EquiHeightHistogram": "equi_height",
    "WaveletBuilder": "wavelet",
    "WaveletSynopsis": "wavelet",
    "HyperLogLogBuilder": "hll",
    "HyperLogLogSynopsis": "hll",
}


def _family(suffix: str) -> Callable[[tuple], str]:
    """Name a synopsis row after the family of ``self``."""
    names = {
        cls: f"synopses.{family}.{suffix}"
        for cls, family in SYNOPSIS_FAMILIES.items()
    }
    other = f"synopses.other.{suffix}"

    def name_of(args: tuple) -> str:
        return names.get(type(args[0]).__name__, other)

    name_of.names = {*names.values(), other}  # type: ignore[attr-defined]
    return name_of


def _result(_args: tuple, result: Any) -> int:
    return result


def _one(_args: tuple, _result: Any) -> int:
    return 1


def _len_result(_args: tuple, result: Any) -> int:
    return len(result)


def _len_arg1(args: tuple, _result: Any) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Row:
    """One rebound callable.

    ``path`` is ``Class.attr`` or a module-level name inside ``module``.
    ``kind``: ``call`` (plain wrapper), ``gen`` (generator function, timed
    per ``next``), ``pulls`` (call whose argument 1 is an iterable pulled
    from unwrappable code), ``sink`` (observer method whose returned record
    sink is proxied), ``handler`` (``Network.register``: wraps the handler),
    ``submit`` (scheduler ``submit``: wraps the task as a root span tagged
    with its lane).
    """

    name: str | Callable[[tuple], str]
    module: str
    path: str
    kind: str = "call"
    store: bool = False
    count: Callable[[tuple, Any], int] | None = None
    dict_key: str | None = None  # path names a dict; rebind dict[module.<key>]


TABLE: tuple[Row, ...] = (
    # -- lsm.dataset -------------------------------------------------------
    Row("lsm.dataset.insert_many", "repro.lsm.dataset", "Dataset.insert_many",
        store=True, count=_result),
    # The durable insert_many loops over insert(); sharing the name makes the
    # nested frames one layer (calls and records count the outermost only).
    Row("lsm.dataset.insert_many", "repro.lsm.dataset", "Dataset.insert",
        count=_one),
    Row("lsm.dataset.update_delete", "repro.lsm.dataset", "Dataset.update"),
    Row("lsm.dataset.update_delete", "repro.lsm.dataset", "Dataset.delete"),
    Row("lsm.dataset.bulkload", "repro.lsm.dataset", "Dataset.bulkload",
        store=True),
    # -- lsm.memtable ------------------------------------------------------
    Row("lsm.memtable.write", "repro.lsm.memtable", "MemTable.write"),
    Row("lsm.memtable.sorted_chunks", "repro.lsm.memtable",
        "MemTable.sorted_columnar_chunks", kind="gen"),
    # -- lsm.wal / lsm.manifest ----------------------------------------------
    Row("lsm.wal.log_op", "repro.lsm.wal", "WriteAheadLog.log_op"),
    Row("lsm.wal.sync_truncate", "repro.lsm.wal", "WriteAheadLog.sync"),
    Row("lsm.wal.sync_truncate", "repro.lsm.wal", "WriteAheadLog.truncate"),
    Row("lsm.wal.replay", "repro.lsm.wal", "WriteAheadLog.replay", kind="gen"),
    Row("lsm.manifest", "repro.lsm.manifest", "Manifest.begin"),
    Row("lsm.manifest", "repro.lsm.manifest", "Manifest.commit"),
    Row("lsm.manifest", "repro.lsm.manifest", "Manifest.begin_txn"),
    Row("lsm.manifest", "repro.lsm.manifest", "Manifest.commit_txn"),
    Row("lsm.manifest.replay", "repro.lsm.manifest", "Manifest.replay"),
    # -- lsm.tree ------------------------------------------------------------
    Row("lsm.tree.flush", "repro.lsm.tree", "LSMTree.flush_one_immutable",
        store=True),
    Row("lsm.tree.merge", "repro.lsm.tree", "LSMTree.merge", store=True),
    Row("lsm.tree.bulkload", "repro.lsm.tree", "LSMTree.bulkload", store=True),
    Row("lsm.tree.recover", "repro.lsm.tree", "LSMTree.install_recovered",
        store=True),
    # -- lsm.btree / lsm.bloom / lsm.cursor ----------------------------------
    # LSMTree resolves its chunk builder through this dict at construction,
    # keyed by build_btree; rebinding tree.build_btree itself would miss it.
    Row("lsm.btree.build", "repro.lsm.tree", "_CHUNK_INDEX_BUILDERS",
        kind="pulls", store=True, count=_len_result, dict_key="build_btree"),
    Row("lsm.bloom.add_all", "repro.lsm.bloom", "BloomFilter.add_all"),
    # tree.py's copy of the name is only reached by merges (flushes and
    # bulkloads hand _write_component ready-made chunks).
    Row("lsm.cursor.merge", "repro.lsm.tree", "columnar_chunk_stream",
        kind="gen"),
    # -- lsm.scheduler ---------------------------------------------------------
    Row("lsm.scheduler.task", "repro.lsm.scheduler", "SyncScheduler.submit",
        kind="submit"),
    Row("lsm.scheduler.task", "repro.lsm.scheduler",
        "ThreadPoolScheduler.submit", kind="submit"),
    # -- synopses ----------------------------------------------------------------
    Row(_family("add_many"), "repro.synopses.base", "SynopsisBuilder.add_many",
        count=_len_arg1),
    Row(_family("build"), "repro.synopses.base", "SynopsisBuilder.build"),
    Row(_family("merge_with"), "repro.synopses.base", "Synopsis.merge_with"),
    Row(_family("estimate"), "repro.synopses.equi_width",
        "EquiWidthHistogram.estimate"),
    Row(_family("estimate"), "repro.synopses.bucket", "BucketHistogram.estimate"),
    Row(_family("estimate"), "repro.synopses.wavelet.synopsis",
        "WaveletSynopsis.estimate"),
    Row(_family("estimate"), "repro.synopses.hll",
        "HyperLogLogSynopsis.cardinality"),
    Row("synopses.hll.hbs_encode", "repro.synopses.hll", "HBSCodec.encode"),
    # -- core --------------------------------------------------------------------
    Row("core.collector", "repro.core.collector",
        "StatisticsCollector.begin_component_write", kind="sink"),
    Row("core.collector.rederive", "repro.core.collector",
        "StatisticsCollector.components_recovered", store=True),
    Row("core.catalog.put", "repro.core.catalog", "StatisticsCatalog.put"),
    Row("core.catalog.retract", "repro.core.catalog", "StatisticsCatalog.retract"),
    Row("core.catalog.retract", "repro.core.catalog",
        "StatisticsCatalog.reset_partition"),
    Row("core.catalog.entries_for", "repro.core.catalog",
        "StatisticsCatalog.entries_for"),
    Row("core.estimator", "repro.core.estimator",
        "CardinalityEstimator.estimate_detailed"),
    Row("core.estimator", "repro.core.estimator",
        "CardinalityEstimator.estimate_ndv_detailed"),
    # -- cluster -------------------------------------------------------------------
    Row("cluster.node.sink.publish", "repro.cluster.node",
        "NetworkStatisticsSink.publish", store=True),
    Row("cluster.node.sink.publish", "repro.cluster.node",
        "NetworkStatisticsSink.retract", store=True),
    Row("cluster.node.sink.publish", "repro.cluster.node",
        "NetworkStatisticsSink.reset"),
    Row("cluster.node.sink.publish", "repro.cluster.node",
        "NetworkStatisticsSink.flush_outbox"),
    Row("cluster.network.send", "repro.cluster.network", "Network.send"),
    Row("cluster.master.handle", "repro.cluster.network", "Network.register",
        kind="handler"),
    # What EstimateService's worker calls: the "master child" that
    # cluster.serving.estimate.self_s subtracts.
    Row("cluster.master.estimate", "repro.cluster.cluster",
        "LSMCluster.estimate_detailed"),
    Row("cluster.feeds.consumer", "repro.cluster.feeds",
        "ResumableFeedConsumer.run", store=True),
    Row("cluster.serving.estimate", "repro.cluster.serving",
        "EstimateService.estimate", store=True),
    # -- query ---------------------------------------------------------------------
    Row("query.optimizer.plan", "repro.query.optimizer",
        "QueryOptimizer.plan_join_on", store=True),
    Row("query.optimizer.plan", "repro.query.optimizer",
        "QueryOptimizer.plan_range_query", store=True),
)


def aggregate_names(table: tuple[Row, ...] = TABLE) -> set[str]:
    """Every aggregate name the table's wrappers can record."""
    names: set[str] = set()
    for row in table:
        if callable(row.name):
            names |= row.name.names  # type: ignore[attr-defined]
        elif row.kind == "sink":
            names |= {f"{row.name}.accept_many", f"{row.name}.finish"}
        else:
            names.add(row.name)
    return names


class _ThreadState:
    """Frame stack, aggregates and stored spans of one thread."""

    __slots__ = ("stack", "agg", "spans", "op_id", "thread", "root_s")

    def __init__(self, thread: str) -> None:
        # frame = [name, start, child seconds, span id]
        self.stack: list[list[Any]] = []
        # name -> [calls, total seconds, self seconds, count]
        self.agg: dict[str, list[Any]] = {}
        self.spans: list[tuple] = []
        self.op_id: Any = None
        self.thread = thread
        self.root_s = 0.0  # time inside any traced frame (roots only)


class Tracer:
    """Installs the table's wrappers and collects what they record."""

    def __init__(self, table: tuple[Row, ...] = TABLE):
        self._table = table
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        # (owner, attribute or key, original object, rebind was on a dict)
        self._installed: list[tuple[Any, Any, Any, bool]] = []

    @property
    def active(self) -> bool:
        """Whether the wrappers are installed right now."""
        return bool(self._installed)

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_op(self, op_id: Any) -> None:
        """Tag the calling thread's following spans with ``op_id``."""
        self._state().op_id = op_id

    def _enter(self, state: _ThreadState, name: str, store: bool) -> list[Any]:
        stack = state.stack
        if store:
            span_id = next(self._ids)
        else:
            span_id = stack[-1][3] if stack else -1
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(
        self, state: _ThreadState, frame: list[Any], store: bool, count: int
    ) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0.0, 0.0, 0]
        entry[2] += duration - child
        if stack:
            parent = stack[-1]
            parent[2] += duration
            if parent[0] != name:  # same-name nesting is one layer
                entry[0] += 1
                entry[1] += duration
                entry[3] += count
            parent_id = parent[3]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[3] += count
            state.root_s += duration
            parent_id = -1
        if store:
            state.spans.append(
                (span_id, name, start, end, parent_id, state.op_id, state.thread)
            )

    @contextmanager
    def frame(self, name: str, store: bool = False) -> Iterator[None]:
        """A span opened by the benchmark itself around a call into a layer."""
        state = self._state()
        frame = self._enter(state, name, store)
        try:
            yield
        finally:
            self._leave(state, frame, store, 0)

    # -- wrappers ---------------------------------------------------------------

    def _wrap_call(self, row: Row, fn: Callable) -> Callable:
        name_of, store, count_of = row.name, row.store, row.count
        dynamic = callable(name_of)
        get_state, enter, leave = self._state, self._enter, self._leave

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            frame = enter(state, name_of(args) if dynamic else name_of, store)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    count = count_of(args, result)
                return result
            finally:
                leave(state, frame, store, count)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _timed_iter(self, name: str, iterator: Iterator, self_only: bool) -> Iterator:
        """Yield from ``iterator``, one frame per ``next()``.

        ``self_only`` frames (the upstream of a ``pulls`` row) add their
        self time to ``name`` without counting as calls of it."""
        get_state, enter, leave = self._state, self._enter, self._leave
        while True:
            state = get_state()
            frame = enter(state, name, False)
            done = False
            item = None
            try:
                item = next(iterator)
            except StopIteration:
                done = True
            finally:
                if self_only:
                    self._leave_upstream(state, frame)
                else:
                    records = 0
                    if not done:
                        try:
                            records = len(item)
                        except TypeError:
                            records = 1
                    leave(state, frame, False, records)
            if done:
                return
            yield item

    def _leave_upstream(self, state: _ThreadState, frame: list[Any]) -> None:
        end = time.perf_counter()
        state.stack.pop()
        name, start, child, _span_id = frame
        duration = end - start
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0.0, 0.0, 0]
        entry[2] += duration - child
        if state.stack:
            state.stack[-1][2] += duration

    def _wrap_gen(self, row: Row, fn: Callable) -> Callable:
        name = row.name
        assert isinstance(name, str)

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return self._timed_iter(name, fn(*args, **kwargs), self_only=False)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_pulls(self, row: Row, fn: Callable) -> Callable:
        inner = self._wrap_call(row, fn)

        def traced(disk: Any, chunks: Any, *args: Any, **kwargs: Any) -> Any:
            stack = self._state().stack
            upstream = stack[-1][0] if stack else "untraced.upstream"
            pulled = self._timed_iter(upstream, iter(chunks), self_only=True)
            return inner(disk, pulled, *args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_sink(self, row: Row, fn: Callable) -> Callable:
        tracer = self
        prefix = row.name

        class TracedSink:
            """Proxy over the collector's record sink (RecordSink protocol)."""

            def __init__(self, sink: Any) -> None:
                self._sink = sink
                self.accept = sink.accept

            def accept_many(self, records: Any) -> None:
                with tracer.frame(f"{prefix}.accept_many"):
                    self._sink.accept_many(records)

            def finish(self, component: Any) -> None:
                with tracer.frame(f"{prefix}.finish", store=True):
                    self._sink.finish(component)

        def traced(*args: Any, **kwargs: Any) -> Any:
            sink = fn(*args, **kwargs)
            return None if sink is None else TracedSink(sink)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_handler(self, row: Row, fn: Callable) -> Callable:
        def traced(network: Any, node_id: str, handler: Callable) -> Any:
            row_for_handler = Row(row.name, row.module, row.path)
            return fn(network, node_id, self._wrap_call(row_for_handler, handler))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_submit(self, row: Row, fn: Callable) -> Callable:
        name = row.name
        assert isinstance(name, str)

        def traced(
            scheduler: Any,
            task: Callable[[], None],
            lane: str = "default",
            front: bool = False,
            kind: str = "task",
        ) -> None:
            def traced_task() -> None:
                # On a worker thread this is a root span; its op id is the
                # lane, which is what ties a background flush or merge back
                # to the partition whose writes caused it.
                state = self._state()
                if not state.stack:
                    state.op_id = f"lane:{lane}:{kind}"
                with self.frame(name, store=True):
                    task()

            fn(scheduler, traced_task, lane, front, kind)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- install / restore ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every table row; idempotent per tracer."""
        if self._installed:
            return
        wrap = {
            "call": self._wrap_call,
            "gen": self._wrap_gen,
            "pulls": self._wrap_pulls,
            "sink": self._wrap_sink,
            "handler": self._wrap_handler,
            "submit": self._wrap_submit,
        }
        for row in self._table:
            module = importlib.import_module(row.module)
            owner: Any = module
            *parents, attr = row.path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if row.dict_key is not None:
                mapping = getattr(owner, attr)
                key = getattr(module, row.dict_key)
                original = mapping[key]
                mapping[key] = wrap[row.kind](row, original)
                self._installed.append((mapping, key, original, True))
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
                owner, attr
            )
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    wrap[row.kind](row, original.__func__)
                )
            elif isinstance(original, staticmethod):
                replacement = staticmethod(wrap[row.kind](row, original.__func__))
            else:
                replacement = wrap[row.kind](row, original)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original, False))

    def uninstall(self) -> None:
        """Put every original object back (reverse order)."""
        for owner, attr, original, is_dict in reversed(self._installed):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed = []

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def traced_attributes(self) -> list[tuple[Any, Any, Any]]:
        """``(owner, attribute, original)`` of every current rebind."""
        return [(owner, attr, original) for owner, attr, original, _ in self._installed]

    # -- reading -----------------------------------------------------------------------

    def totals(self) -> dict[str, list[Any]]:
        """``name -> [calls, total_s, self_s, count]`` summed over threads.

        Read while the traced threads are quiescent (after a drain)."""
        merged: dict[str, list[Any]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, entry in list(state.agg.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    into[i] += entry[i]
        return merged

    def root_seconds(self, thread_names: tuple[str, ...] | None = None) -> float:
        """Seconds spent inside traced frames, summed over the named
        threads (all threads when ``None``)."""
        with self._lock:
            states = list(self._states)
        return sum(
            state.root_s
            for state in states
            if thread_names is None or state.thread in thread_names
        )

    def spans(self) -> list[tuple]:
        """Every stored span, ordered by start time."""
        with self._lock:
            states = list(self._states)
        spans = [span for state in states for span in state.spans]
        spans.sort(key=lambda span: span[2])
        return spans

    def frames(self) -> int:
        """Frames recorded so far (stored as spans or only aggregated)."""
        with self._lock:
            states = list(self._states)
        return sum(entry[0] for state in states for entry in state.agg.values())


def delta(after: dict[str, list[Any]], before: dict[str, list[Any]]) -> dict[str, list[Any]]:
    """Aggregates accumulated between two :meth:`Tracer.totals` reads."""
    zero = [0, 0.0, 0.0, 0]
    return {
        name: [entry[i] - before.get(name, zero)[i] for i in range(4)]
        for name, entry in after.items()
    }
