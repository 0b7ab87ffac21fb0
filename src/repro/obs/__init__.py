"""Observability: metrics, tracing and exporters for the repro system.

The paper's central claim is that statistics collection is
*lightweight* -- it piggybacks on flush/merge/bulkload with zero extra
I/O.  This package provides the instruments to measure that claim from
inside the system: a dependency-free :class:`MetricsRegistry` (counters,
gauges, fixed-bucket histograms with cheap percentiles), a structured
tracing API (:func:`span`) that records wall-time spans of the LSM
lifecycle, and JSON/text exporters.

Design rules (the full contract lives in ``docs/OBSERVABILITY.md``):

* Every instrumented object binds the process-global registry
  (:func:`get_registry`) at construction; :func:`use_registry` /
  :func:`set_registry` before construction is the one way to choose
  another.
* Instrumentation is zero-cost-when-disabled: install
  :data:`NOOP_REGISTRY` (or any registry with ``enabled=False``) and
  every instrument becomes a shared do-nothing object; spans skip the
  clock reads entirely.
* Hot loops never call the registry per record -- instrumented code
  binds its instruments once and increments counters in bulk, so the
  paper's Figure 2 ingestion numbers are unaffected.
"""

from repro.obs.export import render_json, render_text, write_snapshot
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_REGISTRY,
    NoopRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopRegistry",
    "NOOP_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "span",
    "render_json",
    "render_text",
    "write_snapshot",
]
