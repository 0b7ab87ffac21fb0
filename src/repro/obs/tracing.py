"""Structured wall-time spans over the LSM and estimation lifecycles.

A *span* is a named wall-clock measurement recorded into the metric
``<name>.seconds`` (a latency histogram) of a registry; a failed span
additionally bumps ``<name>.errors``.  :func:`span` is a context
manager for inline blocks, used by the instrumented
flush/merge/bulkload paths, which pass the registry their tree bound at
construction.

When the effective registry is disabled (``enabled`` is False) the span
machinery skips the clock reads entirely, keeping the instrumentation
zero-cost for the NoStats/noop configurations Figure 2 compares
against.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["span"]


@contextmanager
def span(name: str, registry: MetricsRegistry | None = None) -> Iterator[None]:
    """Time the enclosed block into the ``<name>.seconds`` histogram.

    ``registry`` defaults to the process-global one.  Exceptions
    propagate; the failed attempt is still timed and counted under
    ``<name>.errors``.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        reg.counter(f"{name}.errors").inc()
        reg.histogram(f"{name}.seconds").observe(time.perf_counter() - started)
        raise
    reg.histogram(f"{name}.seconds").observe(time.perf_counter() - started)
