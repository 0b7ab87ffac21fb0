"""Span semantics: timing, error counting, disabled mode."""

import pytest

from repro.obs.registry import MetricsRegistry, NoopRegistry
from repro.obs.tracing import span


def test_span_records_into_seconds_histogram():
    registry = MetricsRegistry()
    with span("work", registry):
        pass
    histogram = registry.histogram("work.seconds")
    assert histogram.count == 1
    assert histogram.sum >= 0.0


def test_span_on_exception_counts_error_and_still_times():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        with span("work", registry):
            raise ValueError("boom")
    assert registry.counter("work.errors").value == 1
    assert registry.histogram("work.seconds").count == 1


def test_span_disabled_registry_records_nothing():
    registry = NoopRegistry()
    with span("work", registry):
        pass
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
