"""Tests for the top-B bounded min-heap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bounded_heap import BoundedMinHeap


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedMinHeap(0)


def test_fills_to_capacity_without_eviction():
    heap = BoundedMinHeap(3)
    assert heap.add(1.0, "a") is None
    assert heap.add(2.0, "b") is None
    assert heap.add(3.0, "c") is None
    assert len(heap) == 3


def test_evicts_lightest():
    heap = BoundedMinHeap(2)
    heap.add(1.0, "light")
    heap.add(5.0, "heavy")
    evicted = heap.add(3.0, "mid")
    assert evicted == "light"
    assert set(heap.items()) == {"heavy", "mid"}


def test_rejects_too_light():
    heap = BoundedMinHeap(2)
    heap.add(5.0, "a")
    heap.add(4.0, "b")
    rejected = heap.add(1.0, "tiny")
    assert rejected == "tiny"
    assert set(heap.items()) == {"a", "b"}


def test_tie_earlier_wins():
    heap = BoundedMinHeap(1)
    heap.add(2.0, "first")
    rejected = heap.add(2.0, "second")
    assert rejected == "second"
    assert list(heap.items()) == ["first"]


def test_tie_in_full_heap_evicts_latest():
    """Regression: with a full heap of tied weights, a heavier arrival
    must evict the *latest* tied item, keeping the earlier ones (the
    docstring's "earlier wins" determinism contract)."""
    heap = BoundedMinHeap(2)
    heap.add(1.0, "a")
    heap.add(1.0, "b")
    evicted = heap.add(2.0, "c")
    assert evicted == "b"
    assert set(heap.items()) == {"a", "c"}


def test_tie_eviction_order_is_lifo_among_ties():
    heap = BoundedMinHeap(3)
    for name in ("a", "b", "c"):
        heap.add(1.0, name)
    assert heap.add(5.0, "x") == "c"
    assert heap.add(5.0, "y") == "b"
    assert heap.add(5.0, "z") == "a"
    assert set(heap.items()) == {"x", "y", "z"}


def test_min_weight():
    heap = BoundedMinHeap(3)
    with pytest.raises(IndexError):
        heap.min_weight()
    heap.add(2.0, "a")
    heap.add(1.0, "b")
    assert heap.min_weight() == 1.0


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.integers(1, 20),
)
def test_keeps_top_k(weights, capacity):
    heap = BoundedMinHeap(capacity)
    for index, weight in enumerate(weights):
        heap.add(weight, index)
    kept = sorted((w for w, _ in heap.weighted_items()), reverse=True)
    expected = sorted(weights, reverse=True)[: min(capacity, len(weights))]
    assert kept == expected


@given(
    st.lists(st.integers(0, 6).map(float), max_size=60),
    st.lists(st.integers(0, 6).map(float), max_size=20),
    st.integers(1, 8),
)
def test_add_all_is_add_per_pair(batch, later, capacity):
    """Tie-heavy weights: the same entries in the same heap layout, and
    later single adds break ties against the batch exactly as before."""
    one_by_one, batched = BoundedMinHeap(capacity), BoundedMinHeap(capacity)
    for index, weight in enumerate(batch):
        one_by_one.add(weight, index)
    batched.add_all((weight, index) for index, weight in enumerate(batch))
    for index, weight in enumerate(later, start=len(batch)):
        one_by_one.add(weight, index)
        batched.add(weight, index)
    assert batched._heap == one_by_one._heap
