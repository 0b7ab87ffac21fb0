"""Internal utility data structures shared across the library."""

from repro.util.bounded_heap import BoundedMinHeap

__all__ = ["BoundedMinHeap"]
