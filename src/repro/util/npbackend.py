"""The typed-column constant of the columnar data path.

The columnar chunk pipeline (docs/DATAPATH.md) stores typed integer
columns as stdlib ``array('q')`` buffers -- the only storage format,
and the one every consumer computes over directly.
"""

from __future__ import annotations

__all__ = ["INT64_TYPECODE", "numpy_backend_enabled"]

INT64_TYPECODE = "q"
"""The stdlib ``array`` typecode of every typed integer column."""


def numpy_backend_enabled() -> bool:
    """Always ``False``.  Kept only because the frozen benchmark driver
    (``e2ebench/run.py``) imports it to record the setting in its
    report; it goes when the next benchmark PR drops that import."""
    return False
