"""e2ebench: the repo's end-to-end benchmark (see e2ebench/README.md).

Four workloads over the full public stack, end-to-end metrics with
fixed regression bounds, and per-layer attribution obtained from
outside the program (``e2ebench/trace.py``).  Nothing under ``src/``
knows this package exists.
"""
