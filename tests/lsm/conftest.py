"""Shared fixtures for the LSM suite: deterministic interleavings.

The scheduler work is only testable if a test can *choose* the
interleaving it exercises, so the central fixture builds datasets whose
maintenance runs on a seeded :class:`VirtualScheduler`.  Nothing flushes
or merges until the test advances the scheduler (``step``/``drain``),
and the same seed replays the same interleaving -- a failing example
prints its seed and is reproducible from it.
"""

import pytest

from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.scheduler import VirtualScheduler
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import Domain


@pytest.fixture
def fresh_registry():
    """Install a private metrics registry for the test, so scheduler
    counters can be asserted without process-global bleed-through."""
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry


@pytest.fixture
def interleaved_dataset(fresh_registry):
    """Factory for (dataset, scheduler) pairs on a seeded virtual
    scheduler.

    ``interleaved_dataset(seed=N, **dataset_kwargs)`` returns a small
    indexed dataset whose flushes/merges queue on a
    :class:`VirtualScheduler` seeded with ``N``.  Defaults are sized so
    a handful of inserts produces real maintenance traffic.
    """
    built = []

    def build(seed=0, **kwargs):
        with use_registry(fresh_registry):
            scheduler = VirtualScheduler(seed=seed)
        kwargs.setdefault("memtable_capacity", 8)
        kwargs.setdefault(
            "merge_policy", ConstantMergePolicy(max_components=3)
        )
        kwargs.setdefault(
            "indexes", [IndexSpec("value_idx", "value", Domain(0, 99))]
        )
        dataset = Dataset(
            "interleaved",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=Domain(0, 1023),
            scheduler=scheduler,
            **kwargs,
        )
        built.append((dataset, scheduler))
        return dataset, scheduler

    yield build
    for _dataset, scheduler in built:
        scheduler.shutdown()
