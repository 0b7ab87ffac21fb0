"""Unit tests for the merge pacer: token-bucket math under a fake
clock, the non-blocking (deterministic-scheduler) mode, and the
determinism contract -- pacing changes *when* merge chunks run, never
what they produce.
"""

import pytest

from repro.errors import ConfigurationError
from repro.lsm.dataset import Dataset, IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.lsm.pacing import DEFAULT_MERGE_PACE_SLICE, MergePacer
from repro.lsm.scheduler import make_scheduler
from repro.lsm.storage import SimulatedDisk
from repro.obs.registry import MetricsRegistry, use_registry
from repro.types import Domain


class _FakeTime:
    """A manual clock whose ``sleep`` advances it -- the pacer's waits
    become exact arithmetic instead of wall time."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def _pacer(rate, burst, fake, **kwargs):
    with use_registry(MetricsRegistry()):
        return MergePacer(
            rate,
            burst=burst,
            clock=fake.clock,
            sleep=fake.sleep,
            **kwargs,
        )


# ------------------------------------------------------------ construction


def test_rejects_non_positive_rate():
    for rate in (0, -1, -0.5):
        with pytest.raises(ConfigurationError, match="rate"):
            with use_registry(MetricsRegistry()):
                MergePacer(rate)


def test_rejects_non_positive_burst():
    with pytest.raises(ConfigurationError, match="burst"):
        with use_registry(MetricsRegistry()):
            MergePacer(100.0, burst=0)


def test_default_burst_covers_a_write_batch():
    # Never below one typical chunk, or a single chunk could exceed the
    # bucket and (without the charge cap) wait forever.
    with use_registry(MetricsRegistry()):
        assert MergePacer(10.0).burst == 1024.0
        assert MergePacer(100_000.0).burst == 10_000.0


# ------------------------------------------------------------- token math


def test_bucket_starts_full_and_first_burst_is_free():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    assert pacer.pace(50) == 0.0
    assert fake.sleeps == []


def test_exhausted_bucket_sleeps_off_the_deficit_in_slices():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    pacer.pace(50)  # drains the initial full bucket
    waited = pacer.pace(50)  # deficit: 50 tokens at 100/s = 0.5 s
    assert waited == pytest.approx(0.5)
    assert all(s <= DEFAULT_MERGE_PACE_SLICE for s in fake.sleeps)
    assert sum(fake.sleeps) == pytest.approx(0.5)


def test_refill_is_capped_at_burst():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    fake.now += 1000.0  # a long idle buys at most `burst` tokens
    assert pacer.pace(50) == 0.0
    assert pacer.pace(1) > 0.0  # the 51st record is already paced


def test_charge_larger_than_burst_is_capped_so_waits_terminate():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    pacer.pace(50)
    waited = pacer.pace(10_000)  # capped at burst: 50 tokens = 0.5 s
    assert waited == pytest.approx(0.5)


def test_zero_or_negative_records_are_free():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    assert pacer.pace(0) == 0.0
    assert pacer.pace(-5) == 0.0
    assert fake.sleeps == []


def test_shared_bucket_bounds_total_throughput():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake)
    pacer.pace(30)
    pacer.pace(30)  # second caller pays the first caller's debt
    assert sum(fake.sleeps) == pytest.approx(0.1)


# -------------------------------------------------------- non-blocking mode


def test_non_blocking_never_sleeps():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake, blocking=False)
    for _ in range(10):
        assert pacer.pace(50) == 0.0
    assert fake.sleeps == []


def test_non_blocking_debt_is_clamped():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake, blocking=False)
    for _ in range(100):
        pacer.pace(50)  # would owe 4950 tokens without the clamp
    pacer.set_blocking(True)
    # Debt is clamped at -burst, so the worst catch-up is 2 buckets.
    waited = pacer.pace(50)
    assert waited == pytest.approx(1.0)  # (50 + 50) / 100


def test_set_blocking_toggles():
    fake = _FakeTime()
    pacer = _pacer(100.0, 50.0, fake, blocking=True)
    assert pacer.blocking
    pacer.set_blocking(False)
    assert not pacer.blocking


# ----------------------------------------------------------------- metrics


def test_pacer_metrics_account_tokens_and_waits():
    registry = MetricsRegistry()
    fake = _FakeTime()
    with use_registry(registry):
        pacer = MergePacer(
            100.0,
            burst=50.0,
            clock=fake.clock,
            sleep=fake.sleep,
        )
    pacer.pace(50)  # free
    pacer.pace(50)  # one paced wait
    snapshot = registry.snapshot()
    assert snapshot["counters"]["merge.pacing.tokens"] == 100
    assert snapshot["counters"]["merge.pacing.waits"] == 1
    assert snapshot["histograms"]["merge.pacing.wait.seconds"]["count"] == 1
    assert snapshot["histograms"]["merge.pacing.wait.seconds"][
        "max"
    ] == pytest.approx(0.5)


# ----------------------------------------------- determinism & integration


def _ingest(merge_pacer, seed=7, records=600):
    """One virtual-scheduler ingest; returns (structure, scan, registry)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        scheduler = make_scheduler("virtual", seed=seed)
        dataset = Dataset(
            "paced",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=Domain(0, 2**20 - 1),
            indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
            memtable_capacity=32,
            merge_policy=ConstantMergePolicy(max_components=3),
            scheduler=scheduler,
            merge_pacer=merge_pacer,
        )
        for pk in range(records):
            dataset.insert({"id": pk, "value": (pk * 13) % 1024})
        for pk in range(0, records, 19):
            dataset.delete(pk)
        dataset.flush()
        scheduler.drain()
        structure = tuple(
            component.record_count for component in dataset.primary.components
        )
        scan = tuple(
            (record.key, record.value["value"])
            for record in dataset.primary.scan()
        )
        scheduler.shutdown()
    return structure, scan, registry


def test_virtual_runs_with_and_without_pacing_are_bit_identical():
    """The determinism contract: pacing throttles *when* merge chunks
    are processed, never their bytes, so a paced deterministic run ends
    identical to an unpaced one."""
    unpaced = _ingest(None)
    with use_registry(MetricsRegistry()):
        paced_pacer = MergePacer(1_000.0, burst=64.0)
    paced = _ingest(paced_pacer)
    assert paced[0] == unpaced[0]  # same component structure
    assert paced[1] == unpaced[1]  # same reconciled contents


def test_merges_charge_the_pacer():
    registry = MetricsRegistry()
    with use_registry(registry):
        pacer = MergePacer(1_000_000.0)
    structure, _scan, _run_registry = _ingest(pacer)
    assert structure  # the workload actually produced components
    assert registry.snapshot()["counters"]["merge.pacing.tokens"] > 0


def test_flushes_are_never_paced():
    registry = MetricsRegistry()
    with use_registry(registry):
        pacer = MergePacer(1_000_000.0)
    with use_registry(MetricsRegistry()):
        dataset = Dataset(
            "flush-only",
            SimulatedDisk(),
            primary_key="id",
            primary_domain=Domain(0, 2**20 - 1),
            memtable_capacity=1024,
            merge_pacer=pacer,
        )
        for pk in range(64):
            dataset.insert({"id": pk, "value": pk})
        dataset.flush()
    assert registry.snapshot()["counters"]["merge.pacing.tokens"] == 0
