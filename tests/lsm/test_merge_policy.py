"""Tests for merge policies."""

import pytest

from repro.errors import ConfigurationError
from repro.lsm.merge_policy import (
    ConstantMergePolicy,
    NoMergePolicy,
    PrefixMergePolicy,
    StackMergePolicy,
)


class _FakeBTree:
    def __init__(self, num_pages):
        self.num_pages = num_pages


class _FakeComponent:
    def __init__(self, num_pages=1):
        self.btree = _FakeBTree(num_pages)


def _components(n):
    return [_FakeComponent() for _ in range(n)]


def test_no_merge_never_selects():
    policy = NoMergePolicy()
    assert policy.select_merge(_components(100)) is None


def test_constant_policy_validates():
    with pytest.raises(ConfigurationError):
        ConstantMergePolicy(0)


def test_constant_policy_under_cap():
    policy = ConstantMergePolicy(5)
    assert policy.select_merge(_components(5)) is None


def test_constant_policy_over_cap_merges_all():
    policy = ConstantMergePolicy(5)
    comps = _components(6)
    assert policy.select_merge(comps) == comps


def test_stack_policy_validates():
    with pytest.raises(ConfigurationError):
        StackMergePolicy(1)


def test_stack_policy_selects_newest_run():
    policy = StackMergePolicy(3)
    comps = _components(5)
    assert policy.select_merge(comps) == comps[:3]
    assert policy.select_merge(_components(2)) is None


class TestPrefixPolicy:
    def test_validates(self):
        with pytest.raises(ConfigurationError):
            PrefixMergePolicy(0, 4)
        with pytest.raises(ConfigurationError):
            PrefixMergePolicy(100, 1)

    def test_under_tolerance(self):
        policy = PrefixMergePolicy(max_mergable_pages=10, max_tolerance_count=4)
        assert policy.select_merge(_components(4)) is None

    def test_merges_small_run(self):
        policy = PrefixMergePolicy(max_mergable_pages=10, max_tolerance_count=4)
        comps = _components(5)
        assert policy.select_merge(comps) == comps

    def test_large_component_ends_run(self):
        policy = PrefixMergePolicy(max_mergable_pages=10, max_tolerance_count=2)
        comps = [
            _FakeComponent(1),
            _FakeComponent(2),
            _FakeComponent(3),
            _FakeComponent(999),  # product of an earlier merge
            _FakeComponent(1),
        ]
        assert policy.select_merge(comps) == comps[:3]

    def test_run_too_short_behind_large(self):
        policy = PrefixMergePolicy(max_mergable_pages=10, max_tolerance_count=3)
        comps = [_FakeComponent(1), _FakeComponent(999), _FakeComponent(1)]
        assert policy.select_merge(comps) is None

    def test_integration_with_tree(self):
        from repro.lsm.storage import SimulatedDisk
        from repro.lsm.tree import LSMTree

        tree = LSMTree(
            "t",
            SimulatedDisk(),
            merge_policy=PrefixMergePolicy(
                max_mergable_pages=4, max_tolerance_count=3
            ),
        )
        for i in range(1000):
            tree.upsert(i, i)
            if i % 32 == 31:
                tree.flush()
        tree.flush()
        assert tree.merge_count > 0
        assert tree.count_range() == 1000


class _SlotComponent(_FakeComponent):
    """Fake with the ``uid`` identity the slot accounting keys on."""

    _next_uid = 0

    def __init__(self, num_pages=1):
        super().__init__(num_pages)
        self.uid = _SlotComponent._next_uid
        _SlotComponent._next_uid += 1


def _slot_components(n):
    return [_SlotComponent() for _ in range(n)]


class TestMergeSlots:
    """acquire_merge/release_merge: no component is ever selected by
    two overlapping merges (the concurrency fix's regression net)."""

    def test_acquire_claims_and_blocks_reselection(self):
        policy = ConstantMergePolicy(3)
        comps = _slot_components(4)
        selected = policy.acquire_merge(comps)
        assert selected == comps
        assert policy.in_flight_count == 4
        # The same components must not be handed to a second merge.
        assert policy.acquire_merge(comps) is None

    def test_release_frees_the_slots(self):
        policy = ConstantMergePolicy(3)
        comps = _slot_components(4)
        selected = policy.acquire_merge(comps)
        policy.release_merge(selected)
        assert policy.in_flight_count == 0
        assert policy.acquire_merge(comps) == comps

    def test_eligibility_stops_at_first_busy_component(self):
        # Contiguity: nothing *older* than a busy component may merge
        # with anything newer, so eligibility is the newest-first prefix.
        policy = StackMergePolicy(2)
        comps = _slot_components(5)
        first = policy.acquire_merge(comps)
        assert first == comps[:2]
        second = policy.acquire_merge(comps)
        assert second is None  # prefix stops at comps[0]: still busy
        policy.release_merge(first)
        assert policy.acquire_merge(comps) == comps[:2]

    def test_acquire_returns_none_when_policy_declines(self):
        policy = ConstantMergePolicy(5)
        assert policy.acquire_merge(_slot_components(3)) is None
        assert policy.in_flight_count == 0

    def test_concurrent_acquires_never_double_claim(self):
        import threading

        policy = StackMergePolicy(2)
        comps = _slot_components(8)
        claims = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            selection = policy.acquire_merge(comps)
            if selection is not None:
                claims.append(selection)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        claimed_uids = [c.uid for selection in claims for c in selection]
        assert len(claimed_uids) == len(set(claimed_uids))
        for selection in claims:
            policy.release_merge(selection)
        assert policy.in_flight_count == 0
