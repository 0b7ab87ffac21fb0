"""Tests for the shared seeded retry/backoff policy."""

import random

import pytest

from repro.util.retry import RetryPolicy


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=-0.001)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=0.1, max_backoff=0.01)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_backoff=0.001, max_backoff=0.004, jitter=0.0)
    rng = random.Random(0)
    assert policy.backoff_for(0, rng) == pytest.approx(0.001)
    assert policy.backoff_for(1, rng) == pytest.approx(0.002)
    assert policy.backoff_for(2, rng) == pytest.approx(0.004)
    assert policy.backoff_for(10, rng) == pytest.approx(0.004)  # capped


def test_jitter_is_proportional_and_seeded():
    policy = RetryPolicy(base_backoff=0.010, max_backoff=0.010, jitter=0.5)
    samples = [policy.backoff_for(0, random.Random(seed)) for seed in range(50)]
    assert all(0.005 <= sample <= 0.015 for sample in samples)
    assert len(set(samples)) > 1  # jitter actually varies
    # Same seed, same jitter: the policy itself holds no hidden state.
    assert policy.backoff_for(0, random.Random(7)) == policy.backoff_for(
        0, random.Random(7)
    )


def test_pauses_end_at_the_attempt_budget():
    policy = RetryPolicy(
        max_attempts=4, base_backoff=0.01, max_backoff=0.01, jitter=0.0
    )
    assert list(policy.pauses(random.Random(0))) == pytest.approx([0.01] * 3)


def test_pauses_end_at_the_time_budget():
    policy = RetryPolicy(
        max_attempts=10,
        base_backoff=0.1,
        max_backoff=0.1,
        jitter=0.0,
        timeout=0.25,
    )
    assert list(policy.pauses(random.Random(0))) == pytest.approx([0.1, 0.1])


def test_pauses_draw_jitter_in_backoff_order():
    policy = RetryPolicy(jitter=0.5, timeout=10.0)
    rng = random.Random(5)
    expected = [policy.backoff_for(retry, rng) for retry in range(3)]
    assert list(policy.pauses(random.Random(5))) == expected


def test_immediate_policy_never_sleeps():
    slept: list[float] = []
    policy = RetryPolicy.immediate(max_attempts=3)
    assert policy.max_attempts == 3
    assert policy.backoff_for(5, random.Random(0)) == 0.0
    policy.sleep(123.0)  # the hook is a no-op, not time.sleep
    assert slept == []


def test_sleep_hook_is_injectable():
    slept: list[float] = []
    policy = RetryPolicy(sleep=slept.append)
    policy.sleep(policy.backoff_for(1, random.Random(3)))
    assert len(slept) == 1 and slept[0] > 0
