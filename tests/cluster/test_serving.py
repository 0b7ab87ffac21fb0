"""Tests for the bounded concurrent estimate service.

``faulthandler`` arms a watchdog per test so a deadlock in the
admission queue or the slot hand-off produces thread tracebacks
instead of a silent CI hang (same discipline as the scheduler stress
suite).
"""

import faulthandler
import sys
import threading
import time

import pytest

from repro.cluster import LSMCluster
from repro.cluster.servecheck import saturate
from repro.cluster.serving import EstimateService
from repro.core import StatisticsConfig
from repro.errors import ConfigurationError, OverloadedError
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses import SynopsisType
from repro.types import Domain
from repro.util.retry import RetryPolicy

STRESS_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def watchdog():
    """Dump all-thread tracebacks if a serving test wedges."""
    faulthandler.dump_traceback_later(STRESS_TIMEOUT, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _cluster(scheduler="sync"):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32),
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        scheduler=scheduler,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=32,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    for pk in range(200):
        cluster.insert("ds", {"id": pk, "value": (pk * 13) % 1024})
    cluster.flush_all("ds")
    cluster.drain_maintenance()
    cluster.recover_statistics()
    return cluster


@pytest.fixture
def cluster():
    built = _cluster()
    yield built
    built.shutdown()


class _StubCluster:
    """Records which thread ran each estimate (``calls``, in entry
    order) and how many ran at once (``peak``); an estimate waits for
    ``gate``, then takes ``delay`` seconds, before it answers ``lo``."""

    def __init__(self, gated=False, delay=0.0):
        self.delay = delay
        self.lock = threading.Lock()
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.calls = []
        self.inside = 0
        self.peak = 0

    def estimate_detailed(self, dataset, index_name, lo, hi):
        with self.lock:
            self.calls.append((threading.current_thread().name, lo))
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            self.gate.wait(STRESS_TIMEOUT)
            if self.delay:
                time.sleep(self.delay)
            return lo
        finally:
            with self.lock:
                self.inside -= 1


def _wait_until(condition):
    deadline = time.monotonic() + STRESS_TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class _Caller(threading.Thread):
    """One request on its own thread, named after its client;
    ``outcome`` is the answer or the ``OverloadedError`` that shed it."""

    def __init__(self, service, client_id, lo, timeout=STRESS_TIMEOUT):
        super().__init__(name=f"client-{client_id}", daemon=True)
        self.service = service
        self.client_id = client_id
        self.lo = lo
        self.timeout = timeout
        self.outcome = None

    def run(self):
        try:
            self.outcome = self.service.estimate(
                self.client_id, "ds", "idx", self.lo, 0, timeout=self.timeout
            )
        except OverloadedError as exc:
            self.outcome = exc


def _start(service, client_id, lo, settled):
    caller = _Caller(service, client_id, lo)
    caller.start()
    _wait_until(settled)
    return caller


def _hold(service, stub, client_id="holder"):
    """Start a caller that takes a free slot and parks in ``stub``."""
    inside = stub.inside
    return _start(service, client_id, -1, lambda: stub.inside == inside + 1)


def _queue(service, client_id, lo):
    """Start a caller and wait until it joins the queue."""
    depth = service.queue_depth
    return _start(service, client_id, lo, lambda: service.queue_depth == depth + 1)


def _join(callers):
    for caller in callers:
        caller.join(STRESS_TIMEOUT)
    assert not any(caller.is_alive() for caller in callers)


class TestAdmission:
    def test_answers_match_direct_estimates(self, cluster):
        with EstimateService(cluster, workers=2) as service:
            for lo in (0, 128, 512):
                served = service.estimate("c1", "ds", "value_idx", lo, lo + 255)
                direct = cluster.estimate_detailed("ds", "value_idx", lo, lo + 255)
                assert served.estimate == direct.estimate
                assert not served.degraded

    def test_queue_bound_sheds_with_typed_error(self):
        # The one slot held and the queue full: calls past the bound
        # are deterministic rejections, never queue growth.
        stub = _StubCluster(gated=True)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = EstimateService(
                stub,
                max_queue_depth=4,
                workers=1,
                retry_policy=RetryPolicy.immediate(max_attempts=1),
            )
        staged = [_hold(service, stub)] + [_queue(service, "c1", i) for i in range(4)]
        for _ in range(5):
            with pytest.raises(OverloadedError, match="admission queue full"):
                service.estimate("c1", "ds", "idx", 0, 100)
        assert service.queue_depth == 4
        assert service.peak_queue_depth == 4
        stub.gate.set()
        _join(staged)
        assert service.queue_depth == 0
        assert [caller.outcome for caller in staged] == [-1, 0, 1, 2, 3]
        assert registry.snapshot()["counters"]["serve.rejected"] == 5
        service.shutdown()

    def test_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            EstimateService(cluster, max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            EstimateService(cluster, workers=0)

    def test_timeout_is_typed_and_counted(self):
        stub = _StubCluster(gated=True)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = EstimateService(stub, workers=1, default_timeout=0.01)
        holder = _hold(service, stub)
        with pytest.raises(OverloadedError, match="no slot within"):
            service.estimate("c1", "ds", "idx", 0, 100)
        stub.gate.set()
        _join([holder])
        assert registry.snapshot()["counters"]["serve.timeouts"] == 1
        service.shutdown()

    def test_shutdown_fails_pending_requests(self):
        stub = _StubCluster(gated=True)
        service = EstimateService(stub, workers=1)
        holder = _hold(service, stub)
        waiter = _queue(service, "c1", 0)
        service.shutdown()
        waiter.join(STRESS_TIMEOUT)
        assert isinstance(waiter.outcome, OverloadedError)
        assert service.queue_depth == 0
        with pytest.raises(OverloadedError):
            service.estimate("c1", "ds", "idx", 0, 100, timeout=0.01)
        stub.gate.set()
        _join([holder])

    def test_shutdown_wakes_every_waiting_caller_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        stub = _StubCluster(gated=True)
        service = EstimateService(stub, workers=2, max_queue_depth=8)
        holders = [_hold(service, stub, f"holder{n}") for n in range(2)]
        waiters = [_queue(service, f"c{i % 3}", i) for i in range(6)]
        service.shutdown()
        _join(waiters)
        assert all(
            isinstance(waiter.outcome, OverloadedError) for waiter in waiters
        )
        assert "shut down" in str(waiters[0].outcome)
        stub.gate.set()
        _join(holders)
        assert [holder.outcome for holder in holders] == [-1, -1]
        assert [lo for _name, lo in stub.calls] == [-1, -1]
        assert set(threading.enumerate()) <= before

    def test_an_expired_waiter_leaves_the_queue_while_the_slots_stay_held(self):
        stub = _StubCluster(gated=True)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = EstimateService(stub, workers=1)
        holder = _hold(service, stub)
        waiters = [_queue(service, "c1", i) for i in range(2)]
        with pytest.raises(OverloadedError, match="no slot within"):
            service.estimate("c2", "ds", "idx", 99, 0, timeout=0.02)
        assert service.queue_depth == 2
        assert stub.inside == 1
        assert registry.snapshot()["counters"]["serve.timeouts"] == 1
        stub.gate.set()
        _join([holder, *waiters])
        assert [lo for _name, lo in stub.calls] == [-1, 0, 1]
        service.shutdown()


class TestFairScheduling:
    def test_round_robin_interleaves_clients(self):
        # Behind the one held slot, "a" queues three requests, "b" two
        # and "c" one; each finishing estimate hands its slot to the
        # next client in rotation.
        stub = _StubCluster(gated=True)
        service = EstimateService(stub, workers=1, max_queue_depth=64)
        staged = [_hold(service, stub)] + [
            _queue(service, client, lo) for lo, client in enumerate("aaabbc")
        ]
        stub.gate.set()
        _join(staged)
        service.shutdown()
        order = [name.removeprefix("client-") for name, _lo in stub.calls]
        assert order == ["holder", "a", "b", "c", "a", "b", "a"]


class TestCallerRuns:
    def test_idle_service_answers_on_the_callers_thread(self):
        stub = _StubCluster()
        registry = MetricsRegistry()
        with use_registry(registry), EstimateService(stub, workers=2) as service:
            assert service.estimate("c1", "ds", "idx", 7, 9) == 7
            assert service.estimate("c1", "ds", "idx", 8, 9) == 8
        me = threading.current_thread().name
        assert stub.calls == [(me, 7), (me, 8)]
        histograms = registry.snapshot()["histograms"]
        assert histograms["serve.latency.seconds"]["count"] == 2
        assert histograms["serve.queue_wait.seconds"]["count"] == 0

    def test_an_inline_answer_outlives_its_deadline(self):
        """A deadline bounds the wait for a slot, not the estimate: an
        idle service answers a slow estimate late and sheds nothing."""
        stub = _StubCluster(gated=True)
        registry = MetricsRegistry()
        release = threading.Timer(0.05, stub.gate.set)
        with use_registry(registry):
            service = EstimateService(stub, default_timeout=0.001, degraded_mode=True)
        with service:
            release.start()
            started = time.perf_counter()
            assert service.estimate("c1", "ds", "idx", 3, 4, timeout=0.001) == 3
            assert time.perf_counter() - started >= 0.05
        release.join()
        counters = registry.snapshot()["counters"]
        assert counters.get("serve.timeouts", 0) == 0
        assert counters.get("serve.degraded", 0) == 0

    def test_constructing_and_using_a_service_starts_no_thread(self):
        before = set(threading.enumerate())
        stub = _StubCluster()
        service = EstimateService(stub, workers=4)
        assert set(threading.enumerate()) <= before
        assert service.estimate("c1", "ds", "idx", 1, 2) == 1
        assert set(threading.enumerate()) <= before
        service.shutdown()
        assert set(threading.enumerate()) <= before

    def test_running_estimates_never_exceed_workers(self):
        workers, clients, per_client = 2, 6, 5
        stub = _StubCluster(gated=True)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = EstimateService(
                stub, workers=workers, default_timeout=STRESS_TIMEOUT
            )
        outcomes = []

        def client(name):
            for i in range(per_client):
                try:
                    service.estimate(name, "ds", "idx", i, i)
                    outcomes.append("answered")
                except OverloadedError:
                    outcomes.append("shed")

        threads = [
            threading.Thread(target=client, args=(f"c{n}",), name=f"client-{n}")
            for n in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            # Every slot held, every other client queued behind them.
            _wait_until(
                lambda: stub.inside == workers
                and service.queue_depth == clients - workers
            )
            stub.gate.set()
            for thread in threads:
                thread.join(STRESS_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
            stub.gate.set()
            service.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert stub.peak == workers
        assert outcomes == ["answered"] * (clients * per_client)
        # Every estimate ran on the thread of the client that asked.
        assert {name for name, _lo in stub.calls} == {
            thread.name for thread in threads
        }
        queued = registry.snapshot()["histograms"]["serve.queue_wait.seconds"]
        assert queued["count"] >= clients - workers

    def test_deadlines_racing_grants_leak_no_slot(self):
        """Waiters expiring while finishing estimates hand them slots:
        every request is answered or shed, and every slot comes back."""
        workers, clients, per_client = 2, 8, 40
        stub = _StubCluster(delay=2e-4)
        registry = MetricsRegistry()
        with use_registry(registry):
            service = EstimateService(
                stub,
                workers=workers,
                max_queue_depth=4,
                retry_policy=RetryPolicy.immediate(max_attempts=2),
            )
        outcomes = []

        def client(name):
            for i in range(per_client):
                try:
                    service.estimate(name, "ds", "idx", i, i, timeout=3e-4 * (i % 3))
                    outcomes.append("answered")
                except OverloadedError:
                    outcomes.append("shed")

        threads = [
            threading.Thread(target=client, args=(f"c{n}",)) for n in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(STRESS_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == clients * per_client
        assert outcomes.count("answered") == len(stub.calls)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.timeouts"] > 0  # deadlines did expire
        assert snapshot["histograms"]["serve.queue_wait.seconds"]["count"] > 0
        shed = counters["serve.timeouts"] + counters["serve.rejected"]
        assert outcomes.count("shed") == shed
        assert stub.peak <= workers
        assert service.queue_depth == 0
        assert service._running == 0

    def test_a_flood_behind_held_slots_still_lets_a_second_client_out_second(self):
        stub = _StubCluster(gated=True)
        service = EstimateService(stub, workers=1, default_timeout=STRESS_TIMEOUT)
        staged = [_hold(service, stub)]
        staged += [_queue(service, "hog", 100 + i) for i in range(6)]
        staged.append(_queue(service, "meek", 50))
        stub.gate.set()
        _join(staged)
        service.shutdown()
        served = [lo for _name, lo in stub.calls]
        assert served == [-1, 100, 50, 101, 102, 103, 104, 105]


class TestDegradedMode:
    """A held slot and an immediate deadline: the only possible answer
    is the degraded one (``saturate`` gates the real cluster's live
    estimates and passes its degraded answers through)."""

    @staticmethod
    def _expired_request(cluster, degraded_mode):
        service, [outcome] = saturate(
            cluster,
            ("ds", "value_idx", 0, 1023),
            extra=1,
            queued=0,
            workers=1,
            default_timeout=0.0,
            degraded_mode=degraded_mode,
        )
        service.shutdown()
        return outcome

    def test_degraded_answer_comes_from_cache_and_is_flagged(self, cluster):
        warm = cluster.estimate_detailed("ds", "value_idx", 0, 1023)
        result = self._expired_request(cluster, degraded_mode=True)
        assert result.degraded
        assert result.estimate == pytest.approx(warm.estimate)

    def test_without_degraded_mode_the_same_request_sheds(self, cluster):
        cluster.estimate_detailed("ds", "value_idx", 0, 1023)
        outcome = self._expired_request(cluster, degraded_mode=False)
        assert isinstance(outcome, OverloadedError)

    def test_cold_cache_sheds_even_in_degraded_mode(self, cluster):
        # The held slot parks before it touches the estimator, so the
        # cache is still cold when the expired request looks.
        cluster.master.cache.clear()
        outcome = self._expired_request(cluster, degraded_mode=True)
        assert isinstance(outcome, OverloadedError)


class TestMixedLoadStress:
    def test_writers_and_clients_no_deadlock_no_lost_requests(self):
        cluster = _cluster(scheduler="threads")
        try:
            service = EstimateService(
                cluster,
                max_queue_depth=16,
                workers=2,
                default_timeout=30.0,
                retry_policy=RetryPolicy.immediate(max_attempts=3),
            )
            outcomes = {"answered": 0, "shed": 0}
            outcomes_lock = threading.Lock()

            def writer(base):
                for i in range(300):
                    cluster.insert(
                        "ds", {"id": 10_000 + base + i, "value": (base + i) % 1024}
                    )

            def client(name):
                for i in range(40):
                    lo = (i * 131) % 700
                    try:
                        result = service.estimate(
                            name, "ds", "value_idx", lo, lo + 255
                        )
                        assert result.estimate >= 0.0
                        with outcomes_lock:
                            outcomes["answered"] += 1
                    except OverloadedError:
                        with outcomes_lock:
                            outcomes["shed"] += 1

            threads = [
                threading.Thread(target=writer, args=(base,))
                for base in (0, 1000)
            ] + [
                threading.Thread(target=client, args=(f"c{n}",))
                for n in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=STRESS_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads), (
                "mixed-load threads failed to finish: deadlock"
            )
            assert outcomes["answered"] + outcomes["shed"] == 3 * 40
            assert outcomes["answered"] > 0
            assert service.peak_queue_depth <= 16
            service.shutdown()
            cluster.drain_maintenance()
        finally:
            cluster.shutdown()
