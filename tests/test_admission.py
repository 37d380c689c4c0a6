"""Admission control: the AIMD concurrency limiter, the controller's
shed / queue / brownout / drain behavior, and the client-side retry
budget, policy, and retrying sender."""

from __future__ import annotations

import threading
import time

import pytest

from repro.resilience.admission import (
    MIN_RETRY_AFTER_S,
    AdaptiveConcurrencyLimiter,
    AdmissionController,
)
from repro.resilience.errors import OverloadedError, ShuttingDownError
from repro.service.protocol import RetryPolicy
from repro.service.server import send_request_with_retries


class _Breaker:
    """Duck-typed stand-in for a CircuitBreaker: only ``state`` is read."""

    def __init__(self, state: str = "closed"):
        self.state = state


class TestLimiterValidation:
    def test_rejects_bad_limit_ordering(self):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(initial_limit=4, max_limit=2)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(initial_limit=1, min_limit=2)

    def test_rejects_bad_tolerance_and_factor(self):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(tolerance=1.0)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(decrease_factor=1.0)


class TestLimiterAimd:
    def test_good_samples_grow_the_limit_additively(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial_limit=2, max_limit=8
        )
        for _ in range(40):
            limiter.on_sample(0.01)
        assert limiter.limit > 2
        assert limiter.increases_total > 0

    def test_limit_never_exceeds_max(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial_limit=3, max_limit=4
        )
        for _ in range(200):
            limiter.on_sample(0.01)
        assert limiter.limit == 4

    def test_congested_latency_decreases_multiplicatively(self):
        limiter = AdaptiveConcurrencyLimiter(initial_limit=10)
        limiter.on_sample(0.01)  # establishes the baseline
        limiter.on_sample(1.0)   # 100x the floor: congestion
        assert limiter.limit == 7  # 10 * 0.7
        assert limiter.decreases_total == 1

    def test_timeout_is_a_decrease(self):
        limiter = AdaptiveConcurrencyLimiter(initial_limit=10)
        limiter.on_timeout()
        assert limiter.limit == 7

    def test_decreases_floor_at_min_limit(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial_limit=4, min_limit=2
        )
        for _ in range(50):
            limiter.on_timeout()
        assert limiter.limit == 2

    def test_congestion_cannot_retrain_the_baseline(self):
        limiter = AdaptiveConcurrencyLimiter(initial_limit=8)
        limiter.on_sample(0.01)
        for _ in range(5):
            limiter.on_sample(1.0)  # sustained congestion
        # the slow upward drift keeps the floor anchored near 0.01, so
        # every congested sample registers and the limit collapses
        assert limiter.limit == limiter.min_limit
        assert limiter.describe()["baseline_s"] < 0.3

    def test_failed_sample_decreases(self):
        limiter = AdaptiveConcurrencyLimiter(initial_limit=10)
        limiter.on_sample(0.01, ok=False)
        assert limiter.limit == 7


class TestAdmission:
    def test_free_slot_admits_immediately(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(initial_limit=4)
        )
        ticket = ctrl.try_acquire(budget_s=1.0)
        assert not ticket.brownout
        state = ctrl.describe()
        assert state["in_flight"] == 1
        assert state["counters"]["admitted"] == 1
        ctrl.release(ticket, 0.01)
        assert ctrl.describe()["in_flight"] == 0

    def test_deadline_aware_shed_when_wait_exceeds_budget(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            )
        )
        held = ctrl.try_acquire()
        # predicted wait with the slot busy is the default 0.1s service
        # estimate; a 0.05s budget cannot cover it -> shed before work
        with pytest.raises(OverloadedError) as err:
            ctrl.try_acquire(budget_s=0.05)
        assert err.value.kind == "overloaded"
        assert err.value.retry_after_s >= MIN_RETRY_AFTER_S
        assert ctrl.describe()["counters"]["shed_deadline"] == 1
        ctrl.release(held, 0.01)

    def test_queue_full_sheds_with_retry_hint(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            ),
            max_queue=0,
        )
        held = ctrl.try_acquire()
        with pytest.raises(OverloadedError) as err:
            ctrl.try_acquire()  # no budget: hits the queue bound instead
        assert "queue full" in str(err.value)
        assert err.value.retry_after_s >= MIN_RETRY_AFTER_S
        assert ctrl.describe()["counters"]["shed_queue_full"] == 1
        ctrl.release(held, 0.01)

    def test_bounded_wait_times_out_with_typed_rejection(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            ),
            max_queue_wait_s=0.05,
        )
        held = ctrl.try_acquire()
        start = time.monotonic()
        with pytest.raises(OverloadedError):
            ctrl.try_acquire()
        assert time.monotonic() - start < 2.0
        assert ctrl.describe()["counters"]["shed_wait_timeout"] == 1
        ctrl.release(held, 0.01)

    def test_release_unblocks_a_queued_waiter(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            ),
            max_queue_wait_s=5.0,
        )
        held = ctrl.try_acquire()
        results = {}

        def waiter():
            results["ticket"] = ctrl.try_acquire(budget_s=10.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        ctrl.release(held, 0.01)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results["ticket"].waited_s > 0
        state = ctrl.describe()
        assert state["counters"]["admitted_after_wait"] == 1
        ctrl.release(results["ticket"], 0.01)

    def test_full_utilization_flips_brownout(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            )
        )
        # with a single slot, admitting one request is 100% utilization
        ticket = ctrl.try_acquire()
        assert ticket.brownout
        assert ctrl.describe()["counters"]["brownout_admitted"] == 1
        ctrl.release(ticket, 0.01)

    def test_low_utilization_is_not_brownout(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(initial_limit=8)
        )
        ticket = ctrl.try_acquire()
        assert not ticket.brownout
        ctrl.release(ticket, 0.01)

    def test_open_breaker_forces_brownout(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(initial_limit=8),
            breakers=[_Breaker("open")],
        )
        ticket = ctrl.try_acquire()
        assert ticket.brownout
        ctrl.release(ticket, 0.01)

    def test_a_timeout_cuts_the_capacity_admission_grants(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(initial_limit=2)
        )
        first, second = ctrl.try_acquire(), ctrl.try_acquire()
        ctrl.release(first, 0.01, timed_out=True)
        # limit 2 -> 1: the slot the timed-out request gave back is not
        # granted again while the other request is still running
        assert ctrl.limiter.limit == 1
        with pytest.raises(OverloadedError):
            ctrl.try_acquire(budget_s=0.05)
        ctrl.release(second, 0.01)
        ctrl.release(ctrl.try_acquire(budget_s=0.05), 0.01)
        assert ctrl.describe()["in_flight"] == 0

    def test_service_time_ewma_learns_from_releases(self):
        ctrl = AdmissionController()
        ticket = ctrl.try_acquire()
        ctrl.release(ticket, 0.5)
        assert ctrl.describe()["service_time_ewma_s"] == 0.5
        # timed-out samples must not pollute the estimate
        ticket = ctrl.try_acquire()
        ctrl.release(ticket, 99.0, ok=False, timed_out=True)
        assert ctrl.describe()["service_time_ewma_s"] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_wait_s=0.0)
        with pytest.raises(ValueError):
            AdmissionController(brownout_utilization=0.0)


class TestDrain:
    def test_draining_rejects_with_shutting_down(self):
        ctrl = AdmissionController()
        ctrl.begin_drain()
        assert ctrl.draining
        with pytest.raises(ShuttingDownError) as err:
            ctrl.try_acquire()
        assert err.value.kind == "shutting-down"
        assert ctrl.describe()["counters"]["rejected_draining"] == 1

    def test_begin_drain_is_idempotent(self):
        ctrl = AdmissionController()
        ctrl.begin_drain()
        ctrl.begin_drain()
        assert ctrl.draining

    def test_drain_wakes_and_rejects_queued_waiters(self):
        ctrl = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=1, max_limit=1
            ),
            max_queue_wait_s=30.0,
        )
        held = ctrl.try_acquire()
        errors = []

        def waiter():
            try:
                ctrl.try_acquire(budget_s=60.0)
            except ShuttingDownError as exc:
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        ctrl.begin_drain()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(errors) == 1
        ctrl.release(held, 0.01)

    def test_wait_idle_blocks_until_in_flight_completes(self):
        ctrl = AdmissionController()
        ticket = ctrl.try_acquire()
        assert not ctrl.wait_idle(0.05)
        timer = threading.Timer(0.1, ctrl.release, args=(ticket, 0.01))
        timer.start()
        assert ctrl.wait_idle(10.0)
        timer.join()


class TestRetryPolicy:
    def test_only_overloaded_is_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(0, "overloaded")
        assert not policy.should_retry(0, "shutting-down")
        assert not policy.should_retry(0, "timeout")
        assert not policy.should_retry(0, None)

    def test_attempt_cap(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(0, "overloaded")
        assert not policy.should_retry(1, "overloaded")

    def test_server_hint_floors_the_delay(self):
        policy = RetryPolicy()
        # jittered exponential backoff at attempt 0 is at most 0.1s;
        # the server hint must win
        assert policy.delay_s(0, retry_after_s=1.5) >= 1.5
        assert policy.delay_s(0) <= 0.1


class TestSendWithRetries:
    @staticmethod
    def _overloaded(retry_after=0.2):
        return {"ok": False, "error": "busy",
                "error_kind": "overloaded", "retry_after_s": retry_after}

    def test_retries_until_success_honoring_retry_after(self):
        replies = [self._overloaded(), self._overloaded(),
                   {"ok": True, "op": "analyze"}]
        calls = []
        sleeps = []

        def send(payload, host=None, port=None, timeout=None):
            calls.append(payload)
            return replies[len(calls) - 1]

        resp = send_request_with_retries(
            {"op": "analyze"}, policy=RetryPolicy(max_attempts=3),
            send=send, sleep=sleeps.append,
        )
        assert resp["ok"]
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert all(delay >= 0.2 for delay in sleeps)

    def test_every_asked_attempt_is_made(self):
        """``request --retries 5`` is ``max_attempts=6``: five sheds
        then a success is a success on the sixth attempt."""
        replies = [self._overloaded()] * 5 + [{"ok": True, "op": "analyze"}]
        calls = []

        def send(payload, host=None, port=None, timeout=None):
            calls.append(payload)
            return replies[len(calls) - 1]

        resp = send_request_with_retries(
            {"op": "analyze"}, policy=RetryPolicy(max_attempts=6),
            send=send, sleep=lambda _s: None,
        )
        assert resp["ok"]
        assert len(calls) == 6

    def test_gives_up_after_max_attempts(self):
        calls = []

        def send(payload, host=None, port=None, timeout=None):
            calls.append(payload)
            return self._overloaded()

        resp = send_request_with_retries(
            {"op": "analyze"}, policy=RetryPolicy(max_attempts=2),
            send=send, sleep=lambda _s: None,
        )
        assert resp["error_kind"] == "overloaded"
        assert len(calls) == 2

    def test_shutting_down_is_returned_without_retry(self):
        calls = []

        def send(payload, host=None, port=None, timeout=None):
            calls.append(payload)
            return {"ok": False, "error": "draining",
                    "error_kind": "shutting-down"}

        resp = send_request_with_retries(
            {"op": "analyze"}, send=send, sleep=lambda _s: None,
        )
        assert resp["error_kind"] == "shutting-down"
        assert len(calls) == 1
