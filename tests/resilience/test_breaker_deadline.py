"""CircuitBreaker state machine and Deadline budgets, on a hand clock."""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    OracleTimeoutError,
    RetryExhaustedError,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    no_sleep,
    retry_call,
)

from .test_retry import retry_call_via_twin


class FakeClock:
    """A monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(recovery_time=-1.0)

    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert excinfo.value.attempts == 3

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(10.0)
        breaker.before_call()  # probe allowed
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, recovery_time=10.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Deadline(-1.0, clock=FakeClock())

    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == 5.0
        assert not deadline.expired
        deadline.check()
        clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_unlimited_never_expires(self):
        clock = FakeClock()
        deadline = Deadline.unlimited(clock=clock)
        clock.advance(1e9)
        assert not deadline.expired
        deadline.check()


class TestRetryWithGuards:
    retry = staticmethod(retry_call)

    def test_open_breaker_stops_retrying(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_time=60.0, clock=clock
        )

        def always_times_out():
            raise OracleTimeoutError("down")

        # first call trips the breaker after two failed attempts, then
        # the third attempt is rejected by the open circuit.
        with pytest.raises(CircuitOpenError):
            self.retry(
                always_times_out,
                RetryPolicy(max_attempts=5),
                sleeper=no_sleep,
                breaker=breaker,
            )
        assert breaker.state == CircuitBreaker.OPEN

    def test_expired_deadline_stops_before_calling(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        calls = []

        with pytest.raises(DeadlineExceededError):
            self.retry(
                lambda: calls.append(1),
                RetryPolicy(max_attempts=3),
                sleeper=no_sleep,
                deadline=deadline,
            )
        assert not calls

    def test_breaker_closes_again_and_allows_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        result = self.retry(
            lambda: "ok",
            RetryPolicy(max_attempts=1),
            sleeper=no_sleep,
            breaker=breaker,
        )
        assert result == "ok"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_exhaustion_with_breaker_records_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=10, recovery_time=1.0, clock=clock
        )

        def always_times_out():
            raise OracleTimeoutError("down")

        with pytest.raises(RetryExhaustedError):
            self.retry(
                always_times_out,
                RetryPolicy(max_attempts=3),
                sleeper=no_sleep,
                breaker=breaker,
            )
        assert breaker.consecutive_failures == 3


class TestRetryWithGuardsAsync(TestRetryWithGuards):
    """The same cases against the awaitable twin."""

    retry = staticmethod(retry_call_via_twin)
