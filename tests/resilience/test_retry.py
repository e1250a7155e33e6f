"""RetryPolicy schedules and retry_call semantics, for retry_call and
its awaitable twin alike."""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    OracleError,
    OracleTimeoutError,
    RetryExhaustedError,
    TransientFetchError,
)
from repro.resilience import (
    RetryPolicy,
    no_sleep,
    retry_call,
    retry_call_async,
)

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=6),
    base_delay=st.floats(min_value=0.0, max_value=2.0),
    multiplier=st.floats(min_value=1.0, max_value=3.0),
    max_delay=st.floats(min_value=0.0, max_value=10.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)

    def test_schedule_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        assert policy.schedule() == (1.0, 2.0, 4.0)

    def test_schedule_caps_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=10.0,
            max_delay=5.0, jitter=0.0,
        )
        assert policy.schedule() == (1.0, 5.0, 5.0, 5.0)

    @given(policy=policies)
    def test_schedule_is_deterministic(self, policy):
        """Same policy (incl. seed), same schedule — always."""
        clone = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=policy.base_delay,
            multiplier=policy.multiplier,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            seed=policy.seed,
        )
        assert policy.schedule() == clone.schedule()
        assert policy.schedule() == policy.schedule()

    @given(policy=policies)
    def test_schedule_shape_and_jitter_bounds(self, policy):
        schedule = policy.schedule()
        assert len(schedule) == policy.max_attempts - 1
        for attempt, delay in enumerate(schedule):
            raw = min(
                policy.base_delay * policy.multiplier**attempt,
                policy.max_delay,
            )
            low = raw * (1.0 - policy.jitter)
            high = raw * (1.0 + policy.jitter)
            assert low - 1e-9 <= delay <= high + 1e-9

    def test_different_seeds_jitter_differently(self):
        base = dict(max_attempts=4, base_delay=1.0, jitter=0.5)
        first = RetryPolicy(seed=1, **base).schedule()
        second = RetryPolicy(seed=2, **base).schedule()
        assert first != second


class _FailsThen:
    """Raises ``error`` for the first ``failures`` calls, then returns."""

    def __init__(self, failures, error=OracleTimeoutError, value="ok"):
        self.failures = failures
        self.error = error
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"boom #{self.calls}")
        return self.value


def retry_call_via_twin(
    operation, policy=None, *, sleeper=time.sleep, **guards
):
    """:func:`retry_call`'s signature over :func:`retry_call_async`: the
    operation and the sleeper become coroutines, run on a fresh loop."""

    async def attempt():
        return operation()

    async def wait(delay):
        sleeper(delay)

    return asyncio.run(
        retry_call_async(attempt, policy, sleeper=wait, **guards)
    )


class TestRetryCall:
    retry = staticmethod(retry_call)

    def test_success_first_try(self):
        operation = _FailsThen(0)
        assert self.retry(operation, RetryPolicy(), sleeper=no_sleep) == "ok"
        assert operation.calls == 1

    def test_retries_transient_then_succeeds(self):
        operation = _FailsThen(2)
        result = self.retry(
            operation, RetryPolicy(max_attempts=4), sleeper=no_sleep
        )
        assert result == "ok"
        assert operation.calls == 3

    def test_exhaustion_raises_with_structured_fields(self):
        operation = _FailsThen(10)
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(RetryExhaustedError) as excinfo:
            self.retry(operation, policy, sleeper=no_sleep)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, OracleTimeoutError)
        assert operation.calls == 3

    def test_non_retryable_propagates_immediately(self):
        operation = _FailsThen(10, error=OracleError)
        with pytest.raises(OracleError):
            self.retry(operation, RetryPolicy(max_attempts=5), sleeper=no_sleep)
        assert operation.calls == 1

    def test_retry_on_selects_the_retryable_set(self):
        operation = _FailsThen(1, error=TransientFetchError)
        with pytest.raises(TransientFetchError):
            self.retry(
                operation,
                RetryPolicy(max_attempts=3),
                retry_on=(OracleTimeoutError,),
                sleeper=no_sleep,
            )

    def test_sleeps_follow_the_schedule(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.3, seed=9)
        slept = []
        operation = _FailsThen(2)
        self.retry(operation, policy, sleeper=slept.append)
        assert tuple(slept) == policy.schedule()

    def test_max_attempts_one_disables_retrying(self):
        operation = _FailsThen(1)
        with pytest.raises(RetryExhaustedError):
            self.retry(
                operation, RetryPolicy(max_attempts=1), sleeper=no_sleep
            )
        assert operation.calls == 1


class TestRetryCallAsync(TestRetryCall):
    """The same cases against the awaitable twin."""

    retry = staticmethod(retry_call_via_twin)
