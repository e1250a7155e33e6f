"""Retry with exponential backoff and deterministic, seeded jitter.

The paper's Sight deployment ran for two months against a flaky OSN:
profile fetches time out, the API rate-limits, the human oracle walks away
from the keyboard.  :class:`RetryPolicy` encodes how patiently to retry.
Two properties matter for a reproducible research harness:

* **determinism** — the jittered backoff schedule is a pure function of
  the policy (seeded), so the same run always waits the same way and
  property tests can assert the schedule exactly;
* **injectable time** — callers supply the sleeper (and, elsewhere, the
  clock), so the test suite exercises multi-minute backoff schedules in
  microseconds.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Awaitable, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .breaker import CircuitBreaker, Deadline

from ..errors import (
    ConfigError,
    OracleTimeoutError,
    RetryExhaustedError,
    TransientFetchError,
)

T = TypeVar("T")

#: Seconds-returning monotonic clock; injectable for tests.
Clock = Callable[[], float]

#: Blocking sleep; injectable for tests.
Sleeper = Callable[[float], None]


def no_sleep(_: float) -> None:
    """A sleeper that does not sleep — for simulations and tests."""


#: Exception types retried by default: the transient half of the error
#: hierarchy.  Everything else (bad labels, unknown users, abstentions)
#: signals a non-transient condition that retrying cannot fix.
DEFAULT_RETRYABLE: tuple[type[Exception], ...] = (
    OracleTimeoutError,
    TransientFetchError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded full-jitter.

    Attempt ``k`` (0-based) that fails waits
    ``min(base_delay * multiplier**k, max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.  The draws
    come from ``random.Random(seed)``, so the whole schedule is fixed by
    the policy alone: same policy, same schedule, forever.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (``1`` disables retrying).
    base_delay:
        Delay after the first failure, in seconds.
    multiplier:
        Exponential growth factor between consecutive delays.
    max_delay:
        Cap applied to the un-jittered delay.
    jitter:
        Spread fraction in ``[0, 1]``; ``0`` means no jitter.
    seed:
        Seed fixing the jitter draws.
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must lie in [0, 1], got {self.jitter}")

    def schedule(self) -> tuple[float, ...]:
        """The deterministic delays between attempts.

        Returns ``max_attempts - 1`` values: the wait after attempt ``k``
        before attempt ``k + 1``.
        """
        rng = random.Random(self.seed)
        delays = []
        for attempt in range(self.max_attempts - 1):
            raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            delays.append(raw * factor)
        return tuple(delays)


def retry_call(
    operation: Callable[[], T],
    policy: RetryPolicy | None = None,
    *,
    retry_on: tuple[type[Exception], ...] = DEFAULT_RETRYABLE,
    sleeper: Sleeper = time.sleep,
    breaker: "CircuitBreaker | None" = None,
    deadline: "Deadline | None" = None,
) -> T:
    """Call ``operation`` under ``policy``, retrying transient failures.

    The optional ``breaker`` and ``deadline`` guard every attempt: an open
    circuit raises :class:`~repro.errors.CircuitOpenError` immediately
    (the breaker's verdict is not itself retried), and an expired deadline
    raises :class:`~repro.errors.DeadlineExceededError`.

    Raises
    ------
    RetryExhaustedError
        When every attempt failed with a retryable error; ``last_error``
        carries the final failure and ``attempts`` the number of tries.
    """

    async def attempt() -> T:
        return operation()

    async def wait(delay: float) -> None:
        sleeper(delay)

    # neither coroutine suspends, so one send runs the twin's whole loop
    try:
        retry_call_async(
            attempt,
            policy,
            retry_on=retry_on,
            sleeper=wait,
            breaker=breaker,
            deadline=deadline,
        ).send(None)
    except StopIteration as finished:
        return finished.value
    raise AssertionError("a blocking retry suspended")  # pragma: no cover


async def retry_call_async(
    operation: Callable[[], Awaitable[T]],
    policy: RetryPolicy | None = None,
    *,
    retry_on: tuple[type[Exception], ...] = DEFAULT_RETRYABLE,
    sleeper: Callable[[float], Awaitable[None]] = asyncio.sleep,
    breaker: "CircuitBreaker | None" = None,
    deadline: "Deadline | None" = None,
) -> T:
    """:func:`retry_call` for event-loop callers, and the one retry loop
    both run.

    ``operation`` returns an awaitable and the waits are awaited, so the
    loop keeps serving while a call backs off.
    """
    policy = policy or RetryPolicy()
    delays = policy.schedule()
    last_error: Exception | None = None
    for attempt in range(policy.max_attempts):
        if deadline is not None:
            deadline.check()
        if breaker is not None:
            breaker.before_call()
        try:
            result = await operation()
        except retry_on as error:
            last_error = error
            if breaker is not None:
                breaker.record_failure()
            if attempt < len(delays):
                await sleeper(delays[attempt])
            continue
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return result
    raise RetryExhaustedError(
        f"operation failed after {policy.max_attempts} attempts: {last_error}",
        attempts=policy.max_attempts,
        last_error=last_error,
    )


__all__ = [
    "Clock",
    "DEFAULT_RETRYABLE",
    "RetryPolicy",
    "Sleeper",
    "no_sleep",
    "retry_call",
    "retry_call_async",
]
