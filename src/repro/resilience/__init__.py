"""Resilience layer: retry/backoff, circuit breaking, deadlines, fetching.

Long-running risk studies (the paper's deployment spanned two months)
must survive a flaky OSN and a human oracle who times out or abstains.
This package supplies the building blocks:

* :class:`RetryPolicy` / :func:`retry_call` (and its awaitable twin
  :func:`retry_call_async`) — exponential backoff with deterministic
  seeded jitter and an injectable sleeper;
* :class:`CircuitBreaker` — stop hammering a failing dependency;
* :class:`Deadline` — wall-clock budgets with an injectable clock;
* :class:`ResilientOracle` — the composition applied to owner queries;
* :class:`ResilientFetcher` — the composition applied to profile fetches.

Fault *injection* (producing the failures these absorb) lives in the
sibling :mod:`repro.faults` package.
"""

from .breaker import CircuitBreaker, Deadline
from .fetch import FetchReport, GraphSource, ProfileSource, ResilientFetcher
from .oracle import ResilientOracle
from .retry import (
    DEFAULT_RETRYABLE,
    Clock,
    RetryPolicy,
    Sleeper,
    no_sleep,
    retry_call,
    retry_call_async,
)

__all__ = [
    "CircuitBreaker",
    "Clock",
    "DEFAULT_RETRYABLE",
    "Deadline",
    "FetchReport",
    "GraphSource",
    "ProfileSource",
    "ResilientFetcher",
    "ResilientOracle",
    "RetryPolicy",
    "Sleeper",
    "no_sleep",
    "retry_call",
    "retry_call_async",
]
