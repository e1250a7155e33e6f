"""Exception hierarchy for the library.

Every error the library raises deliberately derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class GraphError(ReproError):
    """A social-graph operation failed (unknown user, self-edge, ...)."""


class UnknownUserError(GraphError):
    """The referenced user id does not exist in the graph."""

    def __init__(self, user_id: int) -> None:
        super().__init__(f"unknown user id: {user_id}")
        self.user_id = user_id


class ProfileError(ReproError):
    """A profile is malformed or lacks a required attribute."""


class SimilarityError(ReproError):
    """A similarity measure could not be computed."""


class ClusteringError(ReproError):
    """Pool construction or Squeezer clustering failed."""


class ClassifierError(ReproError):
    """The label classifier could not produce predictions."""


class LearningError(ReproError):
    """The active-learning loop entered an invalid state."""


class OracleError(LearningError):
    """The label oracle failed to answer or answered out of range.

    Carries structured fields so retry wrappers and failure reports can
    introspect what went wrong without parsing the message:

    * ``stranger`` — the stranger the query was about, when known;
    * ``attempts`` — how many times the call had been tried, when the
      raiser tracked that.
    """

    def __init__(
        self,
        message: str,
        *,
        stranger: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.stranger = stranger
        self.attempts = attempts


class OracleTimeoutError(OracleError):
    """The oracle did not answer in time (transient; safe to retry)."""


class OracleAbstainError(OracleError):
    """The oracle explicitly declined to judge this stranger.

    Not an infrastructure failure: the paper's human owners sometimes
    cannot or will not rate a stranger.  The learner treats abstention as
    skip-and-resample rather than an error.
    """


class DataSourceError(ReproError):
    """A crawl or profile fetch against the (simulated) OSN failed."""

    def __init__(self, message: str, *, user_id: int | None = None) -> None:
        super().__init__(message)
        self.user_id = user_id


class TransientFetchError(DataSourceError):
    """A fetch failed transiently (rate limit, timeout); safe to retry."""


class UnreachableUserError(DataSourceError):
    """The user's data is gone for good (deleted, blocked, private)."""


class ResilienceError(ReproError):
    """Base class of failures raised by the resilience layer itself."""

    def __init__(
        self,
        message: str,
        *,
        stranger: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.stranger = stranger
        self.attempts = attempts


class RetryExhaustedError(ResilienceError):
    """Every allowed attempt failed; ``last_error`` is the final cause."""

    def __init__(
        self,
        message: str,
        *,
        stranger: int | None = None,
        attempts: int | None = None,
        last_error: Exception | None = None,
    ) -> None:
        super().__init__(message, stranger=stranger, attempts=attempts)
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """The circuit breaker is open; the call was not attempted."""


class DeadlineExceededError(ResilienceError):
    """The operation's time budget ran out before it could complete."""


class ServiceError(ReproError):
    """Base class of failures raised by the risk-scoring service layer."""


class UnknownOwnerError(ServiceError):
    """The referenced owner is not registered with the owner store."""

    def __init__(self, owner_id: int) -> None:
        super().__init__(f"unknown owner id: {owner_id}")
        self.owner_id = owner_id


class UnknownMeasureError(ServiceError):
    """The referenced risk measure is not in the measure registry.

    Carries the requested name and the registered names so the HTTP
    layer can answer 400 with the full menu instead of a bare error.
    """

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown risk measure {name!r}; available: {sorted(available)}"
        )
        self.name = name
        self.available = tuple(sorted(available))


class BackpressureError(ServiceError):
    """The scheduler refused new work; the request was rejected.

    ``saturated`` separates the two refusal modes so the HTTP layer can
    speak the right status code: ``True`` means the bounded queue is full
    (a *load* problem — clients should slow down and retry, ``429``),
    ``False`` means the scheduler is draining or shut down (an *outage*
    from the client's perspective — fail over, ``503``).
    """

    def __init__(
        self,
        message: str,
        *,
        pending: int | None = None,
        saturated: bool = True,
    ) -> None:
        super().__init__(message)
        self.pending = pending
        self.saturated = saturated


class RebalanceError(ServiceError):
    """A live shard-rebalance operation failed or was rejected.

    Carries the migration ``phase`` (when known) so operators and the
    rebalance manifest can tell *where* the state machine stopped.
    """

    def __init__(self, message: str, *, phase: str | None = None) -> None:
        super().__init__(message)
        self.phase = phase


class WalError(ServiceError):
    """The write-ahead log could not be appended to or recovered."""


class ShardUnavailableError(ServiceError):
    """A shard worker could not be reached (dead, restarting, or hung).

    Transient by design — the supervisor restarts crashed shards — so the
    router's retry policy treats it as retryable, and after retries it
    maps to a bounded 503 + ``Retry-After`` for that shard's owners.
    """

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class WorkerCrashError(ServiceError):
    """A worker process died before finishing its study job."""


class WorkerIntegrityError(ServiceError):
    """A worker's result failed its digest check in the parent."""


class SerializationError(ReproError):
    """An object could not be serialized or deserialized."""


class CheckpointError(SerializationError):
    """A checkpoint file is missing required state or is malformed."""
