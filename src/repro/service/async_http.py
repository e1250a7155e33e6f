"""The risk endpoints, served on the shared asyncio HTTP core.

:class:`AsyncRiskServer` is the single-node front-end ``repro-study
serve`` runs (the endpoint catalogue is in :mod:`repro.service.http`,
which also holds the listener, connection loop, request reader, and
admission gate it shares with the shard router).  On top of that core:

* **bounded admission** — every work-bearing request (``/score``,
  ``/score-batch``, ``/mutate``) first claims a slot in a fixed-size
  :class:`~repro.service.http.AdmissionQueue`.  A full queue sheds the
  request explicitly with *429 + Retry-After* instead of growing an
  unbounded accept backlog; ``/metrics`` reports depth, peak, and shed
  counts.
* **request coalescing** — ``/score`` and ``/score-batch`` go through
  :meth:`~repro.service.scheduler.ScoreScheduler.serve_or_submit`:
  concurrent hits for the same ``(owner, measure, version)`` share one
  engine call and the result fans out to every waiter, and with no
  flight to join a fresh memo is answered right on the event loop.
  Coalesced futures are awaited behind :func:`asyncio.shield` so one
  waiter's deadline cannot cancel work its neighbors still need.
* **group-committed WAL** — mutations run on a small thread pool (the
  event loop must never block on an fsync) and, under the default
  ``--wal-fsync group``, concurrent mutations pile into one
  :meth:`~repro.service.wal.WriteAheadLog.wait_durable` barrier: one
  fsync per batch, each request acked only after its batch is durable.

Requests flow through the resilience layer: each ``/score`` carries a
:class:`~repro.resilience.Deadline` (504 when the budget runs out) and a
shared :class:`~repro.resilience.CircuitBreaker` (503 fast-fail while
scoring is known to be broken).  While the server drains
(SIGTERM/SIGINT), ``/score`` and ``/mutate`` answer 503 so load
balancers fail over, while the health/metrics endpoints keep reporting
drain progress.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..errors import (
    BackpressureError,
    RebalanceError,
    SerializationError,
    UnknownMeasureError,
    UnknownOwnerError,
    WalError,
)
from ..measures import measure_catalog
from ..resilience import CircuitBreaker, Deadline
from .engine import RiskEngine
from .http import (
    MUTATION_ERRORS,
    HttpServerCore,
    RequestHandler,
    ServiceState,
    SplitResult,
    mutation_failure,
)
from .scheduler import ScoreScheduler
from .wal import (
    DurableOwnerStore,
    detach_slice,
    export_slice,
    import_slice,
    mutate_store,
    state_digest,
)

#: Threads for blocking store work (mutations, slice ops).  Sized well
#: above typical mutation concurrency so simultaneous requests block in
#: :meth:`~repro.service.wal.WriteAheadLog.wait_durable` together —
#: that pile-up is what a group commit amortizes into one fsync.
_MUTATE_POOL_SIZE = 32

#: The scoring breaker opens after this many consecutive failures ...
BREAKER_FAILURE_THRESHOLD = 5
#: ... and lets a trial call through after this many seconds.
BREAKER_RECOVERY_TIME = 5.0


class _RiskHandler(RequestHandler):
    """Serves one request on behalf of an :class:`AsyncRiskServer`."""

    server: "AsyncRiskServer"

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _do_get(self, url: SplitResult) -> None:
        if url.path == "/healthz":
            self._respond(200, self._health_document())
        elif url.path == "/readyz":
            self._readyz()
        elif url.path == "/metrics":
            self._respond(200, self._metrics_document())
        elif url.path == "/owners":
            self._respond(
                200, {"owners": self.server.engine.owners_overview()}
            )
        elif url.path == "/measures":
            self._respond(200, {"measures": measure_catalog()})
        elif url.path == "/score":
            await self._gated(lambda: self._score_query(url.query))
        else:
            self._respond(404, {"error": f"unknown path {url.path!r}"})

    async def _do_post(self, url: SplitResult) -> None:
        if url.path == "/score":
            await self._gated(self._score_body)
        elif url.path == "/score-batch":
            await self._gated(self._score_batch_body)
        elif url.path == "/mutate":
            await self._gated(self._mutate_body)
        elif url.path == "/slice/export":
            await self._slice_export()
        elif url.path == "/slice/import":
            await self._slice_import()
        elif url.path == "/slice/detach":
            await self._slice_detach()
        elif url.path == "/slice/digest":
            await self._slice_digest()
        else:
            self._respond(404, {"error": f"unknown path {url.path!r}"})

    def _draining_document(self) -> dict[str, Any]:
        return {
            "error": "service is draining",
            "pending": self.server.scheduler.pending,
        }

    # ------------------------------------------------------------------
    # read endpoints
    # ------------------------------------------------------------------
    def _health_document(self) -> dict[str, Any]:
        store = self.server.engine.store
        document: dict[str, Any] = {
            "status": "ok",
            "owners": len(store.owner_ids()),
            "breaker": self.server.breaker.state,
            "draining": self.server.state.draining,
        }
        if isinstance(store, DurableOwnerStore):
            document["recovery"] = store.recovery.to_dict()
            document["last_seq"] = store.last_seq
        return document

    def _readyz(self) -> None:
        state = self.server.state
        accepting = self.server.scheduler.accepting
        ready = state.ready and not state.draining and accepting
        document = {
            "ready": ready,
            "detail": state.detail,
            "draining": state.draining,
            "scheduler_accepting": accepting,
            "pending": self.server.scheduler.pending,
        }
        self._respond(200 if ready else 503, document)

    def _metrics_document(self) -> dict[str, Any]:
        document = {
            "engine": self.server.engine.metrics.snapshot(),
            "scheduler": self.server.scheduler.snapshot(),
            "breaker": self.server.breaker.snapshot(),
            "admission": self.server.admission.snapshot(),
        }
        store = self.server.engine.store
        if isinstance(store, DurableOwnerStore):
            document["wal"] = store.wal.stats()
        return document

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    async def _score(self, owner_id: int, measure: str | None = None) -> None:
        breaker = self.server.breaker
        try:
            breaker.before_call()
        except Exception as error:
            self._respond(503, {"error": str(error)}, retry_after=1)
            return
        deadline = Deadline(self.server.request_timeout)
        try:
            record, future, coalesced = self.server.scheduler.serve_or_submit(
                owner_id, measure=measure
            )
        except BackpressureError as error:
            breaker.record_failure()
            # saturation asks the client to slow down (429); a draining
            # or shut-down scheduler is an outage to fail over from (503)
            self._respond(
                429 if error.saturated else 503,
                {"error": str(error), "pending": error.pending},
                retry_after=1,
            )
            return
        try:
            if record is None:
                record = await self._await_score(future, coalesced, deadline)
        except (asyncio.TimeoutError, TimeoutError):
            breaker.record_failure()
            self._respond(504, {"error": self._budget_error(owner_id)})
            return
        except UnknownOwnerError as error:
            breaker.record_success()  # the service itself is healthy
            self._respond(404, {"error": str(error)})
            return
        except UnknownMeasureError as error:
            breaker.record_success()  # client error, not a service fault
            self._respond(
                400,
                {"error": str(error), "measures": list(error.available)},
            )
            return
        except Exception as error:
            breaker.record_failure()
            self._respond(500, {"error": str(error)})
            return
        breaker.record_success()
        self._relay(200, record.to_json())

    @staticmethod
    async def _await_score(future, coalesced: bool, deadline: Deadline):
        """Await a scheduler future within ``deadline``.

        A coalesced future is shared with other waiters, so it is awaited
        behind :func:`asyncio.shield` and never cancelled on timeout; its
        exception is retrieved on completion so an abandoned wait never
        logs "exception was never retrieved".
        """
        wrapped = asyncio.wrap_future(future)
        wrapped.add_done_callback(
            lambda done: done.cancelled() or done.exception()
        )
        try:
            return await asyncio.wait_for(
                asyncio.shield(wrapped), deadline.remaining()
            )
        except (asyncio.TimeoutError, TimeoutError):
            if not coalesced:
                future.cancel()
            raise

    def _budget_error(self, owner_id: int) -> str:
        return (
            f"scoring owner {owner_id} exceeded the "
            f"{self.server.request_timeout:.1f}s budget"
        )

    async def _score_batch(
        self, owners: list[int], measure: str | None
    ) -> None:
        """Score many owners, streaming one NDJSON line per owner.

        Every owner goes through the scheduler's ``serve_or_submit`` up
        front, as on ``/score``: a fresh memo is streamed as is, and the
        misses are submitted together (so distinct owners score
        concurrently) and streamed back in request order as each future
        resolves.  A per-owner failure (unknown owner, backpressure,
        scoring error) becomes an ``error`` line; the stream itself only
        fails on circuit-open or a bad body.
        """
        breaker = self.server.breaker
        try:
            breaker.before_call()
        except Exception as error:
            self._respond(503, {"error": str(error)}, retry_after=1)
            return
        deadline = Deadline(self.server.request_timeout)
        submissions: list[tuple[int, Any]] = []
        for owner_id in owners:
            try:
                outcome = self.server.scheduler.serve_or_submit(
                    owner_id, measure=measure
                )
            except BackpressureError as error:
                outcome = error
            submissions.append((owner_id, outcome))
        self._start_stream()
        failed = False
        for owner_id, outcome in submissions:
            line: dict[str, Any] | bytes
            if isinstance(outcome, BackpressureError):
                line = {
                    "owner": owner_id,
                    "error": str(outcome),
                    "status": 429 if outcome.saturated else 503,
                }
                failed = True
            else:
                record, future, coalesced = outcome
                try:
                    if record is None:
                        record = await self._await_score(
                            future, coalesced, deadline
                        )
                except (asyncio.TimeoutError, TimeoutError):
                    line = {
                        "owner": owner_id,
                        "error": self._budget_error(owner_id),
                        "status": 504,
                    }
                    failed = True
                except UnknownOwnerError as error:
                    line = {
                        "owner": owner_id,
                        "error": str(error),
                        "status": 404,
                    }
                except Exception as error:
                    line = {
                        "owner": owner_id,
                        "error": str(error),
                        "status": 500,
                    }
                    failed = True
                else:
                    line = record.to_json() + b"\n"
            await self._stream_line(line)
        if failed:
            breaker.record_failure()
        else:
            breaker.record_success()

    # ------------------------------------------------------------------
    # mutations (blocking WAL work runs off-loop, on the server's pool:
    # keeping fsyncs and the group-commit barrier wait off the event
    # loop is what lets concurrent mutations overlap — the pile-up
    # inside ``wait_durable`` is the group being committed)
    # ------------------------------------------------------------------
    async def _run_blocking(self, fn, *args, **kwargs):
        """Run a blocking store call on the server's pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self.server.pool, functools.partial(fn, *args, **kwargs)
        )

    async def _mutate(self, op: str, body: dict[str, Any]) -> None:
        store = self.server.engine.store
        try:
            result = await self._run_blocking(mutate_store, store, op, body)
        except MUTATION_ERRORS as error:
            self._respond(*mutation_failure(op, error))
        else:
            self._respond(200, result)

    # ------------------------------------------------------------------
    # migration handoff (driven by the router's rebalance coordinator)
    # ------------------------------------------------------------------
    def _slice_owners(self) -> list[int] | None:
        """The ``{"owners": [...]}`` body of a slice request."""
        body = self._json_body()
        if body is None:
            return None
        return self._owners_from_body(body, allow_empty=True)

    async def _slice_export(self) -> None:
        owners = self._slice_owners()
        if owners is None:
            return
        try:
            document = await self._run_blocking(
                export_slice, self.server.engine.store, owners
            )
        except UnknownOwnerError as error:
            self._respond(404, {"error": str(error)})
            return
        self._respond(200, document)

    async def _slice_import(self) -> None:
        body = self._json_body()
        if body is None:
            return
        document = body.get("slice")
        if not isinstance(document, dict):
            self._respond(
                400, {"error": 'body must be JSON like {"slice": {...}}'}
            )
            return
        try:
            result = await self._run_blocking(
                import_slice,
                self.server.engine.store,
                document,
                adopt_graph=bool(body.get("adopt_graph")),
            )
        except RebalanceError as error:
            # digest mismatch or unsupported slice: the migration must
            # abort, not silently import divergent state
            self._respond(409, {"error": str(error), "phase": error.phase})
            return
        except WalError as error:
            self._respond(500, {"error": str(error)})
            return
        except (KeyError, TypeError, ValueError, SerializationError) as error:
            self._respond(400, {"error": f"malformed slice: {error}"})
            return
        self._respond(200, result)

    async def _slice_detach(self) -> None:
        owners = self._slice_owners()
        if owners is None:
            return
        try:
            result = await self._run_blocking(
                detach_slice, self.server.engine.store, owners
            )
        except WalError as error:
            self._respond(500, {"error": str(error)})
            return
        # drop stale memoized scores so detached owners stop pinning
        # their graphs in this shard's cache
        self.server.engine.invalidate_many(owners)
        self._respond(200, result)

    async def _slice_digest(self) -> None:
        owners = self._slice_owners()
        if owners is None:
            return
        self._respond(
            200,
            await self._run_blocking(
                state_digest, self.server.engine.store, owners
            ),
        )


class AsyncRiskServer(HttpServerCore):
    """The risk endpoints bound to one engine and scheduler.

    Lifecycle (bind in the constructor, :meth:`serve_forever` on a
    thread, :meth:`shutdown`, :meth:`server_close`) comes from
    :class:`~repro.service.http.HttpServerCore`; the server adds the
    pool that runs blocking store work (mutations, slice ops), released
    by :meth:`server_close`.
    """

    handler_class = _RiskHandler

    def __init__(
        self,
        address: tuple[str, int],
        engine: RiskEngine,
        scheduler: ScoreScheduler,
        request_timeout: float = 60.0,
        state: ServiceState | None = None,
        admission_capacity: int = 256,
    ) -> None:
        super().__init__(
            address,
            request_timeout=request_timeout,
            state=state,
            admission_capacity=admission_capacity,
        )
        self.pool = ThreadPoolExecutor(
            max_workers=_MUTATE_POOL_SIZE, thread_name_prefix="wal-commit"
        )
        self.engine = engine
        self.scheduler = scheduler
        self.breaker = CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            recovery_time=BREAKER_RECOVERY_TIME,
        )

    def server_close(self) -> None:
        """Release the listening socket and the pool."""
        super().server_close()
        self.pool.shutdown(wait=False)


def build_server(
    engine: RiskEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
    max_pending: int = 64,
    request_timeout: float = 60.0,
    state: ServiceState | None = None,
    admission_capacity: int = 256,
) -> AsyncRiskServer:
    """Wire engine → scheduler → HTTP server (port 0 = ephemeral).

    ``admission_capacity`` bounds concurrently admitted work-bearing
    requests (beyond it, 429 + ``Retry-After``).
    """
    scheduler = ScoreScheduler(
        engine, max_workers=max_workers, max_pending=max_pending
    )
    return AsyncRiskServer(
        (host, port),
        engine,
        scheduler,
        request_timeout=request_timeout,
        state=state,
        admission_capacity=admission_capacity,
    )


__all__ = [
    "AsyncRiskServer",
    "build_server",
]
