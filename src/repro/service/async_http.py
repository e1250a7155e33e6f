"""The asyncio JSON HTTP server over the risk engine.

:class:`AsyncRiskServer` is the single-node front-end ``repro-study
serve`` runs (the endpoint catalogue is in :mod:`repro.service.http`,
which also holds the request parsing it shares with the shard router).
One event loop serves every connection, with HTTP/1.1 keep-alive:

* **bounded admission** — every work-bearing request (``/score``,
  ``/score-batch``, ``/mutate``) first claims a slot in a fixed-size
  :class:`AdmissionQueue`.  A full queue sheds the request explicitly
  with *429 + Retry-After* instead of growing an unbounded accept
  backlog; ``/metrics`` reports depth, peak, and shed counts.
* **request coalescing** — ``/score`` goes through
  :meth:`~repro.service.scheduler.ScoreScheduler.submit_coalesced`:
  concurrent hits for the same ``(owner, measure, version)`` share one
  engine call and the result fans out to every waiter.  Coalesced
  futures are awaited behind :func:`asyncio.shield` so one waiter's
  deadline cannot cancel work its neighbors still need.
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
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _STATUS_REASONS
from typing import Any
from urllib.parse import parse_qs, urlparse

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
    _INVALID_MEASURE,
    MUTATION_ERRORS,
    RequestParsingMixin,
    ServiceState,
    mutation_failure,
    parse_content_length,
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


class AdmissionQueue:
    """Fixed-capacity admission gate for work-bearing requests.

    Touched only from the event-loop thread, so plain integers suffice.
    ``try_enter`` claims a slot (or refuses — the caller sheds with 429),
    ``leave`` releases it when the request finishes, however it ends.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"admission capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.depth = 0
        self.peak = 0
        self.admitted = 0
        self.shed = 0

    def try_enter(self) -> bool:
        """Claim a slot; ``False`` means full (shed the request)."""
        if self.depth >= self.capacity:
            self.shed += 1
            return False
        self.depth += 1
        self.admitted += 1
        if self.depth > self.peak:
            self.peak = self.depth
        return True

    def leave(self) -> None:
        """Release a slot claimed by :meth:`try_enter`."""
        self.depth -= 1

    def snapshot(self) -> dict[str, int]:
        """JSON-ready counters for ``/metrics``."""
        return {
            "capacity": self.capacity,
            "depth": self.depth,
            "peak": self.peak,
            "admitted": self.admitted,
            "shed": self.shed,
        }


class _Request:
    """One parsed HTTP/1.1 request off an asyncio stream.

    ``body`` is ``None`` when the ``Content-Length`` header was
    malformed: the body was left unread and the request is answered 400.
    """

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        version: str,
        headers: dict[str, str],
        body: bytes | None,
    ) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def wants_close(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection != "keep-alive"
        return connection == "close"


class _RequestHandler(RequestParsingMixin):
    """Serves one request on behalf of an :class:`AsyncRiskServer`.

    The response is buffered into the stream writer synchronously
    (``_respond``), so the :class:`RequestParsingMixin` validation
    helpers can answer 400s inline; the connection loop drains the
    writer after :meth:`handle` returns.
    """

    def __init__(
        self,
        server: "AsyncRiskServer",
        request: _Request,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.request = request
        self.writer = writer
        self.close_connection = request.wants_close

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def handle(self) -> None:
        """Dispatch one request to its endpoint."""
        if self.request.body is None:
            self._reject_content_length(
                self.request.headers.get("content-length")
            )
        elif self.request.method == "GET":
            await self._do_get()
        elif self.request.method == "POST":
            await self._do_post()
        else:
            self._respond(
                501,
                {"error": f"unsupported method {self.request.method!r}"},
            )

    async def _do_get(self) -> None:
        parsed = urlparse(self.request.target)
        if parsed.path == "/healthz":
            self._respond(200, self._health_document())
        elif parsed.path == "/readyz":
            self._readyz()
        elif parsed.path == "/metrics":
            self._respond(200, self._metrics_document())
        elif parsed.path == "/owners":
            self._respond(
                200, {"owners": self.server.engine.owners_overview()}
            )
        elif parsed.path == "/measures":
            self._respond(200, {"measures": measure_catalog()})
        elif parsed.path == "/score":
            await self._gated(lambda: self._score_query(parsed.query))
        else:
            self._respond(404, {"error": f"unknown path {parsed.path!r}"})

    async def _do_post(self) -> None:
        path = urlparse(self.request.target).path
        if path == "/score":
            await self._gated(self._score_body)
        elif path == "/score-batch":
            await self._gated(self._score_batch)
        elif path == "/mutate":
            await self._gated(self._mutate)
        elif path == "/slice/export":
            await self._slice_export()
        elif path == "/slice/import":
            await self._slice_import()
        elif path == "/slice/detach":
            await self._slice_detach()
        elif path == "/slice/digest":
            await self._slice_digest()
        else:
            self._respond(404, {"error": f"unknown path {path!r}"})

    # ------------------------------------------------------------------
    # admission / lifecycle gates
    # ------------------------------------------------------------------
    async def _gated(self, work) -> None:
        """Run work-bearing ``work()`` behind the drain and admission
        gates, releasing its admission slot however it ends."""
        if self._reject_while_draining() or not self._admit():
            return
        try:
            await work()
        finally:
            self.server.admission.leave()

    def _admit(self) -> bool:
        """Claim an admission slot, shedding with 429 when full."""
        admission = self.server.admission
        if admission.try_enter():
            return True
        self._respond(
            429,
            {
                "error": (
                    f"admission queue full: {admission.depth} requests "
                    f"in flight (bound {admission.capacity})"
                ),
                "pending": admission.depth,
            },
            retry_after=1,
        )
        return False

    def _reject_while_draining(self) -> bool:
        """503 work-bearing requests during drain; health stays live."""
        if self.server.state.draining:
            self._respond(
                503,
                {
                    "error": "service is draining",
                    "pending": self.server.scheduler.pending_count(),
                },
                retry_after=1,
            )
            return True
        return False

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
            "pending": self.server.scheduler.pending_count(),
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
        if self.server.refresher is not None:
            document["refresh"] = self.server.refresher.snapshot()
        return document

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    async def _score_query(self, query: str) -> None:
        """``GET /score?owner=<id>[&measure=<name>]``."""
        values = parse_qs(query)
        owner_id = self._owner_from_query(values)
        if owner_id is None:
            return
        measure = self._measure_from_values(values.get("measure"))
        if measure is not _INVALID_MEASURE:
            await self._score(owner_id, measure)

    async def _score_body(self) -> None:
        """``POST /score`` with ``{"owner": <id>, "measure": <name>}``."""
        body = self._json_body()
        if body is None:
            return
        owner_id = self._owner_from_body(body)
        if owner_id is None:
            return
        measure = self._measure_from_body(body)
        if measure is not _INVALID_MEASURE:
            await self._score(owner_id, measure)

    async def _score(self, owner_id: int, measure: str | None = None) -> None:
        breaker = self.server.breaker
        try:
            breaker.before_call()
        except Exception as error:
            self._respond(503, {"error": str(error)}, retry_after=1)
            return
        deadline = Deadline(self.server.request_timeout)
        try:
            future, coalesced = self.server.scheduler.submit_coalesced(
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
        self._respond(200, record.to_dict())

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

    async def _score_batch(self) -> None:
        """Score many owners, streaming one NDJSON line per owner.

        Every owner is submitted to the scheduler up front (so distinct
        owners score concurrently) and results are streamed back in request
        order as each future resolves.  A per-owner failure (unknown
        owner, backpressure, scoring error) becomes an ``error`` line;
        the stream itself only fails on circuit-open or a bad body.
        """
        body = self._json_body()
        if body is None:
            return
        owners = self._owners_from_body(body)
        if owners is None:
            return
        measure = self._measure_from_body(body)
        if measure is _INVALID_MEASURE:
            return
        breaker = self.server.breaker
        try:
            breaker.before_call()
        except Exception as error:
            self._respond(503, {"error": str(error)}, retry_after=1)
            return
        deadline = Deadline(self.server.request_timeout)
        submissions: list[tuple[int, Any, bool]] = []
        for owner_id in owners:
            try:
                future, coalesced = self.server.scheduler.submit_coalesced(
                    owner_id, measure=measure
                )
                submissions.append((owner_id, future, coalesced))
            except BackpressureError as error:
                submissions.append((owner_id, error, False))
        # NDJSON stream: no Content-Length is possible, so the
        # connection closes when the batch ends.
        self.writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        self.close_connection = True
        failed = False
        for owner_id, pending, coalesced in submissions:
            line: dict[str, Any]
            if isinstance(pending, BackpressureError):
                line = {
                    "owner": owner_id,
                    "error": str(pending),
                    "status": 429 if pending.saturated else 503,
                }
                failed = True
            else:
                try:
                    record = await self._await_score(
                        pending, coalesced, deadline
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
                    line = record.to_dict()
            self.writer.write(json.dumps(line).encode("utf-8") + b"\n")
            await self.writer.drain()
        if failed:
            breaker.record_failure()
        else:
            breaker.record_success()

    # ------------------------------------------------------------------
    # mutations (blocking WAL work runs off-loop, on the mutate pool)
    # ------------------------------------------------------------------
    async def _mutate(self) -> None:
        body = self._json_body()
        if body is None:
            return
        op = self._mutation_op(body)
        if op is None:
            return
        store = self.server.engine.store
        try:
            result = await self._run_blocking(mutate_store, store, op, body)
        except MUTATION_ERRORS as error:
            self._respond(*mutation_failure(op, error))
        else:
            self._respond(200, result)

    async def _run_blocking(self, fn, *args):
        """Run blocking store work on the mutate pool.

        Keeping fsyncs (and the group-commit barrier wait) off the
        event loop is what lets concurrent mutations actually overlap —
        the pile-up inside ``wait_durable`` is the group being
        committed.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.server.mutate_pool, lambda: fn(*args)
        )

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
                lambda: import_slice(
                    self.server.engine.store,
                    document,
                    adopt_graph=bool(body.get("adopt_graph")),
                )
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

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request_body(self) -> bytes | None:
        return self.request.body

    def _respond(
        self,
        status: int,
        document: dict[str, Any],
        retry_after: int | None = None,
    ) -> None:
        payload = json.dumps(document).encode("utf-8")
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        if self.close_connection:
            head.append("Connection: close")
        self.writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload
        )


class AsyncRiskServer:
    """Asyncio HTTP server bound to one engine and scheduler.

    Driven like a ``socketserver`` server: :meth:`serve_forever` blocks
    (run it on a thread), :attr:`url` waits for the listener to bind,
    :meth:`shutdown` stops the loop from any thread, and
    :meth:`server_close` releases the mutate pool.
    """

    def __init__(
        self,
        address: tuple[str, int],
        engine: RiskEngine,
        scheduler: ScoreScheduler,
        request_timeout: float = 60.0,
        breaker: CircuitBreaker | None = None,
        state: ServiceState | None = None,
        refresher=None,
        admission_capacity: int = 256,
    ) -> None:
        self._host, self._port = address
        self.engine = engine
        self.scheduler = scheduler
        self.request_timeout = request_timeout
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, recovery_time=5.0
        )
        self.state = state or ServiceState()
        self.refresher = refresher
        self.admission = AdmissionQueue(admission_capacity)
        self.mutate_pool = ThreadPoolExecutor(
            max_workers=_MUTATE_POOL_SIZE, thread_name_prefix="wal-commit"
        )
        self._bound = threading.Event()
        self._stopped = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._shutdown_requested = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The server's base URL; blocks briefly until the port binds."""
        if not self._bound.wait(timeout=10):
            raise RuntimeError("async server never bound its listener")
        return f"http://{self._host}:{self._port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown`; call on a thread."""
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()
            self._bound.set()  # unblock url() waiters even on bind failure

    def shutdown(self) -> None:
        """Stop the loop from any thread; waits for it to exit."""
        self._shutdown_requested = True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if not self._stopped.is_set() and self._loop is not None:
            self._stopped.wait(timeout=5)

    def server_close(self) -> None:
        """Release the mutate pool (after :meth:`shutdown`)."""
        self.mutate_pool.shutdown(wait=False)

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._shutdown_requested:  # shut down before the loop started
            return
        server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        self._port = server.sockets[0].getsockname()[1]
        self._bound.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                handler = _RequestHandler(self, request, writer)
                await handler.handle()
                await writer.drain()
                if handler.close_connection:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> _Request | None:
        """Parse one request off the stream; ``None`` ends the connection."""
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            writer.write(
                b"HTTP/1.1 400 Bad Request\r\n"
                b"Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = parse_content_length(headers.get("content-length"))
        if length is None:  # body extent unknown: answered 400 + close
            body = None
        else:
            body = await reader.readexactly(length) if length else b""
        return _Request(method, target, version, headers, body)


def build_server(
    engine: RiskEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
    max_pending: int = 64,
    request_timeout: float = 60.0,
    breaker: CircuitBreaker | None = None,
    state: ServiceState | None = None,
    background_refresh: bool = False,
    admission_capacity: int = 256,
) -> AsyncRiskServer:
    """Wire engine → scheduler → HTTP server (port 0 = ephemeral).

    ``admission_capacity`` bounds concurrently admitted work-bearing
    requests (beyond it, 429 + ``Retry-After``).
    ``background_refresh=True`` additionally attaches a
    :class:`~repro.service.refresh.RefreshScheduler` to the engine's
    store, so mutations enqueue their invalidated owners for ahead-of-
    demand rescoring in idle scheduler slots.
    """
    scheduler = ScoreScheduler(
        engine, max_workers=max_workers, max_pending=max_pending
    )
    refresher = None
    if background_refresh:
        from .refresh import RefreshScheduler

        refresher = RefreshScheduler(scheduler).attach(engine.store)
    return AsyncRiskServer(
        (host, port),
        engine,
        scheduler,
        request_timeout=request_timeout,
        breaker=breaker,
        state=state,
        refresher=refresher,
        admission_capacity=admission_capacity,
    )


__all__ = [
    "AdmissionQueue",
    "AsyncRiskServer",
    "build_server",
]
