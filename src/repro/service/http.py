"""The HTTP core shared by the risk server and the shard router.

The single-node server (:mod:`repro.service.async_http`) exposes

* ``GET /healthz`` — liveness plus owner count (and, when the store is
  WAL-backed, the recovery report and last durable sequence number);
* ``GET /readyz`` — readiness: snapshot loaded, WAL replayed, scheduler
  accepting work; 503 while starting or draining;
* ``GET /metrics`` — engine cache/latency counters, scheduler state,
  circuit-breaker state, admission counters, and WAL append/fsync
  counters;
* ``GET /owners`` — registered owners with versions and cache freshness;
* ``GET /measures`` — the registered risk measures (name, description,
  default flag) served straight from :mod:`repro.measures`;
* ``GET /score?owner=<id>[&measure=<name>]`` / ``POST /score``
  (``{"owner": <id>, "measure": <name>}``) — one owner's risk score
  under the named measure (default ``stranger``), served cold, warm, or
  from cache; an unknown measure is a 400 listing the registry;
* ``POST /score-batch`` (``{"owners": [<id>, ...], "measure": <name>}``)
  — many owners in one request, streamed back as NDJSON (one JSON
  object per line, in request order) as each score completes; per-owner
  failures become error lines instead of failing the whole batch;
* ``POST /mutate`` — one store mutation (``add_friendship``,
  ``remove_friendship``, ``update_profile``, ``add_user``,
  ``grant_labels``, ``touch``); a 200 means the mutation is applied
  *and*, on a WAL-backed store, durable — acknowledged-then-lost cannot
  happen;
* ``POST /slice/export|import|detach|digest`` — the shard-side handoff
  surface for live rebalancing, driven by the router's rebalance
  coordinator, not by clients.

The router (:mod:`repro.service.router`) speaks the same conventions in
front of the shard workers.  Both run on the one asyncio core in this
module: :class:`HttpServerCore` owns the listener (bound in the
constructor, backlog ``socket.SOMAXCONN``), the keep-alive connection
loop, the request reader and an :class:`AdmissionQueue`;
:class:`RequestHandler` is the base both handlers extend, holding the
response writer, the drain and admission gates, and request parsing
(``Content-Length``, ``?owner=``, the JSON body, ``{"owner": …}``,
``{"owners": […]}``, ``measure``, ``op``).  The
``/mutate`` exception-to-status table (:func:`mutation_failure`) lives
here too.

Backpressure and outage speak different status codes: saturation is
429 + ``Retry-After`` (the client should slow down), while drain or
shutdown is 503 (the client should fail over).  A request line longer
than 64 KiB is a 414; a longer header line, or more than 100 headers, a
431 — each answered with ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from dataclasses import dataclass
from http.client import responses as _STATUS_REASONS
from typing import Any, NamedTuple
from urllib.parse import SplitResult, parse_qs, urlsplit

from ..errors import (
    GraphError,
    SerializationError,
    UnknownOwnerError,
    UnknownUserError,
    WalError,
)
from ..measures import available_measures
from .wal import MUTATION_OPS

# Sentinel distinguishing "measure was invalid (response already sent)"
# from "no measure requested" (None → the engine default).
_INVALID_MEASURE = object()

#: Longest request, status or header line accepted, and most headers
#: per message — the limits ``http.client`` and ``http.server`` apply.
MAX_LINE = 65536
_MAX_HEADERS = 100

#: Everything a store mutation may raise that maps to a status code
#: (see :func:`mutation_failure`); anything else is a server fault.
MUTATION_ERRORS = (
    UnknownUserError,
    UnknownOwnerError,
    GraphError,
    SerializationError,
    KeyError,
    TypeError,
    ValueError,
    WalError,
)


@dataclass
class ServiceState:
    """Mutable lifecycle flags shared by the server and its operator.

    ``ready`` flips true once the store is loaded (snapshot restored and
    WAL replayed, for durable stores) and the service may take traffic;
    ``draining`` flips true on SIGTERM/SIGINT and never flips back.
    Plain attribute reads/writes — each flag is a single word, and the
    readers tolerate staleness of one request.
    """

    ready: bool = True
    draining: bool = False
    detail: str = "ok"


def parse_content_length(value: str | None) -> int | None:
    """The body size a ``Content-Length`` header announces.

    An absent or empty header means no body (0).  Anything but a plain
    non-negative decimal integer returns ``None``: the body's extent is
    then unknown, so the caller must answer 400 and close the connection
    rather than guess where the next request starts.
    """
    if value is None:
        return 0
    value = value.strip()
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        return None
    return int(value)


def mutation_failure(op: str, error: Exception) -> tuple[int, dict[str, Any]]:
    """The ``(status, document)`` answering a failed ``/mutate``.

    ``error`` must be one of :data:`MUTATION_ERRORS`.  A 404 or 400
    means decoding the body or validating the op failed (on a durable
    store, the op's check in :data:`~repro.service.wal.MUTATIONS`), so
    nothing was logged or applied.  A :class:`~repro.errors.WalError` is a 500 and the
    mutation is *not* acknowledged: either the append failed before the
    mutation applied, or (under ``"group"``) the fsync barrier failed
    after it applied in memory, poisoning the log until a restart
    recovers from disk.  Either way the client must not treat it as
    durable.
    """
    if isinstance(error, (UnknownUserError, UnknownOwnerError)):
        return 404, {"error": str(error)}
    if isinstance(error, (GraphError, SerializationError)):
        return 400, {"error": str(error)}
    if isinstance(error, WalError):
        return 500, {"error": str(error)}
    return 400, {"error": f"malformed arguments for {op!r}: {error}"}


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


def _encode_response(
    status: int,
    payload: bytes,
    retry_after: int | None = None,
    close: bool = False,
) -> bytes:
    """One complete response, head and JSON ``payload``, as bytes."""
    head = [
        f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
    ]
    if retry_after is not None:
        head.append(f"Retry-After: {retry_after}")
    if close:
        head.append("Connection: close")
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload


class _Rejected(ValueError):
    """The reader refused a message: a request before any handler saw
    it, or a shard's response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request(NamedTuple):
    """One parsed HTTP/1.1 request off an asyncio stream.

    ``body`` is ``None`` when the ``Content-Length`` header was
    malformed: the body was left unread and the request is answered 400.
    """

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes | None

    @property
    def wants_close(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection != "keep-alive"
        return connection == "close"


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """The headers after a request or status line, by lower-cased name;
    :class:`_Rejected` (431) past the line or header-count limit."""
    headers: dict[str, str] = {}
    try:  # a ValueError is a line longer than the stream's limit
        for _ in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:
        raise _Rejected(431, "header line too long") from None
    raise _Rejected(431, f"more than {_MAX_HEADERS} headers")


async def read_line(reader: asyncio.StreamReader) -> bytes:
    """One line with its newline, however long (``readline`` refuses a
    line past the stream's limit); a line cut off by end-of-file comes
    back without one."""
    line = b""
    while True:
        try:
            return line + await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as error:
            line += await reader.readexactly(error.consumed)
        except asyncio.IncompleteReadError as error:
            return line + error.partial


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one request off the stream; ``None`` is a clean end.

    Raises :class:`_Rejected` for a request the connection loop answers
    itself (and then closes): a malformed or over-long request line, or
    over-long or too many headers.
    """
    try:  # a ValueError is a line longer than the stream's limit
        request_line = await reader.readline()
    except ValueError:
        raise _Rejected(414, "request line too long") from None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _Rejected(400, "malformed request line")
    method, target, version = parts
    headers = await read_headers(reader)
    length = parse_content_length(headers.get("content-length"))
    if length is None:  # body extent unknown: answered 400 + close
        body = None
    else:
        body = await reader.readexactly(length) if length else b""
    return _Request(method, target, version, headers, body)


class RequestHandler:
    """Serves one request; the risk server and the router extend it.

    Subclasses route with ``_do_get(url)`` / ``_do_post(url)`` and serve
    the parsed work with ``_score(owner_id, measure)``,
    ``_score_batch(owners, measure)`` and ``_mutate(op, body)``.
    Responses are buffered into the stream writer synchronously
    (:meth:`_respond`), so the validation helpers answer 400s inline —
    each returns the parsed value, or ``None`` (:data:`_INVALID_MEASURE`
    for measures) after it has sent the 400; the connection loop drains
    the writer after :meth:`handle`.
    """

    def __init__(
        self,
        server: "HttpServerCore",
        request: _Request,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.request = request
        self.writer = writer
        self.close_connection = request.wants_close

    async def handle(self) -> None:
        """Dispatch one request to its endpoint."""
        request = self.request
        if request.body is None:
            self._reject_content_length(request.headers.get("content-length"))
        elif request.method == "GET":
            await self._do_get(urlsplit(request.target))
        elif request.method == "POST":
            await self._do_post(urlsplit(request.target))
        else:
            self._respond(
                501, {"error": f"unsupported method {request.method!r}"}
            )

    # ------------------------------------------------------------------
    # drain and admission gates
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

    def _draining_document(self) -> dict[str, Any]:
        return {"error": "service is draining"}

    def _reject_while_draining(self) -> bool:
        """503 work-bearing requests during drain; health stays live."""
        if self.server.state.draining:
            self._respond(503, self._draining_document(), retry_after=1)
            return True
        return False

    # ------------------------------------------------------------------
    # scoring requests
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

    async def _score_batch_body(self) -> None:
        """``POST /score-batch`` with ``{"owners": [...], "measure": …}``."""
        body = self._json_body()
        if body is None:
            return
        owners = self._owners_from_body(body)
        if owners is None:
            return
        measure = self._measure_from_body(body)
        if measure is not _INVALID_MEASURE:
            await self._score_batch(owners, measure)

    async def _mutate_body(self) -> None:
        """``POST /mutate`` with ``{"op": <mutation>, ...}``."""
        body = self._json_body()
        if body is None:
            return
        op = self._mutation_op(body)
        if op is not None:
            await self._mutate(op, body)

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _respond(
        self,
        status: int,
        document: dict[str, Any],
        retry_after: int | None = None,
    ) -> None:
        self._relay(status, json.dumps(document).encode("utf-8"), retry_after)

    def _relay(
        self, status: int, payload: bytes, retry_after: int | None = None
    ) -> None:
        """Answer with an already encoded JSON body."""
        self.writer.write(
            _encode_response(
                status, payload, retry_after, self.close_connection
            )
        )

    def _start_stream(self) -> None:
        """Send an NDJSON stream's head.  No ``Content-Length`` is
        possible, so the connection closes when the stream ends."""
        self.writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        self.close_connection = True

    async def _stream_line(self, line: dict[str, Any] | bytes) -> None:
        """Send one NDJSON line: a document, or one already encoded
        (newline included)."""
        if not isinstance(line, bytes):
            line = json.dumps(line).encode("utf-8") + b"\n"
        self.writer.write(line)
        await self.writer.drain()

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------
    def _reject_content_length(self, value: str | None) -> None:
        """400 + ``Connection: close`` for a malformed ``Content-Length``."""
        self.close_connection = True
        self._respond(400, {"error": f"invalid Content-Length {value!r}"})

    def _json_body(self) -> dict[str, Any] | None:
        try:
            body = json.loads(self.request.body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            body = None
        if not isinstance(body, dict):
            self._respond(400, {"error": "body must be a JSON object"})
            return None
        return body

    def _owner_from_query(self, query: dict[str, list[str]]) -> int | None:
        values = query.get("owner")
        if not values:
            self._respond(400, {"error": "missing ?owner=<id>"})
            return None
        try:
            return int(values[0])
        except ValueError:
            self._respond(400, {"error": f"invalid owner id {values[0]!r}"})
            return None

    def _owner_from_body(self, body: dict[str, Any]) -> int | None:
        if "owner" not in body:
            self._respond(
                400, {"error": 'body must be JSON like {"owner": <id>}'}
            )
            return None
        owner_id = body["owner"]
        try:
            return int(owner_id)
        except (ValueError, TypeError):
            self._respond(400, {"error": f"invalid owner id {owner_id!r}"})
            return None

    def _owners_from_body(
        self, body: dict[str, Any], allow_empty: bool = False
    ) -> list[int] | None:
        """The ``"owners"`` list of integer ids (non-empty by default)."""
        owners = body.get("owners")
        if (
            not isinstance(owners, list)
            or not (owners or allow_empty)
            or not all(
                isinstance(o, int) and not isinstance(o, bool) for o in owners
            )
        ):
            self._respond(
                400,
                {"error": 'body must be JSON like {"owners": [<id>, ...]}'},
            )
            return None
        return owners

    def _mutation_op(self, body: dict[str, Any]) -> str | None:
        """The body's ``"op"``, which must name a store mutation."""
        op = body.get("op")
        if op not in MUTATION_OPS:
            self._respond(
                400,
                {"error": f"unknown op {op!r}", "ops": list(MUTATION_OPS)},
            )
            return None
        return op

    def _measure_from_values(self, values: list[str] | None):
        """Validate an optional requested measure name.

        Returns the name (or ``None`` when absent, keeping the engine
        default).  An unregistered name answers 400 with the registry's
        menu and returns :data:`_INVALID_MEASURE`.
        """
        if not values:
            return None
        name = values[0]
        if name not in available_measures():
            self._respond(
                400,
                {
                    "error": (
                        f"unknown risk measure {name!r}; "
                        "see GET /measures"
                    ),
                    "measures": list(available_measures()),
                },
            )
            return _INVALID_MEASURE
        return name

    def _measure_from_body(self, body: dict[str, Any]):
        """The optional ``"measure"`` field of a JSON body, validated."""
        if "measure" not in body or body["measure"] is None:
            return None
        measure = body["measure"]
        if not isinstance(measure, str):
            self._respond(
                400,
                {
                    "error": f"invalid measure {measure!r}; expected a name",
                    "measures": list(available_measures()),
                },
            )
            return _INVALID_MEASURE
        return self._measure_from_values([measure])


def _listen(address: tuple[str, int]) -> socket.socket:
    """A bound, listening TCP socket (``OSError`` if the port is busy).

    ``IPPROTO_TCP`` is named because asyncio sets ``TCP_NODELAY`` only on
    sockets that say so (Nagle would hold bodies back ~40 ms).  A short
    backlog drops SYNs in a burst of connects, costing a 1 s retransmit.
    """
    sock = socket.socket(
        socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP
    )
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
        sock.listen(socket.SOMAXCONN)
    except OSError:
        sock.close()
        raise
    return sock


class HttpServerCore:
    """The asyncio listener both front doors run on.

    The constructor binds and listens (so a busy port raises
    ``OSError`` right there), and :meth:`server_close` releases the
    socket.  In between, :meth:`serve` serves on the running event loop
    until cancelled; or :meth:`serve_forever` blocks a thread on a loop
    of its own until :meth:`shutdown` from another thread.  Every
    connection is served by one event loop with HTTP/1.1 keep-alive;
    each request gets a fresh :attr:`handler_class`.
    """

    handler_class: type[RequestHandler] = RequestHandler

    def __init__(
        self,
        address: tuple[str, int],
        *,
        request_timeout: float,
        state: ServiceState | None,
        admission_capacity: int,
    ) -> None:
        self.request_timeout = request_timeout
        self.state = state or ServiceState()
        self.admission = AdmissionQueue(admission_capacity)
        self.socket = _listen(address)
        self.server_address = self.socket.getsockname()
        self._stopped = threading.Event()
        #: Open client connections and the task serving each, closed and
        #: awaited when the loop stops: an idle keep-alive connection
        #: would otherwise outlive the server, and a handler task left to
        #: ``asyncio.run``'s cancellation logs an error on Python 3.11.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._shutdown_requested = False

    @property
    def url(self) -> str:
        """The server's base URL (useful with an ephemeral port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown`; call on a thread."""
        try:
            asyncio.run(self.serve())
        finally:
            self._stopped.set()

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
        """Release the listening socket (after :meth:`shutdown`)."""
        self.socket.close()

    async def serve(self) -> None:
        """Serve on the running event loop until cancelled (or until
        :meth:`shutdown`, when :meth:`serve_forever` runs it)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._shutdown_requested:  # shut down before the loop started
            return
        server = await asyncio.start_server(
            self._handle_client,
            sock=self.socket,
            backlog=socket.SOMAXCONN,
            limit=MAX_LINE,
        )
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            handlers = list(self._connections.items())
            for writer, _ in handlers:
                writer.close()
            # an idle handler reads end-of-file and returns; a busy one
            # finishes its request first
            await asyncio.gather(
                *(task for _, task in handlers), return_exceptions=True
            )
            await server.wait_closed()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _Rejected as rejected:
                    writer.write(
                        _encode_response(
                            rejected.status,
                            json.dumps({"error": str(rejected)}).encode(),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                handler = self.handler_class(self, request, writer)
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
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


__all__ = [
    "AdmissionQueue",
    "HttpServerCore",
    "MAX_LINE",
    "MUTATION_ERRORS",
    "RequestHandler",
    "ServiceState",
    "SplitResult",
    "mutation_failure",
    "parse_content_length",
    "read_headers",
    "read_line",
]
