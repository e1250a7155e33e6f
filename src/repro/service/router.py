"""Failover-aware HTTP router in front of the shard workers.

:class:`ShardRouterServer` is the single address clients talk to.  It
holds no owner state and computes no scores: every ``/score``,
``/score-batch``, and ``/mutate`` is proxied to the shard worker that
owns the request's owners (per the shared
:class:`~repro.service.sharding.ShardMap`), and the answer — status
code, body, ``Retry-After`` — is relayed verbatim.  A requested risk
measure (``?measure=`` / the batch body's ``"measure"`` field) is
validated against the local registry (unknown names are a 400 with the
menu, without touching any shard) and forwarded to the owning shard;
``GET /measures`` is answered locally from the same registry.  Because
every shard registers its owners with their *global* cohort indices,
per-measure digests are byte-identical to the unsharded deployment.

Failure policy, built from :mod:`repro.resilience`:

* each shard gets its own :class:`~repro.resilience.CircuitBreaker`
  whose *failure* signal is connection-level unreachability only — any
  HTTP answer, even a 503, proves the worker is alive;
* idempotent reads (``/score``, batch stream opens) retry under a small
  seeded :class:`~repro.resilience.RetryPolicy`, riding out the
  supervisor's restart window;
* ``/mutate`` is sent exactly once — a mutation whose ack was lost must
  surface as an error, never be silently replayed;
* a shard that stays unreachable after retries costs its own owners a
  bounded ``503 Retry-After: 1`` while every other shard keeps serving.

Mutation routing: owner-addressed ops (``touch``, ``grant_labels``,
``add_user``) go to the owning shard; graph-wide ops
(``add_friendship``, ``remove_friendship``, ``update_profile``) are
broadcast to every shard, because each worker holds a full copy of the
graph and bumps only its own registered owners.  ``add_user``
additionally broadcasts the new profile to non-owning shards as an
``update_profile`` (a graph-only add there — the user belongs to no
remote universe yet).  A partial broadcast is answered 503 with the
applied/failed shard lists; the mutation was acknowledged only by the
shards listed as applied.

The router runs on the same asyncio core as the shard workers
(:mod:`repro.service.http`), with the same bounded admission.  Its
shard calls (:class:`ShardClient`), the live-rebalance coordinator
(:mod:`repro.service.rebalance`) and the shard supervisor
(:mod:`repro.service.supervisor`) run on that one event loop too; the
router starts no thread of its own.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from ..errors import (
    CircuitOpenError,
    RebalanceError,
    RetryExhaustedError,
    ShardUnavailableError,
)
from ..measures import measure_catalog
from ..resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    retry_call_async,
)
from .http import (
    MAX_LINE,
    HttpServerCore,
    RequestHandler,
    ServiceState,
    SplitResult,
    mutation_failure,
    read_headers,
    read_line,
)
from .sharding import ShardMap
from .supervisor import ShardSupervisor
from .wal import BROADCAST_OPS, OWNER_OPS

#: Bounded failover budget: ~3 attempts inside a couple hundred ms, so a
#: dead shard answers 503 quickly instead of hanging its callers.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.1, multiplier=2.0, max_delay=0.5, seed=2012
)

#: The router's failures a shard call may raise; each becomes a 503.
_SHARD_FAILURES = (
    ShardUnavailableError, RetryExhaustedError, CircuitOpenError
)

#: An open connection to a shard: the stream pair asyncio hands out.
_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ShardClient:
    """Resilient asyncio HTTP client for one shard worker.

    Re-resolves the worker's URL through the supervisor on every attempt
    (restarted workers bind fresh ephemeral ports) and translates
    connection-level failures into :class:`ShardUnavailableError`, which
    the retry policy treats as transient and the breaker as a failure.
    Its connections belong to the router's event loop, which opened
    them.

    Calls reuse HTTP/1.1 keep-alive connections, pooled under the URL
    they were opened to: a URL change (a restarted worker) drops the
    pool.  A connection goes back only after its response was read to
    the end without ``Connection: close``, is checked for end-of-file
    before reuse, and is discarded on any error.  One is opened only
    when every pooled one is busy, so the pool never outgrows the peak
    number of concurrent calls to the shard.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        shard_index: int,
        *,
        timeout: float = 60.0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self._supervisor = supervisor
        self.shard_index = shard_index
        self._timeout = timeout
        self._retry_policy = retry_policy
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, recovery_time=1.0
        )
        self._pool_url: str | None = None
        self._idle: list[_Connection] = []

    # -- connections ---------------------------------------------------
    def _unreachable(self, error: object) -> ShardUnavailableError:
        return ShardUnavailableError(
            f"shard {self.shard_index} unreachable: {error}",
            shard=self.shard_index,
        )

    def _url(self) -> str:
        url = self._supervisor.url_of(self.shard_index)
        if url is None:
            raise ShardUnavailableError(
                f"shard {self.shard_index} is down (restarting)",
                shard=self.shard_index,
            )
        return url

    async def _connect(self, url: str) -> _Connection:
        # asyncio.open_connection never reads proxy environment variables
        host, _, port = url.removeprefix("http://").rpartition(":")
        try:
            return await asyncio.open_connection(
                host, int(port), limit=MAX_LINE
            )
        except OSError as error:
            raise self._unreachable(error) from error

    def _checkout(self, url: str) -> _Connection | None:
        """A pooled connection to ``url`` whose peer has not closed it."""
        if url != self._pool_url:
            self.close()
            self._pool_url = url
        while self._idle:
            connection = self._idle.pop()
            if _still_open(connection):
                return connection
            connection[1].close()
        return None

    def close(self) -> None:
        """Close the pooled connections, on the loop that opened them;
        calls still running close theirs when they finish."""
        idle, self._idle = self._idle, []
        self._pool_url = None
        for _, writer in idle:
            writer.close()

    # -- one attempt ---------------------------------------------------
    async def _exchange(
        self, url: str, connection: _Connection, request: bytes,
        *, reused_get: bool = False, stream: bool = False,
    ) -> tuple[int, Any, dict[str, str]] | None:
        """One request/response on ``connection``: ``(status, body,
        headers)``, the connection pooled afterwards if it may be reused.

        With ``stream``, a 200's body is left unread and the connection
        is returned in its place.  ``None`` means a reused connection
        failed a GET before any answer byte arrived: the peer had closed
        it while idle.
        """
        reader, writer = connection
        answered = False
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            answered = bool(status_line)
            if not status_line.endswith(b"\n"):  # closed before or mid-line
                raise ConnectionResetError("the shard closed the connection")
            status = int(status_line[9:12])  # HTTP/1.1 200 OK
            headers = await read_headers(reader)
            if stream and status == 200:
                return status, connection, headers
            length = headers.get("content-length")
            if length is None:  # the body runs to end-of-file
                payload = await reader.read()
            else:
                payload = await reader.readexactly(int(length))
        except BaseException as error:
            writer.close()
            # a socket error, a body cut short, a malformed or over-long head
            if not isinstance(error, (OSError, EOFError, ValueError)):
                raise  # cancelled: the caller's deadline or teardown
            if reused_get and not answered and isinstance(
                error, ConnectionError
            ):
                return None
            raise self._unreachable(error) from error
        if (
            length is not None
            and headers.get("connection", "").lower() != "close"
            and url == self._pool_url
        ):
            self._idle.append(connection)
        else:
            writer.close()
        return status, payload, headers

    async def _answer(
        self, method: str, path: str, body: Any, *, stream: bool = False
    ) -> tuple[int, Any, dict[str, str]]:
        """One request within the call timeout, on a pooled connection
        when one is idle (never for a stream, which has its own)."""

        async def exchange():
            url = self._url()
            request = _request(url, method, path, body, close=stream)
            connection = None if stream else self._checkout(url)
            if connection is not None:
                answer = await self._exchange(
                    url, connection, request, reused_get=method == "GET"
                )
                if answer is not None:
                    return answer
            return await self._exchange(
                url, await self._connect(url), request, stream=stream
            )

        try:
            return await asyncio.wait_for(exchange(), self._timeout)
        except asyncio.TimeoutError as error:
            raise self._unreachable(
                f"no answer within {self._timeout:.1f}s"
            ) from error

    async def attempt(
        self, method: str, path: str, body: Any = None, *, raw: bool = False
    ) -> tuple[int, Any, int | None]:
        """One JSON call, no retry, no breaker: ``(status, body,
        retry_after)``.  Any HTTP answer is returned, error statuses
        included; a shard that is down, unreachable, or breaks off
        mid-answer raises :class:`ShardUnavailableError`.  The rebalance
        coordinator's phase calls use it too.  ``raw=True`` returns the
        body as the bytes the shard sent, for relaying verbatim.

        A GET whose pooled connection turns out closed by the peer
        before any answer byte arrives is sent once more, at once, on a
        fresh connection; any other method is never re-sent.
        """
        status, payload, headers = await self._answer(method, path, body)
        document = payload if raw else _document(payload)
        return status, document, _retry_after(headers)

    # -- public surface ------------------------------------------------
    async def call(
        self,
        method: str,
        path: str,
        body: Any = None,
        *,
        retries: bool = True,
        raw: bool = False,
    ) -> tuple[int, Any, int | None]:
        """Proxy one JSON request; returns ``(status, body, retry_after)``.

        ``retries=False`` is for mutations: exactly one attempt, so a
        lost ack is reported instead of silently replayed.  ``raw`` is
        :meth:`attempt`'s.
        """
        if not retries:
            self.breaker.before_call()
            try:
                result = await self.attempt(method, path, body, raw=raw)
            except ShardUnavailableError:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return result
        return await retry_call_async(
            lambda: self.attempt(method, path, body, raw=raw),
            self._retry_policy,
            retry_on=(ShardUnavailableError,),
            breaker=self.breaker,
        )

    async def open_stream(self, path: str, body: Any) -> tuple[int, Any]:
        """Open an NDJSON response stream (retried like a read).

        Returns ``(200, connection)``: the stream runs on a connection
        of its own, which the caller reads to end-of-file and closes.
        A shard that answers a non-200 (draining, saturated) is alive:
        that is ``(status, document)``, for the caller to turn into
        per-owner error lines.
        """
        status, answer, _ = await retry_call_async(
            lambda: self._answer("POST", path, body, stream=True),
            self._retry_policy,
            retry_on=(ShardUnavailableError,),
            breaker=self.breaker,
        )
        return status, answer if status == 200 else _document(answer)


def _still_open(connection: _Connection) -> bool:
    """Whether an idle keep-alive connection is still usable: the peer
    has neither closed it (end-of-file) nor reset it."""
    reader, writer = connection
    return not (
        reader.at_eof()
        or reader.exception() is not None
        or writer.is_closing()
    )


def _request(
    url: str, method: str, path: str, body: Any, *, close: bool
) -> bytes:
    """One request to the shard at ``url``, with ``body`` sent as JSON."""
    head = [f"{method} {path} HTTP/1.1", f"Host: {url[len('http://'):]}"]
    data = b""
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(data)}"]
    if close:
        head.append("Connection: close")
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + data


def _document(payload: bytes) -> dict[str, Any]:
    """A shard's JSON answer, or its text as an ``error``."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {"error": payload.decode("utf-8", "replace")[:200]}


def _retry_after(headers: dict[str, str]) -> int | None:
    value = headers.get("retry-after")
    return int(value) if value is not None else None


class ShardRouterHandler(RequestHandler):
    """Routes requests to shard workers; never computes a score.

    Shard calls (:class:`ShardClient`) and the rebalance coordinator's
    ``begin``/``resume``/``abort`` run on the event loop, so a fan-out
    never waits for a thread.
    """

    server: "ShardRouterServer"

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _do_get(self, url: SplitResult) -> None:
        if url.path == "/healthz":
            self._respond(200, await self._health_document())
        elif url.path == "/readyz":
            await self._readyz()
        elif url.path == "/shards":
            self._respond(200, self._shards_document())
        elif url.path == "/metrics":
            self._respond(200, await self._metrics_document())
        elif url.path == "/owners":
            await self._owners()
        elif url.path == "/measures":
            # Answered locally: the router imports the same registry the
            # shard workers do, so no fan-out is needed.
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
        elif url.path == "/shards":
            await self._shards_admin()
        else:
            self._respond(404, {"error": f"unknown path {url.path!r}"})

    # ------------------------------------------------------------------
    # rebalance admin
    # ------------------------------------------------------------------
    async def _shards_admin(self) -> None:
        """``POST /shards``: grow/shrink the fleet, or steer a migration.

        * ``{"count": M}`` — start a live rebalance to ``M`` shards
          (``"pause_before": "<phase>"`` holds the state machine at a
          phase boundary for inspection or chaos drills);
        * ``{"resume": true}`` — release a paused migration;
        * ``{"abort": true}`` — request a rollback (pre-cutover only).
        """
        body = self._json_body()
        if body is None:
            return
        coordinator = self.server.rebalance
        if coordinator is None:
            self._respond(
                503,
                {"error": "no rebalance coordinator wired to this router"},
            )
            return
        try:
            if body.get("resume"):
                coordinator.resume()
            elif body.get("abort"):
                coordinator.abort()
            elif "count" in body:
                count = body["count"]
                if not isinstance(count, int) or isinstance(count, bool):
                    self._respond(
                        400, {"error": f"invalid shard count {count!r}"}
                    )
                    return
                coordinator.begin(count, pause_before=body.get("pause_before"))
            else:
                self._respond(
                    400,
                    {
                        "error": (
                            'body must be {"count": <n>}, {"resume": true}, '
                            'or {"abort": true}'
                        )
                    },
                )
                return
        except RebalanceError as error:
            self._respond(409, {"error": str(error), "phase": error.phase})
            return
        self._respond(202, {"ok": True, "rebalance": coordinator.status()})

    # ------------------------------------------------------------------
    # aggregation endpoints
    # ------------------------------------------------------------------
    async def _ask_every_shard(self, path: str):
        """``(client, answer)`` for every shard, asked concurrently and
        once; ``answer`` is ``None`` for a shard that is away, so one dead
        shard never fails the whole answer."""

        async def ask(client: ShardClient):
            try:
                return await client.call("GET", path, retries=False)
            except (ShardUnavailableError, CircuitOpenError):
                return None

        clients = self.server.clients
        return zip(clients, await asyncio.gather(*map(ask, clients)))

    async def _shard_documents(
        self, path: str, away: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Every shard's answer to ``GET path``, tagged with its index;
        a shard that is away contributes ``away`` instead."""
        return [
            {
                "shard": client.shard_index,
                **(away if answer is None else answer[1]),
            }
            for client, answer in await self._ask_every_shard(path)
        ]

    async def _health_document(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "role": "router",
            "draining": self.server.state.draining,
            "map": self.server.shard_map.to_dict(),
            "supervisor": self.server.supervisor.snapshot(),
            "shards": await self._shard_documents(
                "/healthz", {"status": "unreachable"}
            ),
        }

    async def _readyz(self) -> None:
        """Ready iff the router is serving and every shard is ready."""
        state = self.server.state
        per_shard = [
            {
                "shard": client.shard_index,
                "ready": answer is not None and answer[0] == 200,
                "detail": (
                    "unreachable"
                    if answer is None
                    else answer[1].get("detail", "")
                ),
            }
            for client, answer in await self._ask_every_shard("/readyz")
        ]
        all_ready = (
            state.ready
            and not state.draining
            and all(shard["ready"] for shard in per_shard)
        )
        self._respond(
            200 if all_ready else 503,
            {
                "ready": all_ready,
                "draining": state.draining,
                "detail": state.detail,
                "shards": per_shard,
            },
        )

    def _shards_document(self) -> dict[str, Any]:
        shard_map, clients = self.server.topology
        document = {
            "map": shard_map.to_dict(),
            "num_shards": shard_map.num_shards,
            "supervisor": self.server.supervisor.snapshot(),
            "breakers": [
                {"shard": client.shard_index, **client.breaker.snapshot()}
                for client in clients
            ],
        }
        coordinator = self.server.rebalance
        if coordinator is not None:
            document["rebalance"] = coordinator.status()
        fence = self.server.fence
        if fence is not None:
            owners, phase = fence
            document["fence"] = {
                "owners": sorted(owners),
                "phase": phase,
            }
        return document

    async def _metrics_document(self) -> dict[str, Any]:
        shards = await self._shard_documents("/metrics", {"unreachable": True})
        # fleet-wide coalescing rollup, forwarded from each worker's
        # scheduler block: how many /score hits were absorbed by an
        # already-in-flight identical request, per shard and in total
        per_shard: dict[str, int] = {}
        for entry in shards:
            scheduler = entry.get("scheduler")
            if isinstance(scheduler, dict) and "coalesced_hits" in scheduler:
                per_shard[str(entry["shard"])] = int(
                    scheduler["coalesced_hits"]
                )
        return {
            "router": dict(self.server.counters),
            "admission": self.server.admission.snapshot(),
            "supervisor": self.server.supervisor.snapshot(),
            "coalescing": {
                "coalesced_hits": sum(per_shard.values()),
                "per_shard": per_shard,
            },
            "shards": shards,
        }

    async def _owners(self) -> None:
        owners: list[dict[str, Any]] = []
        unreachable: list[int] = []
        for client, answer in await self._ask_every_shard("/owners"):
            if answer is None:
                unreachable.append(client.shard_index)
                continue
            for entry in answer[1].get("owners", []):
                owners.append({**entry, "shard": client.shard_index})
        owners.sort(key=lambda entry: entry.get("owner", 0))
        document = {"owners": owners}
        if unreachable:
            document["unreachable_shards"] = unreachable
        self._respond(200, document)

    # ------------------------------------------------------------------
    # proxied work
    # ------------------------------------------------------------------
    def _fenced(self, owner_id: int) -> bool:
        """503 + Retry-After when ``owner_id`` is mid-migration.

        Reads are fenced too, not just writes: scoring grants labels as
        a by-product, and a grant landing on the source after its slice
        was exported would silently diverge from the destination.
        """
        fence = self.server.fence
        if fence is None or owner_id not in fence[0]:
            return False
        self._reject_fenced(
            f"owner {owner_id} is migrating between shards; retry shortly",
            fence[1],
        )
        return True

    def _reject_fenced(self, message: str, phase: str) -> None:
        self.server.count("fenced")
        self._respond(
            503, {"error": message, "rebalance": phase}, retry_after=1
        )

    def _reject_shard_away(self, error: Exception, shard: int) -> None:
        """A bounded 503 once the owning shard stayed unreachable."""
        self.server.count("shard_unavailable")
        self._respond(
            503, {"error": str(error), "shard": shard}, retry_after=1
        )

    async def _score(self, owner_id: int, measure: str | None = None) -> None:
        self.server.count("score")
        if self._fenced(owner_id):
            return
        shard_map, clients = self.server.topology
        shard = shard_map.shard_of(owner_id)
        path = f"/score?owner={owner_id}"
        if measure is not None:
            path += f"&measure={measure}"
        try:
            # relayed as the shard encoded it: the router never reads a
            # score, so it neither decodes nor re-encodes one
            status, payload, retry_after = await clients[shard].call(
                "GET", path, raw=True
            )
        except _SHARD_FAILURES as error:
            self._reject_shard_away(error, shard)
            return
        self._relay(status, payload, retry_after=retry_after)

    async def _score_batch(
        self, owners: list[int], measure: str | None
    ) -> None:
        """Fan a batch out by owning shard, merge streams in order.

        Each shard's stream is read by a pump task, in the order its
        members were submitted; every line fills that owner's slot
        future, and the writer emits the merged stream in *request*
        order as soon as each slot is filled.  A shard's lines are relayed
        as the shard encoded them; only the router's own error lines are
        documents it encodes.  A shard dying mid-stream costs its
        remaining members 503 error lines; other shards' lines are
        unaffected.
        """
        self.server.count("score_batch")
        loop = asyncio.get_running_loop()
        shard_map, clients = self.server.topology
        fence = self.server.fence
        fenced_owners = fence[0] if fence is not None else frozenset()
        groups: dict[int, list[tuple[int, int]]] = {}
        slots = [loop.create_future() for _ in owners]
        for position, owner_id in enumerate(owners):
            if owner_id in fenced_owners:
                # mid-migration owners get a bounded per-line 503 instead
                # of racing the slice export on either shard
                self.server.count("fenced")
                slots[position].set_result(
                    {
                        "owner": owner_id,
                        "error": (
                            f"owner {owner_id} is migrating between shards; "
                            "retry shortly"
                        ),
                        "status": 503,
                        "retry_after": 1,
                    }
                )
                continue
            shard = shard_map.shard_of(owner_id)
            groups.setdefault(shard, []).append((position, owner_id))

        def fail(members, status, message, shard):
            for position, owner_id in members:
                slots[position].set_result(
                    {
                        "owner": owner_id,
                        "error": message,
                        "status": status,
                        "shard": shard,
                    }
                )

        async def pump(shard: int, members: list[tuple[int, int]]) -> None:
            shard_body: dict[str, Any] = {
                "owners": [o for _, o in members]
            }
            if measure is not None:
                shard_body["measure"] = measure
            try:
                status, stream = await clients[shard].open_stream(
                    "/score-batch", shard_body
                )
            except Exception as error:  # away, or broke: fill the slots
                self.server.count("shard_unavailable")
                fail(members, 503, str(error), shard)
                return
            if status != 200:  # the shard answered: alive, but refused
                fail(
                    members,
                    status,
                    stream.get("error", "shard refused the batch"),
                    shard,
                )
                return
            reader, writer = stream
            try:
                for read, (position, _) in enumerate(members):
                    line = await read_line(reader)
                    if not line.endswith(b"\n"):  # ended or cut off
                        raise ShardUnavailableError(
                            f"shard {shard} stream ended early",
                            shard=shard,
                        )
                    # relayed as the shard encoded it, like /score
                    slots[position].set_result(line)
            except Exception as error:
                self.server.count("shard_unavailable")
                fail(
                    members[read:],
                    503,
                    f"stream from shard {shard} died: {error}",
                    shard,
                )
            finally:
                writer.close()

        pumps = [
            asyncio.create_task(pump(shard, members))
            for shard, members in groups.items()
        ]
        deadline = Deadline(self.server.request_timeout)
        try:
            self._start_stream()
            for position, owner_id in enumerate(owners):
                done, _ = await asyncio.wait(
                    (slots[position],), timeout=deadline.remaining()
                )
                await self._stream_line(
                    slots[position].result()
                    if done
                    else {
                        "owner": owner_id,
                        "error": (
                            f"batch exceeded the "
                            f"{self.server.request_timeout:.1f}s budget"
                        ),
                        "status": 504,
                    }
                )
        finally:
            # a pump still waiting on a slow shard would outlive the
            # response: cancelling it closes its stream, and every pump
            # has ended before the handler returns
            for task in pumps:
                task.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)

    async def _mutate(self, op: str, body: dict[str, Any]) -> None:
        self.server.count("mutate")
        try:
            if op in OWNER_OPS:
                await self._mutate_owner_addressed(op, body)
            else:
                await self._mutate_broadcast(op, body)
        except (KeyError, TypeError, ValueError) as error:
            self._respond(*mutation_failure(op, error))

    async def _mutate_owner_addressed(
        self, op: str, body: dict[str, Any]
    ) -> None:
        """Route a single-owner mutation to its owning shard (one try)."""
        owner_id = int(body["owner"])
        if self._fenced(owner_id):
            return
        if op == "add_user" and self._fence_blocks_broadcast(op):
            # add_user fans the profile out to every shard's graph copy,
            # so it is a broadcast in disguise
            return
        shard_map, clients = self.server.topology
        shard = shard_map.shard_of(owner_id)
        try:
            status, document, retry_after = await clients[shard].call(
                "POST", "/mutate", body, retries=False
            )
        except _SHARD_FAILURES as error:
            self._reject_shard_away(error, shard)
            return
        if op == "add_user" and status == 200:
            # make the new user visible in every shard's graph copy: a
            # graph-only add on non-owning shards (the user belongs to no
            # universe there, so nobody's version is bumped)
            others = [
                client_ for client_ in clients
                if client_.shard_index != shard
            ]
            failed = (
                await self._broadcast_to(
                    others,
                    {"op": "update_profile", "profile": body["profile"]},
                )
            )[1]
            if failed:
                self._respond(
                    503,
                    {
                        "error": (
                            "add_user acknowledged by the owning shard but "
                            "the profile broadcast failed; retry to "
                            "reconverge"
                        ),
                        "op": op,
                        "applied": [shard],
                        "failed": failed,
                    },
                    retry_after=1,
                )
                return
        self._respond(status, {**document, "shard": shard},
                      retry_after=retry_after)

    async def _broadcast_to(
        self, clients: list[ShardClient], body: dict[str, Any]
    ) -> tuple[dict[int, dict[str, Any]], list[int]]:
        """POST one mutation to many shards concurrently.

        Returns ``(answers_by_shard, failed_shards)`` where a failure is
        an unreachable shard or a non-200 answer.
        """

        async def send(client: ShardClient):
            try:
                status, document, _ = await client.call(
                    "POST", "/mutate", body, retries=False
                )
            except (ShardUnavailableError, CircuitOpenError) as error:
                return None, {"error": str(error)}
            return status, document

        results = await asyncio.gather(*map(send, clients))
        answers = {
            client.shard_index: document
            for client, (_, document) in zip(clients, results)
        }
        failed = [
            client.shard_index
            for client, (status, _) in zip(clients, results)
            if status != 200
        ]
        return answers, sorted(failed)

    def _fence_blocks_broadcast(self, op: str) -> bool:
        """503 graph-wide mutations while a migration is in flight.

        A joining shard's graph copy is frozen at export time; letting a
        broadcast land on the old shards mid-transfer would hand the new
        shard a stale graph at cutover.  Bounded: the fence only spans
        export → cutover.
        """
        fence = self.server.fence
        if fence is None:
            return False
        self._reject_fenced(
            f"graph mutation {op!r} deferred: a shard rebalance is "
            "migrating owners; retry shortly",
            fence[1],
        )
        return True

    async def _mutate_broadcast(self, op: str, body: dict[str, Any]) -> None:
        """Apply a graph-wide mutation on every shard; merge the acks."""
        if self._fence_blocks_broadcast(op):
            return
        self.server.count("broadcasts")
        answers, failed = await self._broadcast_to(self.server.clients, body)
        if failed:
            self.server.count("shard_unavailable")
            applied = sorted(
                shard for shard, answer in answers.items()
                if shard not in failed and answer.get("ok")
            )
            self._respond(
                503,
                {
                    "error": (
                        f"broadcast {op!r} failed on shard(s) {failed}; "
                        "applied shards listed — retry to reconverge"
                    ),
                    "op": op,
                    "applied": applied,
                    "failed": failed,
                    "answers": {str(s): a for s, a in answers.items()},
                },
                retry_after=1,
            )
            return
        affected = sorted(
            {
                owner
                for answer in answers.values()
                for owner in answer.get("affected", [])
            }
        )
        versions: dict[str, int] = {}
        for answer in answers.values():
            versions.update(answer.get("versions", {}))
        self._respond(
            200,
            {
                "ok": True,
                "op": op,
                "affected": affected,
                "versions": versions,
                "shards": {
                    str(shard): answer.get("seq")
                    for shard, answer in answers.items()
                },
            },
        )


class ShardRouterServer(HttpServerCore):
    """The router bound to one supervisor + shard map.

    Runs on the shared asyncio core, shard calls, the rebalance
    coordinator and the supervisor included; a full router sheds with
    429 + ``Retry-After``.

    The shard map and client list live together in one *topology* tuple
    swapped atomically at rebalance cutover; request handlers snapshot
    the topology once and use both halves from the same snapshot, so a
    mid-request resize can never pair an old map with a new client list.
    """

    handler_class = ShardRouterHandler

    def __init__(
        self,
        address: tuple[str, int],
        shard_map: ShardMap,
        supervisor: ShardSupervisor,
        *,
        request_timeout: float = 60.0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        state: ServiceState | None = None,
        admission_capacity: int = 256,
    ) -> None:
        super().__init__(
            address,
            request_timeout=request_timeout,
            state=state,
            admission_capacity=admission_capacity,
        )
        self.supervisor = supervisor
        self.retry_policy = retry_policy
        self._topology = (
            shard_map,
            [
                self._make_client(shard)
                for shard in range(shard_map.num_shards)
            ],
        )
        #: The live rebalance coordinator (wired by ``serve_sharded`` and
        #: tests); ``POST /shards`` answers 503 while this is ``None``.
        self.rebalance = None
        #: ``(frozenset(moving_owners), phase)`` while a migration is in
        #: flight, else ``None``; set and read on the event loop.
        self._fence: tuple[frozenset[int], str] | None = None
        #: Bumped on the event loop only.
        self.counters = {
            "score": 0,
            "score_batch": 0,
            "mutate": 0,
            "broadcasts": 0,
            "shard_unavailable": 0,
            "fenced": 0,
        }

    def _make_client(self, shard: int) -> ShardClient:
        return ShardClient(
            self.supervisor,
            shard,
            timeout=self.request_timeout + 5.0,
            retry_policy=self.retry_policy,
        )

    # -- topology ------------------------------------------------------
    @property
    def topology(self) -> tuple[ShardMap, list[ShardClient]]:
        """The current ``(shard_map, clients)`` pair; read it ONCE per
        request and use both halves from the same snapshot."""
        return self._topology

    @property
    def shard_map(self) -> ShardMap:
        """The current shard map (one half of :attr:`topology`)."""
        return self._topology[0]

    @property
    def clients(self) -> list[ShardClient]:
        """The current shard clients (other half of :attr:`topology`)."""
        return self._topology[1]

    def apply_topology(self, shard_map: ShardMap) -> None:
        """Atomically swap in a resized topology (rebalance cutover).

        Surviving shards keep their existing :class:`ShardClient` — and
        with it their circuit-breaker history; new tail shards get fresh
        clients; clients past the new count are closed and dropped.
        Called on the event loop, which owns their connections.
        """
        old_clients = self._topology[1]
        clients = [
            old_clients[shard]
            if shard < len(old_clients)
            else self._make_client(shard)
            for shard in range(shard_map.num_shards)
        ]
        self._topology = (shard_map, clients)
        for client in old_clients[len(clients):]:
            client.close()

    async def serve(self) -> None:
        """Serve until cancelled, then close the pooled shard
        connections, which belong to this loop."""
        try:
            await super().serve()
        finally:
            for client in self.clients:
                client.close()

    # -- migration fence -----------------------------------------------
    def set_fence(self, owners, phase: str) -> None:
        """Fence the moving owners (and graph broadcasts) for migration."""
        self._fence = (frozenset(int(owner) for owner in owners), phase)

    def clear_fence(self) -> None:
        """Lift the migration fence."""
        self._fence = None

    @property
    def fence(self) -> tuple[frozenset[int], str] | None:
        """The active fence, or ``None`` outside migrations."""
        return self._fence

    def count(self, key: str) -> None:
        """Bump one router counter (on the event loop)."""
        self.counters[key] += 1


def build_router(
    shard_map: ShardMap,
    supervisor: ShardSupervisor,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 60.0,
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    state: ServiceState | None = None,
    admission_capacity: int = 256,
) -> ShardRouterServer:
    """Wire shard map + supervisor → router (port 0 = ephemeral).

    ``admission_capacity`` bounds concurrently admitted ``/score``,
    ``/score-batch`` and ``/mutate`` requests (beyond it, 429 +
    ``Retry-After``).
    """
    return ShardRouterServer(
        (host, port),
        shard_map,
        supervisor,
        request_timeout=request_timeout,
        retry_policy=retry_policy,
        state=state,
        admission_capacity=admission_capacity,
    )


__all__ = [
    "BROADCAST_OPS",
    "DEFAULT_RETRY_POLICY",
    "OWNER_OPS",
    "ShardClient",
    "ShardRouterHandler",
    "ShardRouterServer",
    "build_router",
]
