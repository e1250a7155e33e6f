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
(:mod:`repro.service.http`), with the same bounded admission; its
blocking shard calls run on a pool with one thread per admission slot.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import urllib.error
import urllib.request
from typing import Any
from urllib.parse import SplitResult

from ..errors import (
    CircuitOpenError,
    RebalanceError,
    RetryExhaustedError,
    ShardUnavailableError,
)
from ..measures import measure_catalog
from ..resilience import CircuitBreaker, Deadline, RetryPolicy, retry_call
from .http import (
    HttpServerCore,
    RequestHandler,
    ServiceState,
    mutation_failure,
)
from .sharding import ShardMap
from .supervisor import SHARD_OPENER, ShardSupervisor
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


class _ShardRefusal(Exception):
    """A shard answered an HTTP error for a whole streamed batch."""

    def __init__(self, status: int, document: dict[str, Any]) -> None:
        super().__init__(document.get("error", f"shard answered {status}"))
        self.status = status
        self.document = document


class ShardClient:
    """Resilient HTTP client for one shard worker.

    Re-resolves the worker's URL through the supervisor on every attempt
    (restarted workers bind fresh ephemeral ports) and translates
    connection-level failures into :class:`ShardUnavailableError`, which
    the retry policy treats as transient and the breaker as a failure.
    Blocking: the router calls it from its thread pool.
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

    # -- one attempt ---------------------------------------------------
    def _unreachable(self, error: Exception) -> ShardUnavailableError:
        return ShardUnavailableError(
            f"shard {self.shard_index} unreachable: {error}",
            shard=self.shard_index,
        )

    def _request(self, method: str, path: str, body: Any = None):
        url = self._supervisor.url_of(self.shard_index)
        if url is None:
            raise ShardUnavailableError(
                f"shard {self.shard_index} is down (restarting)",
                shard=self.shard_index,
            )
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url + path, data=data, headers=headers, method=method
        )
        try:
            return SHARD_OPENER.open(request, timeout=self._timeout)
        except urllib.error.HTTPError as error:
            return error  # an HTTP answer: the shard is alive
        except OSError as error:  # URLError, refused, reset, timed out
            raise self._unreachable(error) from error

    def _read(self, response) -> tuple[int, dict[str, Any], int | None]:
        try:
            with response:
                raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise self._unreachable(error) from error
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = {"error": raw.decode("utf-8", "replace")[:200]}
        retry_after = response.headers.get("Retry-After")
        return (
            response.status,
            document,
            int(retry_after) if retry_after is not None else None,
        )

    def attempt(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, Any], int | None]:
        """One JSON call, no retry, no breaker: ``(status, body,
        retry_after)``.  Any HTTP answer is returned, error statuses
        included; a shard that is down, unreachable, or breaks off
        mid-answer raises :class:`ShardUnavailableError`.  The rebalance
        coordinator's phase calls use it too."""
        return self._read(self._request(method, path, body))

    # -- public surface ------------------------------------------------
    def call(
        self, method: str, path: str, body: Any = None, *, retries: bool = True
    ) -> tuple[int, dict[str, Any], int | None]:
        """Proxy one JSON request; returns ``(status, body, retry_after)``.

        ``retries=False`` is for mutations: exactly one attempt, so a
        lost ack is reported instead of silently replayed.
        """
        if not retries:
            self.breaker.before_call()
            try:
                result = self.attempt(method, path, body)
            except ShardUnavailableError:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return result
        return retry_call(
            lambda: self.attempt(method, path, body),
            self._retry_policy,
            retry_on=(ShardUnavailableError,),
            breaker=self.breaker,
        )

    def try_call(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, Any], int | None] | None:
        """Best-effort single attempt; ``None`` if the shard is away.

        For aggregation endpoints (health, metrics, owners) where one
        dead shard must not fail the whole answer.
        """
        try:
            return self.call(method, path, body, retries=False)
        except (ShardUnavailableError, CircuitOpenError):
            return None

    def open_stream(self, path: str, body: Any):
        """Open an NDJSON response stream (retried like a read).

        Raises :class:`_ShardRefusal` when the shard answers a non-200
        (circuit open, draining): the caller turns that into per-owner
        error lines.
        """

        def attempt():
            response = self._request("POST", path, body)
            if response.status != 200:
                raise _ShardRefusal(*self._read(response)[:2])
            return response

        return retry_call(
            attempt,
            self._retry_policy,
            retry_on=(ShardUnavailableError,),
            breaker=self.breaker,
        )


class ShardRouterHandler(RequestHandler):
    """Routes requests to shard workers; never computes a score.

    Shard calls block (:class:`ShardClient` over ``urllib``), so each
    one runs on the server's pool; the event loop only parses, fans out,
    and writes answers.
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
                await self._run_blocking(coordinator.resume)
            elif body.get("abort"):
                await self._run_blocking(coordinator.abort)
            elif "count" in body:
                count = body["count"]
                if not isinstance(count, int) or isinstance(count, bool):
                    self._respond(
                        400, {"error": f"invalid shard count {count!r}"}
                    )
                    return
                await self._run_blocking(
                    coordinator.begin,
                    count,
                    pause_before=body.get("pause_before"),
                )
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
        """``(client, answer)`` for every shard, asked concurrently;
        ``answer`` is ``None`` for a shard that is away."""
        clients = self.server.clients
        answers = await asyncio.gather(
            *(
                self._run_blocking(client.try_call, "GET", path)
                for client in clients
            )
        )
        return zip(clients, answers)

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
            status, document, retry_after = await self._run_blocking(
                clients[shard].call, "GET", path
            )
        except _SHARD_FAILURES as error:
            self._reject_shard_away(error, shard)
            return
        self._respond(status, document, retry_after=retry_after)

    async def _score_batch(
        self, owners: list[int], measure: str | None
    ) -> None:
        """Fan a batch out by owning shard, merge streams in order.

        Each shard's stream is read by a pump on the pool, in the order
        its members were submitted; every line fills that owner's slot
        future, and the writer emits the merged stream in *request*
        order as soon as each slot is filled.  A shard dying mid-stream
        costs its remaining members 503 error lines; other shards' lines
        are unaffected.
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

        count = self.server.count  # from the pumps, via the loop

        def fill(position: int, line: dict[str, Any]) -> None:
            if not slots[position].done():
                slots[position].set_result(line)

        def fail_members(members, status, message, shard):
            for position, owner_id in members:
                line = {
                    "owner": owner_id,
                    "error": message,
                    "status": status,
                    "shard": shard,
                }
                loop.call_soon_threadsafe(fill, position, line)

        # live shard-reader streams, so teardown can force-close them and
        # unblock any pump still parked in readline()
        streams_lock = threading.Lock()
        open_streams: list[Any] = []
        closing = threading.Event()

        def pump(shard: int, members: list[tuple[int, int]]) -> None:
            shard_body: dict[str, Any] = {
                "owners": [o for _, o in members]
            }
            if measure is not None:
                shard_body["measure"] = measure
            try:
                stream = clients[shard].open_stream("/score-batch", shard_body)
            except _ShardRefusal as refusal:
                fail_members(
                    members,
                    refusal.status,
                    refusal.document.get("error", "shard refused the batch"),
                    shard,
                )
                return
            except Exception as error:  # away, or broke: fill the slots
                loop.call_soon_threadsafe(count, "shard_unavailable")
                fail_members(members, 503, str(error), shard)
                return
            with streams_lock:
                if closing.is_set():  # the response already ended
                    stream.close()
                    return
                open_streams.append(stream)
            try:
                with stream:
                    for position, owner_id in members:
                        raw = stream.readline()
                        if not raw:
                            raise ShardUnavailableError(
                                f"shard {shard} stream ended early",
                                shard=shard,
                            )
                        loop.call_soon_threadsafe(
                            fill, position, json.loads(raw.decode("utf-8"))
                        )
            except Exception as error:
                loop.call_soon_threadsafe(count, "shard_unavailable")
                fail_members(
                    members, 503, f"stream from shard {shard} died: {error}",
                    shard,
                )
            finally:
                with streams_lock:
                    open_streams.remove(stream)

        pumps = [
            self.server.pool.submit(pump, shard, members)
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
            # Reliable teardown: a pump parked in readline() on a slow
            # shard would outlive the response and leak across requests.
            # Closing its stream makes readline() return or raise, a pump
            # not yet started is cancelled, and every pump is awaited
            # before the handler returns.
            with streams_lock:
                closing.set()
                stranded = list(open_streams)
            for stream in stranded:
                try:
                    stream.close()
                except Exception:  # pragma: no cover - close is best-effort
                    pass
            for future in pumps:
                future.cancel()
            if pumps:
                await asyncio.wait(
                    [asyncio.wrap_future(future) for future in pumps],
                    timeout=10.0,
                )

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
            status, document, retry_after = await self._run_blocking(
                clients[shard].call, "POST", "/mutate", body, retries=False
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
                status, document, _ = await self._run_blocking(
                    client.call, "POST", "/mutate", body, retries=False
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

    Runs on the shared asyncio core; its pool holds one thread per
    admission slot, so every admitted request can have a shard call in
    flight and a full router sheds with 429 + ``Retry-After`` instead
    of starting more threads.

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
            pool_size=admission_capacity,
            pool_name="shard-call",
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
        #: flight, else ``None``.  Single-attribute read/write — atomic.
        self._fence: tuple[frozenset[int], str] | None = None
        #: Bumped on the event loop only (pumps hand theirs over).
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
        clients; clients past the new count are dropped.
        """
        old_clients = self._topology[1]
        clients = [
            old_clients[shard]
            if shard < len(old_clients)
            else self._make_client(shard)
            for shard in range(shard_map.num_shards)
        ]
        self._topology = (shard_map, clients)

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
    ``Retry-After``) and sizes the shard-call pool.
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
