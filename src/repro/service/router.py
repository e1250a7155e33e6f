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
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..errors import (
    CircuitOpenError,
    RetryExhaustedError,
    ShardUnavailableError,
)
from ..measures import measure_catalog
from ..resilience import CircuitBreaker, Deadline, RetryPolicy, retry_call
from .http import (
    _INVALID_MEASURE,
    RequestParsingMixin,
    ServiceState,
    mutation_failure,
    parse_content_length,
)
from .sharding import ShardMap
from .supervisor import SHARD_OPENER, ShardSupervisor

#: Ops addressed to a single owner (routed to that owner's shard).
OWNER_OPS = frozenset({"touch", "grant_labels", "add_user"})
#: Ops touching the shared graph (broadcast to every shard).
BROADCAST_OPS = frozenset(
    {"add_friendship", "remove_friendship", "update_profile"}
)

#: Bounded failover budget: ~3 attempts inside a couple hundred ms, so a
#: dead shard answers 503 quickly instead of hanging its callers.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.1, multiplier=2.0, max_delay=0.5, seed=2012
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
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            raise ShardUnavailableError(
                f"shard {self.shard_index} unreachable: {error}",
                shard=self.shard_index,
            ) from error

    def _attempt(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, Any], int | None]:
        response = self._request(method, path, body)
        with response:
            status = response.status if hasattr(response, "status") else response.code
            retry_after = response.headers.get("Retry-After")
            raw = response.read()
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = {"error": raw.decode("utf-8", "replace")[:200]}
        return (
            int(status),
            document,
            int(retry_after) if retry_after is not None else None,
        )

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
                result = self._attempt(method, path, body)
            except ShardUnavailableError:
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return result
        return retry_call(
            lambda: self._attempt(method, path, body),
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
            status = (
                response.status if hasattr(response, "status") else response.code
            )
            if int(status) != 200:
                with response:
                    raw = response.read()
                try:
                    document = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    document = {"error": f"shard answered {status}"}
                raise _ShardRefusal(int(status), document)
            return response

        return retry_call(
            attempt,
            self._retry_policy,
            retry_on=(ShardUnavailableError,),
            breaker=self.breaker,
        )


class ShardRouterServer(ThreadingHTTPServer):
    """Threaded router bound to one supervisor + shard map.

    The shard map and client list live together in one *topology* tuple
    swapped atomically at rebalance cutover; request handlers snapshot
    the topology once and use both halves from the same snapshot, so a
    mid-request resize can never pair an old map with a new client list.
    """

    daemon_threads = True
    # socketserver's default backlog of 5 drops SYNs when more clients
    # connect at once, and each dropped client waits out the kernel's
    # 1 s retransmit
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        address: tuple[str, int],
        shard_map: ShardMap,
        supervisor: ShardSupervisor,
        *,
        request_timeout: float = 60.0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        quiet: bool = True,
        state: ServiceState | None = None,
    ) -> None:
        super().__init__(address, ShardRouterHandler)
        self.supervisor = supervisor
        self.request_timeout = request_timeout
        self.retry_policy = retry_policy
        self.quiet = quiet
        self.state = state or ServiceState()
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
        self._counter_lock = threading.Lock()
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

    @property
    def url(self) -> str:
        """The router's base URL (useful with an ephemeral port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def count(self, key: str, amount: int = 1) -> None:
        """Bump one router counter (thread-safe)."""
        with self._counter_lock:
            self.counters[key] += amount

    def counters_snapshot(self) -> dict[str, int]:
        """A consistent copy of the router counters."""
        with self._counter_lock:
            return dict(self.counters)


class ShardRouterHandler(RequestParsingMixin, BaseHTTPRequestHandler):
    """Routes requests to shard workers; never computes a score."""

    # HTTP/1.1 so clients reuse connections (responses always carry a
    # Content-Length or close explicitly, e.g. /score-batch streams)
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: wfile is unbuffered, so headers and body leave as
    # separate small sends, and Nagle would hold the body back until the
    # client's delayed ACK (~40 ms) on every response
    disable_nagle_algorithm = True

    server: ShardRouterServer

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route GET requests to aggregation endpoints and /score."""
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._respond(200, self._health_document())
        elif parsed.path == "/readyz":
            self._readyz()
        elif parsed.path == "/shards":
            self._respond(200, self._shards_document())
        elif parsed.path == "/metrics":
            self._respond(200, self._metrics_document())
        elif parsed.path == "/owners":
            self._owners()
        elif parsed.path == "/measures":
            # Answered locally: the router imports the same registry the
            # shard workers do, so no fan-out is needed.
            self._respond(200, {"measures": measure_catalog()})
        elif parsed.path == "/score":
            if self._reject_while_draining():
                return
            query = parse_qs(parsed.query)
            owner_id = self._owner_from_query(query)
            if owner_id is None:
                return
            measure = self._measure_from_values(query.get("measure"))
            if measure is not _INVALID_MEASURE:
                self._score(owner_id, measure)
        else:
            self._respond(404, {"error": f"unknown path {parsed.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route POST /score, /score-batch, and /mutate."""
        parsed = urlparse(self.path)
        if parsed.path == "/score":
            if self._reject_while_draining():
                return
            body = self._json_body()
            if body is None:
                return
            owner_id = self._owner_from_body(body)
            if owner_id is None:
                return
            measure = self._measure_from_body(body)
            if measure is not _INVALID_MEASURE:
                self._score(owner_id, measure)
        elif parsed.path == "/score-batch":
            if self._reject_while_draining():
                return
            self._score_batch()
        elif parsed.path == "/mutate":
            if self._reject_while_draining():
                return
            self._mutate()
        elif parsed.path == "/shards":
            self._shards_admin()
        else:
            self._respond(404, {"error": f"unknown path {parsed.path!r}"})

    # ------------------------------------------------------------------
    # rebalance admin
    # ------------------------------------------------------------------
    def _shards_admin(self) -> None:
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
        from ..errors import RebalanceError

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
                coordinator.begin(
                    count, pause_before=body.get("pause_before")
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
    def _health_document(self) -> dict[str, Any]:
        shards = []
        for client in self.server.clients:
            answer = client.try_call("GET", "/healthz")
            if answer is None:
                shards.append(
                    {"shard": client.shard_index, "status": "unreachable"}
                )
            else:
                _, document, _ = answer
                shards.append({"shard": client.shard_index, **document})
        return {
            "status": "ok",
            "role": "router",
            "draining": self.server.state.draining,
            "map": self.server.shard_map.to_dict(),
            "supervisor": self.server.supervisor.snapshot(),
            "shards": shards,
        }

    def _readyz(self) -> None:
        """Ready iff the router is serving and every shard is ready."""
        state = self.server.state
        per_shard = []
        all_ready = state.ready and not state.draining
        for client in self.server.clients:
            answer = client.try_call("GET", "/readyz")
            if answer is None:
                per_shard.append(
                    {"shard": client.shard_index, "ready": False,
                     "detail": "unreachable"}
                )
                all_ready = False
            else:
                status, document, _ = answer
                ready = status == 200
                per_shard.append(
                    {"shard": client.shard_index, "ready": ready,
                     "detail": document.get("detail", "")}
                )
                all_ready = all_ready and ready
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

    def _metrics_document(self) -> dict[str, Any]:
        shards = []
        for client in self.server.clients:
            answer = client.try_call("GET", "/metrics")
            shards.append(
                {"shard": client.shard_index, "unreachable": True}
                if answer is None
                else {"shard": client.shard_index, **answer[1]}
            )
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
            "router": self.server.counters_snapshot(),
            "supervisor": self.server.supervisor.snapshot(),
            "coalescing": {
                "coalesced_hits": sum(per_shard.values()),
                "per_shard": per_shard,
            },
            "shards": shards,
        }

    def _owners(self) -> None:
        owners: list[dict[str, Any]] = []
        unreachable: list[int] = []
        for client in self.server.clients:
            answer = client.try_call("GET", "/owners")
            if answer is None:
                unreachable.append(client.shard_index)
                continue
            _, document, _ = answer
            for entry in document.get("owners", []):
                owners.append({**entry, "shard": client.shard_index})
        owners.sort(key=lambda entry: entry.get("owner", 0))
        document = {"owners": owners}
        if unreachable:
            document["unreachable_shards"] = unreachable
        self._respond(200, document)

    # ------------------------------------------------------------------
    # proxied work
    # ------------------------------------------------------------------
    def _reject_while_draining(self) -> bool:
        if self.server.state.draining:
            self._respond(
                503, {"error": "router is draining"}, retry_after=1
            )
            return True
        return False

    def _fenced(self, owner_id: int) -> bool:
        """503 + Retry-After when ``owner_id`` is mid-migration.

        Reads are fenced too, not just writes: scoring grants labels as
        a by-product, and a grant landing on the source after its slice
        was exported would silently diverge from the destination.
        """
        fence = self.server.fence
        if fence is None or owner_id not in fence[0]:
            return False
        self.server.count("fenced")
        self._respond(
            503,
            {
                "error": (
                    f"owner {owner_id} is migrating between shards; "
                    "retry shortly"
                ),
                "rebalance": fence[1],
            },
            retry_after=1,
        )
        return True

    def _score(self, owner_id: int, measure: str | None = None) -> None:
        self.server.count("score")
        if self._fenced(owner_id):
            return
        shard_map, clients = self.server.topology
        shard = shard_map.shard_of(owner_id)
        client = clients[shard]
        path = f"/score?owner={owner_id}"
        if measure is not None:
            path += f"&measure={measure}"
        try:
            status, document, retry_after = client.call("GET", path)
        except (ShardUnavailableError, RetryExhaustedError,
                CircuitOpenError) as error:
            self.server.count("shard_unavailable")
            self._respond(
                503,
                {"error": str(error), "shard": shard},
                retry_after=1,
            )
            return
        self._respond(status, document, retry_after=retry_after)

    def _score_batch(self) -> None:
        """Fan a batch out by owning shard, merge streams in order.

        Each shard streams its members' lines back in the order they
        were submitted; per-slot events let the response thread emit the
        merged stream in *request* order as soon as each line lands.  A
        shard dying mid-stream costs its remaining members 503 error
        lines; other shards' lines are unaffected.
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
        self.server.count("score_batch")
        shard_map, clients = self.server.topology
        fence = self.server.fence
        fenced_owners = fence[0] if fence is not None else frozenset()
        groups: dict[int, list[tuple[int, int]]] = {}
        slots: list[dict[str, Any] | None] = [None] * len(owners)
        arrived = [threading.Event() for _ in owners]
        for position, owner_id in enumerate(owners):
            if owner_id in fenced_owners:
                # mid-migration owners get a bounded per-line 503 instead
                # of racing the slice export on either shard
                self.server.count("fenced")
                slots[position] = {
                    "owner": owner_id,
                    "error": (
                        f"owner {owner_id} is migrating between shards; "
                        "retry shortly"
                    ),
                    "status": 503,
                    "retry_after": 1,
                }
                arrived[position].set()
                continue
            shard = shard_map.shard_of(owner_id)
            groups.setdefault(shard, []).append((position, owner_id))

        def fail_members(members, status, message, shard):
            for position, owner_id in members:
                if not arrived[position].is_set():
                    slots[position] = {
                        "owner": owner_id,
                        "error": message,
                        "status": status,
                        "shard": shard,
                    }
                    arrived[position].set()

        # live shard-reader streams, so teardown can force-close them and
        # unblock any reader still parked in readline()
        streams_lock = threading.Lock()
        open_streams: list[Any] = []

        def pump(shard: int, members: list[tuple[int, int]]) -> None:
            client = clients[shard]
            shard_body: dict[str, Any] = {
                "owners": [o for _, o in members]
            }
            if measure is not None:
                shard_body["measure"] = measure
            try:
                stream = client.open_stream("/score-batch", shard_body)
            except _ShardRefusal as refusal:
                fail_members(
                    members,
                    refusal.status,
                    refusal.document.get("error", "shard refused the batch"),
                    shard,
                )
                return
            except (ShardUnavailableError, RetryExhaustedError,
                    CircuitOpenError) as error:
                self.server.count("shard_unavailable")
                fail_members(members, 503, str(error), shard)
                return
            with streams_lock:
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
                        slots[position] = json.loads(raw.decode("utf-8"))
                        arrived[position].set()
            except Exception as error:
                self.server.count("shard_unavailable")
                fail_members(
                    members, 503, f"stream from shard {shard} died: {error}",
                    shard,
                )
            finally:
                with streams_lock:
                    if stream in open_streams:
                        open_streams.remove(stream)

        pumps = [
            threading.Thread(
                target=pump,
                args=(shard, members),
                name=f"batch-pump-shard-{shard}",
                daemon=True,
            )
            for shard, members in groups.items()
        ]
        for thread in pumps:
            thread.start()
        deadline = Deadline(self.server.request_timeout)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for position, owner_id in enumerate(owners):
            if not arrived[position].wait(timeout=deadline.remaining()):
                line: dict[str, Any] = {
                    "owner": owner_id,
                    "error": (
                        f"batch exceeded the "
                        f"{self.server.request_timeout:.1f}s budget"
                    ),
                    "status": 504,
                }
            else:
                line = slots[position] or {
                    "owner": owner_id,
                    "error": "internal: empty slot",
                    "status": 500,
                }
            self.wfile.write(json.dumps(line).encode("utf-8") + b"\n")
            self.wfile.flush()
        # Reliable teardown: a reader parked in readline() on a slow
        # shard would outlive a timed-out join and leak across requests.
        # Closing its stream forces readline() to return/raise, so every
        # pump provably exits before the handler does.
        with streams_lock:
            stranded = list(open_streams)
        for stream in stranded:
            try:
                stream.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
        for thread in pumps:
            thread.join(timeout=10.0)

    def _mutate(self) -> None:
        body = self._json_body()
        if body is None:
            return
        op = self._mutation_op(body)
        if op is None:
            return
        self.server.count("mutate")
        try:
            if op in OWNER_OPS:
                self._mutate_owner_addressed(op, body)
            else:
                self._mutate_broadcast(op, body)
        except (KeyError, TypeError, ValueError) as error:
            self._respond(*mutation_failure(op, error))

    def _mutate_owner_addressed(self, op: str, body: dict[str, Any]) -> None:
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
        client = clients[shard]
        try:
            status, document, retry_after = client.call(
                "POST", "/mutate", body, retries=False
            )
        except (ShardUnavailableError, CircuitOpenError) as error:
            self.server.count("shard_unavailable")
            self._respond(
                503,
                {"error": str(error), "shard": shard},
                retry_after=1,
            )
            return
        if op == "add_user" and status == 200:
            # make the new user visible in every shard's graph copy: a
            # graph-only add on non-owning shards (the user belongs to no
            # universe there, so nobody's version is bumped)
            others = [
                client_ for client_ in clients
                if client_.shard_index != shard
            ]
            failed = self._broadcast_to(
                others, {"op": "update_profile", "profile": body["profile"]}
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

    def _broadcast_to(
        self, clients: list[ShardClient], body: dict[str, Any]
    ) -> tuple[dict[int, dict[str, Any]], list[int]]:
        """POST one mutation to many shards concurrently.

        Returns ``(answers_by_shard, failed_shards)`` where a failure is
        an unreachable shard or a non-200 answer.
        """
        answers: dict[int, dict[str, Any]] = {}
        failed: list[int] = []
        lock = threading.Lock()

        def send(client: ShardClient) -> None:
            try:
                status, document, _ = client.call(
                    "POST", "/mutate", body, retries=False
                )
            except (ShardUnavailableError, CircuitOpenError) as error:
                with lock:
                    failed.append(client.shard_index)
                    answers[client.shard_index] = {"error": str(error)}
                return
            with lock:
                answers[client.shard_index] = document
                if status != 200:
                    failed.append(client.shard_index)

        threads = [
            threading.Thread(target=send, args=(client,), daemon=True)
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
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
        self.server.count("fenced")
        self._respond(
            503,
            {
                "error": (
                    f"graph mutation {op!r} deferred: a shard rebalance "
                    "is migrating owners; retry shortly"
                ),
                "rebalance": fence[1],
            },
            retry_after=1,
        )
        return True

    def _mutate_broadcast(self, op: str, body: dict[str, Any]) -> None:
        """Apply a graph-wide mutation on every shard; merge the acks."""
        if self._fence_blocks_broadcast(op):
            return
        self.server.count("broadcasts")
        answers, failed = self._broadcast_to(self.server.clients, body)
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

    # ------------------------------------------------------------------
    # plumbing (the parsing itself is shared with the worker)
    # ------------------------------------------------------------------
    def _request_body(self) -> bytes | None:
        header = self.headers.get("Content-Length")
        length = parse_content_length(header)
        if length is None:
            self._reject_content_length(header)
            return None
        return self.rfile.read(length) if length else b""

    def _respond(
        self,
        status: int,
        document: dict[str, Any],
        retry_after: int | None = None,
    ) -> None:
        payload = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Suppress access logs unless the router is verbose."""
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)


def build_router(
    shard_map: ShardMap,
    supervisor: ShardSupervisor,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 60.0,
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    state: ServiceState | None = None,
) -> ShardRouterServer:
    """Wire shard map + supervisor → router (port 0 = ephemeral)."""
    return ShardRouterServer(
        (host, port),
        shard_map,
        supervisor,
        request_timeout=request_timeout,
        retry_policy=retry_policy,
        state=state,
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
