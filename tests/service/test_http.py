"""Tests for the JSON HTTP front-end, run against in-process servers."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import types
import urllib.error
import urllib.request

import pytest

from repro.measures import available_measures
from repro.service import (
    AsyncRiskServer,
    OwnerStore,
    RiskEngine,
    ScoreScheduler,
    ShardMap,
    ShardRouterServer,
    async_http,
    build_server,
)

from .conftest import (
    SERVICE_SEED,
    StaticSupervisor,
    make_service_population,
    wait_until,
)
from .test_scheduler import GatedEngine


def get(url: str):
    """GET a URL; returns (status, document) even for error responses."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error


def post(url: str, document: dict):
    payload = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_request(url: str, payload: bytes, timeout: float = 10.0):
    """Send raw bytes; returns (response bytes, server closed the socket)."""
    host, port = url.removeprefix("http://").split(":")
    chunks: list[bytes] = []
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(payload)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except TimeoutError:
            return b"".join(chunks), False
    return b"".join(chunks), True


def assert_malformed_length_is_rejected(url: str, length: str) -> None:
    """``POST /mutate`` with a bad Content-Length: 400, then close."""
    response, closed = raw_request(
        url,
        (
            "POST /mutate HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1"),
    )
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), response
    assert b"\r\nConnection: close" in head, head
    assert json.loads(body) == {"error": f"invalid Content-Length {length!r}"}
    assert closed, "the connection must close: the body extent is unknown"


def serve(server: AsyncRiskServer):
    """Run a server on a daemon thread until the calling test is done."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def shut_down(server: AsyncRiskServer, thread: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    server.scheduler.shutdown(wait=False)
    thread.join(timeout=10)


def make_engine() -> RiskEngine:
    """A real engine over a fresh copy of the service cohort."""
    store = OwnerStore.from_population(make_service_population())
    return RiskEngine(store, seed=SERVICE_SEED)


class EmptyStore:
    """Minimal store for fake engines: ``/healthz`` and ``/metrics``
    dereference ``engine.store``, and ``version`` raising keeps
    coalescing out of the gated tests."""

    def owner_ids(self):
        return ()

    def version(self, owner_id):
        raise KeyError(owner_id)


def gated_engine() -> GatedEngine:
    """A :class:`GatedEngine` the server's read endpoints can describe."""
    engine = GatedEngine()
    engine.store = EmptyStore()
    engine.metrics = types.SimpleNamespace(snapshot=dict)
    return engine


@pytest.fixture(scope="module")
def live_server():
    """One real engine behind a live HTTP server, shared by the module.

    Module scope keeps the cold-scoring cost down; the endpoint tests are
    all read-only (and cache hits besides the first score).
    """
    server = build_server(make_engine(), max_workers=2, max_pending=8)
    thread = serve(server)
    yield server
    shut_down(server, thread)


@pytest.fixture(scope="module", params=["server", "router"])
def front_door(request, live_server):
    """Each front door in turn: the risk server itself, then a router
    (one shard) in front of it.  Both run on the shared HTTP core."""
    if request.param == "server":
        yield live_server
        return
    router = ShardRouterServer(
        ("127.0.0.1", 0), ShardMap(1), StaticSupervisor([live_server])
    )
    thread = serve(router)
    yield router
    router.shutdown()
    router.server_close()
    thread.join(timeout=10)


def assert_rejected_and_closed(url: str, payload: bytes, status: int):
    """The reader answers ``status`` with a JSON error, then closes."""
    response, closed = raw_request(url, payload)
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), response[:200]
    assert b"\r\nConnection: close" in head, head
    assert "error" in json.loads(body)
    assert closed, "the connection must close after a rejected request"


class TestWireLimits:
    """The shared reader's limits, which are ``http.client``'s: each
    rejection is answered (never a silent drop), closes the
    connection, logs no traceback, and leaves the server serving."""

    @pytest.fixture(autouse=True)
    def no_tracebacks(self, front_door, caplog):
        yield
        assert not [
            record for record in caplog.records
            if record.levelname in ("ERROR", "CRITICAL")
        ]
        assert get(f"{front_door.url}/healthz")[0] == 200

    def test_overlong_request_line_is_414(self, front_door):
        target = "/healthz?pad=" + "x" * 70_000
        assert_rejected_and_closed(
            front_door.url,
            f"GET {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode(),
            414,
        )

    def test_overlong_header_line_is_431(self, front_door):
        assert_rejected_and_closed(
            front_door.url,
            (
                "GET /healthz HTTP/1.1\r\nHost: test\r\n"
                f"X-Pad: {'x' * 70_000}\r\n\r\n"
            ).encode(),
            431,
        )

    def test_more_than_a_hundred_headers_is_431(self, front_door):
        # 100 + Host
        headers = "".join(f"X-Header-{i}: {i}\r\n" for i in range(100))
        assert_rejected_and_closed(
            front_door.url,
            f"GET /healthz HTTP/1.1\r\nHost: test\r\n{headers}\r\n".encode(),
            431,
        )

    def test_a_hundred_headers_are_served(self, front_door):
        # 98 + Host + Connection: exactly the limit
        headers = "".join(f"X-Header-{i}: {i}\r\n" for i in range(98))
        response, _ = raw_request(
            front_door.url,
            (
                "GET /healthz HTTP/1.1\r\nHost: test\r\n"
                f"{headers}Connection: close\r\n\r\n"
            ).encode(),
        )
        assert response.startswith(b"HTTP/1.1 200 "), response[:200]

    def test_unsupported_method_is_a_json_501(self, front_door):
        host, port = front_door.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("DELETE", "/score")
            response = connection.getresponse()
            assert response.status == 501
            assert json.loads(response.read()) == {
                "error": "unsupported method 'DELETE'"
            }
        finally:
            connection.close()


def test_a_busy_port_raises_at_construction():
    """Both front doors bind in the constructor, so a busy port is an
    ``OSError`` there, never a listener thread that dies quietly."""
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        with pytest.raises(OSError):
            build_server(make_engine(), port=port)
        with pytest.raises(OSError):
            ShardRouterServer(
                ("127.0.0.1", port), ShardMap(1), StaticSupervisor([])
            )


def test_stopping_with_an_idle_keep_alive_connection_logs_no_error(caplog):
    """A connection's handler ends on its own when the server stops: left
    to ``asyncio.run``'s cancellation, Python 3.11 logs a
    ``CancelledError`` from the stream callback once per connection."""
    server = build_server(gated_engine(), max_workers=1, max_pending=4)
    thread = serve(server)
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()  # the connection stays open, idle
        shut_down(server, thread)
    finally:
        connection.close()
    assert not [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelname == "ERROR"
    ]


class TestEndpoints:
    def test_healthz(self, live_server):
        status, document, _ = get(f"{live_server.url}/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["owners"] == 2
        assert document["breaker"] == "closed"

    def test_owners_lists_the_cohort(self, live_server):
        status, document, _ = get(f"{live_server.url}/owners")
        assert status == 200
        assert len(document["owners"]) == 2
        for row in document["owners"]:
            assert {"owner", "version", "cache_fresh"} <= set(row)

    def test_get_score_then_cache_hit(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, first, _ = get(f"{live_server.url}/score?owner={owner_id}")
        assert status == 200
        assert first["owner"] == owner_id
        assert first["labels"]
        status, second, _ = get(f"{live_server.url}/score?owner={owner_id}")
        assert status == 200
        assert second["source"] == "cache"
        assert second["digest"] == first["digest"]

    def test_post_score(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{live_server.url}/score", {"owner": owner_id}
        )
        assert status == 200
        assert document["owner"] == owner_id

    def test_metrics_exposes_all_three_layers(self, live_server):
        status, document, _ = get(f"{live_server.url}/metrics")
        assert status == 200
        assert set(document) == {"engine", "scheduler", "breaker", "admission"}
        assert 0.0 <= document["engine"]["cache_hit_rate"] <= 1.0
        assert document["scheduler"]["max_pending"] == 8
        assert document["breaker"]["state"] == "closed"

    def test_every_measure_matches_the_in_process_engine(
        self, mutable_server
    ):
        """HTTP serving never changes a score: every measure's record is
        the one a same-seed engine computes in process."""
        reference = make_engine()
        owner = reference.store.owner_ids()[0]
        for measure in [None, *available_measures()]:
            query = f"/score?owner={owner}"
            if measure is not None:
                query += f"&measure={measure}"
            status, served, _ = get(f"{mutable_server.url}{query}")
            assert status == 200, (measure, served)
            expected = json.loads(
                json.dumps(reference.score(owner, measure=measure).to_dict())
            )
            # identical but for wall-clock timing
            served.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert served == expected, measure

    def test_keep_alive_serves_many_requests_per_connection(
        self, live_server
    ):
        host, port = live_server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_unsupported_method_is_501(self, live_server):
        host, port = live_server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("DELETE", "/score")
            assert connection.getresponse().status == 501
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(
        self, live_server, length
    ):
        assert_malformed_length_is_rejected(live_server.url, length)
        # the server itself is unharmed
        assert get(f"{live_server.url}/healthz")[0] == 200

    def test_bad_requests(self, live_server):
        status, document, _ = get(f"{live_server.url}/score")
        assert status == 400
        status, document, _ = get(f"{live_server.url}/score?owner=banana")
        assert status == 400
        status, document = post(f"{live_server.url}/score", {"who": 3})
        assert status == 400
        status, document, _ = get(f"{live_server.url}/nope")
        assert status == 404
        assert "unknown path" in document["error"]

    def test_unknown_owner_is_404(self, live_server):
        status, document, _ = get(f"{live_server.url}/score?owner=987654")
        assert status == 404
        assert "987654" in document["error"]
        # a 404 is a healthy service, not a failure
        assert live_server.breaker.state == "closed"


class TestResilienceMapping:
    def test_saturation_maps_to_429_with_retry_after(self):
        # saturation is the client's cue to slow down (429), distinct
        # from the service being unable to serve at all (503)
        engine = gated_engine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        thread = serve(server)
        try:
            blocked = threading.Thread(
                target=get, args=(f"{server.url}/score?owner=1",)
            )
            blocked.start()
            # wait until the first request is actually scoring
            assert wait_until(engine.running_now)
            status, document, response = get(f"{server.url}/score?owner=2")
            assert status == 429
            assert response.headers["Retry-After"] == "1"
            assert "saturated" in document["error"]
        finally:
            engine.gate.set()
            blocked.join(timeout=10)
            shut_down(server, thread)

    def test_deadline_maps_to_504_and_breaker_opens(self, monkeypatch):
        monkeypatch.setattr(async_http, "BREAKER_FAILURE_THRESHOLD", 1)
        monkeypatch.setattr(async_http, "BREAKER_RECOVERY_TIME", 300.0)
        engine = gated_engine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=4)
        server = AsyncRiskServer(
            ("127.0.0.1", 0), engine, scheduler, request_timeout=0.2
        )
        thread = serve(server)
        try:
            status, document, _ = get(f"{server.url}/score?owner=1")
            assert status == 504
            assert "budget" in document["error"]
            # one failure trips the threshold-1 breaker: fast 503s now
            status, document, _ = get(f"{server.url}/score?owner=1")
            assert status == 503
            assert server.breaker.state == "open"
        finally:
            engine.gate.set()
            shut_down(server, thread)


@pytest.fixture
def mutable_server():
    """A fresh (function-scoped) server whose store the test may mutate."""
    server = build_server(make_engine(), max_workers=2, max_pending=8)
    thread = serve(server)
    yield server
    shut_down(server, thread)


class TestReadiness:
    def test_readyz_reports_ready(self, live_server):
        status, document, _ = get(f"{live_server.url}/readyz")
        assert status == 200
        assert document["ready"] is True
        assert document["scheduler_accepting"] is True

    def test_readyz_is_503_before_warmup(self, mutable_server):
        mutable_server.state.ready = False
        mutable_server.state.detail = "starting"
        status, document, _ = get(f"{mutable_server.url}/readyz")
        assert status == 503
        assert document["ready"] is False
        assert document["detail"] == "starting"
        mutable_server.state.ready = True
        status, document, _ = get(f"{mutable_server.url}/readyz")
        assert status == 200

    def test_draining_rejects_work_but_keeps_health(self, mutable_server):
        mutable_server.state.draining = True
        owner_id = mutable_server.engine.store.owner_ids()[0]
        status, document, _ = get(
            f"{mutable_server.url}/score?owner={owner_id}"
        )
        assert status == 503
        assert "draining" in document["error"]
        status, _ = post(f"{mutable_server.url}/mutate", {"op": "touch"})
        assert status == 503
        status, document, _ = get(f"{mutable_server.url}/readyz")
        assert status == 503
        assert document["draining"] is True
        # liveness never flips: the pod is alive, just not routable
        status, document, _ = get(f"{mutable_server.url}/healthz")
        assert status == 200
        assert document["draining"] is True


class TestMutate:
    def test_touch_acks_with_versions(self, mutable_server):
        owner_id = mutable_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{mutable_server.url}/mutate", {"op": "touch", "owner": owner_id}
        )
        assert status == 200
        assert document["ok"] is True
        assert document["affected"] == [owner_id]
        assert document["versions"][str(owner_id)] == 1
        assert document["seq"] is None  # plain in-memory store: no WAL

    def test_add_friendship_between_universes(self, mutable_server):
        store = mutable_server.engine.store
        first, second = store.owner_ids()
        status, document = post(
            f"{mutable_server.url}/mutate",
            {"op": "add_friendship", "a": first, "b": second},
        )
        assert status == 200
        assert document["affected"] == sorted([first, second])
        assert store.graph.are_friends(first, second)

    def test_unknown_op_is_400_with_vocabulary(self, mutable_server):
        status, document = post(
            f"{mutable_server.url}/mutate", {"op": "drop_table"}
        )
        assert status == 400
        assert "unknown op" in document["error"]
        assert "touch" in document["ops"]

    def test_unknown_user_is_404(self, mutable_server):
        owner_id = mutable_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{mutable_server.url}/mutate",
            {"op": "add_friendship", "a": owner_id, "b": 999_999},
        )
        assert status == 404

    def test_self_edge_is_400(self, mutable_server):
        owner_id = mutable_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{mutable_server.url}/mutate",
            {"op": "add_friendship", "a": owner_id, "b": owner_id},
        )
        assert status == 400

    def test_malformed_arguments_are_400(self, mutable_server):
        status, document = post(f"{mutable_server.url}/mutate", {"op": "touch"})
        assert status == 400
        assert "malformed arguments" in document["error"]

    def test_non_json_body_is_400(self, mutable_server):
        request = urllib.request.Request(
            f"{mutable_server.url}/mutate",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30):
                raise AssertionError("expected a 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_mutation_invalidates_served_scores(self, mutable_server):
        owner_id = mutable_server.engine.store.owner_ids()[0]
        status, first, _ = get(f"{mutable_server.url}/score?owner={owner_id}")
        assert status == 200 and first["source"] == "cold"
        post(
            f"{mutable_server.url}/mutate", {"op": "touch", "owner": owner_id}
        )
        status, rescored, _ = get(
            f"{mutable_server.url}/score?owner={owner_id}"
        )
        assert status == 200
        assert rescored["source"] == "warm"
        assert rescored["version"] == 1


def post_ndjson(url: str, document: dict):
    """POST and parse an NDJSON stream; returns (status, lines, response)."""
    payload = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        body = response.read().decode("utf-8")
        lines = [json.loads(line) for line in body.splitlines()]
        return response.status, lines, response


class TestScoreBatch:
    def test_batch_streams_one_line_per_owner_in_request_order(
        self, live_server
    ):
        owners = list(live_server.engine.store.owner_ids())
        status, lines, response = post_ndjson(
            f"{live_server.url}/score-batch", {"owners": owners}
        )
        assert status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        assert [line["owner"] for line in lines] == owners
        singles = {
            owner: get(f"{live_server.url}/score?owner={owner}")[1]
            for owner in owners
        }
        for line in lines:
            assert line["digest"] == singles[line["owner"]]["digest"]

    def test_unknown_owner_becomes_an_error_line_not_a_failed_batch(
        self, live_server
    ):
        owners = list(live_server.engine.store.owner_ids())
        status, lines, _ = post_ndjson(
            f"{live_server.url}/score-batch",
            {"owners": [owners[0], 999999]},
        )
        assert status == 200
        assert lines[0]["owner"] == owners[0]
        assert "digest" in lines[0]
        assert lines[1] == {
            "owner": 999999,
            "error": "unknown owner id: 999999",
            "status": 404,
        }

    def test_malformed_bodies_are_400(self, live_server):
        for bad in ({}, {"owners": []}, {"owners": "1"}, {"owners": [True]}):
            status, document = post(f"{live_server.url}/score-batch", bad)
            assert status == 400, (bad, document)
            assert "owners" in document["error"]

    def test_drain_mid_batch_finishes_stream_and_rejects_new_work(self):
        """SIGTERM while an NDJSON stream is in flight (the drain
        contract of docs/service.md): the accepted batch runs to
        completion — every line arrives — while new requests get 503."""
        engine = gated_engine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        thread = serve(server)
        try:
            owners = [1, 2, 3]
            results: dict[str, tuple] = {}

            def run_batch():
                results["batch"] = post_ndjson(
                    f"{server.url}/score-batch", {"owners": owners}
                )

            batch_thread = threading.Thread(target=run_batch)
            batch_thread.start()
            assert wait_until(engine.running_now)

            # the SIGTERM handler's sequence: flip draining first...
            server.state.draining = True
            status, document, _ = get(f"{server.url}/score?owner=9")
            assert status == 503
            assert "draining" in document["error"]
            status, document = post(
                f"{server.url}/mutate", {"op": "touch", "owner": 1}
            )
            assert status == 503

            # ...then drain the scheduler; the in-flight stream finishes
            engine.gate.set()
            summary = scheduler.shutdown(drain=True, timeout=30)
            assert summary["drained"] is True
            batch_thread.join(timeout=30)
            status, lines, _ = results["batch"]
            assert status == 200
            assert [line["owner"] for line in lines] == owners
            assert all("error" not in line for line in lines)
        finally:
            engine.gate.set()
            shut_down(server, thread)
