"""Tests for the HTTP server's parity and concurrency machinery.

Three contracts pinned here (the route-by-route wire contract lives in
``test_http.py``):

* **parity** — routes that ask the same question get the same answer:
  ``POST /score`` and ``GET /score``, a ``/score-batch`` line and the
  single ``/score`` it stands for, and every served document against
  what a same-seed in-process engine and store hold;
* **bounded admission** — a full admission queue sheds load explicitly
  with *429 + Retry-After* (slow down), never a bare 503 (fail over),
  and releases its slot whatever way the request ends;
* **coalescing** — N concurrent ``/score`` hits for one
  ``(owner, measure, version)`` collapse into a single engine call whose
  record fans out to every waiter, while a mutation landing mid-coalesce
  bumps the version so later waiters compute (and see) the new score.
"""

from __future__ import annotations

import threading

import pytest

from repro.measures import available_measures
from repro.service import (
    AdmissionQueue,
    AsyncRiskServer,
    ScoreScheduler,
    build_server,
)
from repro.service.wal import MUTATION_OPS

from .conftest import wait_until
from .test_http import (
    get,
    make_engine,
    post,
    post_ndjson,
    serve,
    shut_down,
)
from .test_scheduler import GatedEngine


# ---------------------------------------------------------------------------
# the admission queue itself
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_counts_admissions_and_sheds(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.try_enter() and queue.try_enter()
        assert not queue.try_enter()  # full: shed
        queue.leave()
        assert queue.try_enter()  # the slot came back
        snapshot = queue.snapshot()
        assert snapshot == {
            "capacity": 2,
            "depth": 2,
            "peak": 2,
            "admitted": 3,
            "shed": 1,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(capacity=0)


# ---------------------------------------------------------------------------
# parity: one question, one answer, whichever route asks it
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def paired():
    """A live server and a same-seed in-process engine to check it by."""
    server = build_server(make_engine(), max_workers=2, max_pending=8)
    thread = serve(server)
    yield server, make_engine()
    shut_down(server, thread)


class TestParity:
    def test_post_score_matches_get(self, paired):
        server, _ = paired
        owner = server.engine.store.owner_ids()[0]
        status, via_get, _ = get(f"{server.url}/score?owner={owner}")
        post_status, via_post = post(f"{server.url}/score", {"owner": owner})
        assert (status, post_status) == (200, 200)
        assert via_post["digest"] == via_get["digest"]

    def test_error_responses_are_identical(self, paired):
        """Each malformed request gets its exact status and document."""
        server, _ = paired
        owners_shape = {"error": 'body must be JSON like {"owners": [<id>, ...]}'}
        cases = [
            ("GET", "/score", None, 400, {"error": "missing ?owner=<id>"}),
            ("GET", "/score?owner=banana", None,
             400, {"error": "invalid owner id 'banana'"}),
            ("GET", "/score?owner=987654", None,
             404, {"error": "unknown owner id: 987654"}),
            ("GET", "/nope", None, 404, {"error": "unknown path '/nope'"}),
            ("POST", "/score", {"who": 3},
             400, {"error": 'body must be JSON like {"owner": <id>}'}),
            ("POST", "/mutate", {"op": "drop_table"}, 400, {
                "error": "unknown op 'drop_table'",
                "ops": list(MUTATION_OPS),
            }),
            ("POST", "/score-batch", {"owners": []}, 400, owners_shape),
            ("POST", "/score-batch", {"owners": "1"}, 400, owners_shape),
        ]
        for method, path, body, status, document in cases:
            if method == "GET":
                answer = get(f"{server.url}{path}")[:2]
            else:
                answer = post(f"{server.url}{path}", body)
            assert answer == (status, document), (method, path)

    def test_unknown_measure_answers_the_registry_menu(self, paired):
        server, _ = paired
        owner = server.engine.store.owner_ids()[0]
        menu = {
            "error": "unknown risk measure 'bogus'; see GET /measures",
            "measures": list(available_measures()),
        }
        assert "stranger" in menu["measures"]
        via_get = get(f"{server.url}/score?owner={owner}&measure=bogus")[:2]
        via_post = post(
            f"{server.url}/score", {"owner": owner, "measure": "bogus"}
        )
        assert via_get == via_post == (400, menu)

    def test_health_owners_and_readyz_match(self, paired):
        server, reference = paired
        owners = list(reference.store.owner_ids())
        _, health, _ = get(f"{server.url}/healthz")
        assert (health["status"], health["owners"]) == ("ok", len(owners))
        status, listed, _ = get(f"{server.url}/owners")
        assert status == 200
        assert [row["owner"] for row in listed["owners"]] == owners
        assert {
            row["owner"]: row["version"] for row in listed["owners"]
        } == {owner: reference.store.version(owner) for owner in owners}
        status, ready, _ = get(f"{server.url}/readyz")
        assert (status, ready["ready"]) == (200, True)

    def test_metrics_adds_only_the_admission_block(self, paired):
        server, _ = paired
        status, document, _ = get(f"{server.url}/metrics")
        assert status == 200
        layers = {"engine", "scheduler", "breaker"}
        assert set(document) - layers == {"admission"}
        assert document["admission"]["capacity"] == 256
        assert document["admission"]["depth"] == 0
        assert document["scheduler"]["coalesced_hits"] >= 0

    def test_score_batch_streams_ndjson_in_request_order(self, paired):
        server, reference = paired
        owners = list(server.engine.store.owner_ids())[::-1]
        status, lines, response = post_ndjson(
            f"{server.url}/score-batch", {"owners": owners}
        )
        assert status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        assert [line["owner"] for line in lines] == owners
        for line in lines:
            assert line["digest"] == reference.score(line["owner"]).digest

    def test_score_batch_unknown_owner_is_an_error_line(self, paired):
        server, _ = paired
        owners = list(server.engine.store.owner_ids())
        status, lines, _ = post_ndjson(
            f"{server.url}/score-batch", {"owners": [owners[0], 999999]}
        )
        assert status == 200
        assert "digest" in lines[0]
        single_status, single, _ = get(f"{server.url}/score?owner=999999")
        assert lines[1] == {"owner": 999999, **single, "status": single_status}


# ---------------------------------------------------------------------------
# bounded admission: queue full -> 429 + Retry-After, never a bare 503
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_sheds_with_429_and_retry_after(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        server = AsyncRiskServer(
            ("127.0.0.1", 0), engine, scheduler, admission_capacity=1
        )
        thread = serve(server)
        try:
            blocked_result: list = []
            blocked = threading.Thread(
                target=lambda: blocked_result.append(
                    get(f"{server.url}/score?owner=1")
                )
            )
            blocked.start()
            assert wait_until(engine.running_now)
            status, document, response = get(f"{server.url}/score?owner=2")
            assert status == 429  # shed, not an outage: don't fail over
            assert response.headers["Retry-After"] == "1"
            assert "admission queue full" in document["error"]
            assert document["pending"] == 1
            _, metrics, _ = get(f"{server.url}/metrics")
            assert metrics["admission"]["shed"] == 1
            assert metrics["admission"]["depth"] == 1
        finally:
            engine.gate.set()
            blocked.join(timeout=10)
            shut_down(server, thread)
        assert blocked_result and blocked_result[0][0] == 200

    def test_slot_is_released_when_the_request_finishes(self):
        engine = GatedEngine()
        engine.gate.set()  # instant scores
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        server = AsyncRiskServer(
            ("127.0.0.1", 0), engine, scheduler, admission_capacity=1
        )
        thread = serve(server)
        try:
            for owner in (1, 2, 3):  # sequential: the one slot is enough
                status, _, _ = get(f"{server.url}/score?owner={owner}")
                assert status == 200
            _, metrics, _ = get(f"{server.url}/metrics")
            assert metrics["admission"]["admitted"] == 3
            assert metrics["admission"]["shed"] == 0
            assert metrics["admission"]["depth"] == 0
        finally:
            shut_down(server, thread)

    def test_bad_requests_release_their_slot_too(self):
        engine = GatedEngine()
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        server = AsyncRiskServer(
            ("127.0.0.1", 0), engine, scheduler, admission_capacity=1
        )
        thread = serve(server)
        try:
            status, _, _ = get(f"{server.url}/score?owner=banana")
            assert status == 400
            status, _, _ = get(f"{server.url}/score?owner=1")
            assert status == 200  # the 400 released its slot
            _, metrics, _ = get(f"{server.url}/metrics")
            assert metrics["admission"]["depth"] == 0
        finally:
            shut_down(server, thread)

    def test_scheduler_saturation_still_maps_to_429(self):
        # admission has room, but the scheduler queue is full: the
        # scheduler's 429-vs-503 split must reach the client unchanged
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        thread = serve(server)
        try:
            blocked = threading.Thread(
                target=get, args=(f"{server.url}/score?owner=1",)
            )
            blocked.start()
            assert wait_until(engine.running_now)
            status, document, response = get(f"{server.url}/score?owner=2")
            assert status == 429
            assert response.headers["Retry-After"] == "1"
            assert "saturated" in document["error"]
        finally:
            engine.gate.set()
            blocked.join(timeout=10)
            shut_down(server, thread)

    def test_draining_rejects_work_with_503(self):
        engine = GatedEngine()
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        thread = serve(server)
        try:
            server.state.draining = True
            status, document, _ = get(f"{server.url}/score?owner=1")
            assert status == 503  # an outage to fail over from, not a shed
            assert "draining" in document["error"]
            status, document = post(
                f"{server.url}/mutate", {"op": "touch", "owner": 1}
            )
            assert status == 503
            status, document, _ = get(f"{server.url}/readyz")
            assert status == 503
            status, document, _ = get(f"{server.url}/healthz")
            assert status == 200
            assert document["draining"] is True
        finally:
            shut_down(server, thread)


# ---------------------------------------------------------------------------
# request coalescing against a real engine
# ---------------------------------------------------------------------------
@pytest.fixture
def async_server():
    """A fresh server over a real engine the test may instrument."""
    server = build_server(make_engine(), max_workers=2, max_pending=32)
    thread = serve(server)
    yield server
    shut_down(server, thread)


class GateAfterScore:
    """Wrap ``engine.score`` to block *after* computing the record.

    The future stays unresolved while the gate is closed, holding the
    coalescing window open deterministically — but the score itself ran
    against the store state at call time, so records capture the version
    they were computed under.
    """

    def __init__(self, engine):
        self._original = engine.score
        self.started = threading.Event()
        self.gate = threading.Event()
        engine.score = self

    def __call__(self, owner_id, measure=None):
        record = self._original(owner_id, measure=measure)
        self.started.set()
        self.gate.wait(timeout=30)
        return record


class TestCoalescing:
    def test_concurrent_hits_collapse_into_one_engine_call(
        self, async_server
    ):
        engine = async_server.engine
        owner = engine.store.owner_ids()[0]
        gated = GateAfterScore(engine)
        waiters = 6
        results: list = [None] * waiters

        def hit(index: int) -> None:
            results[index] = get(f"{async_server.url}/score?owner={owner}")

        threads = [
            threading.Thread(target=hit, args=(index,))
            for index in range(waiters)
        ]
        for thread in threads:
            thread.start()
        # every waiter must be admitted (and coalesced) before release
        assert wait_until(
            lambda: get(f"{async_server.url}/metrics")[1]["admission"][
                "depth"
            ]
            == waiters
        )
        gated.gate.set()
        for thread in threads:
            thread.join(timeout=30)

        digests = {result[1]["digest"] for result in results}
        assert all(result[0] == 200 for result in results)
        assert len(digests) == 1  # one record fanned out to every waiter
        _, metrics, _ = get(f"{async_server.url}/metrics")
        assert metrics["engine"]["requests"] == 1  # the collapse itself
        assert metrics["scheduler"]["coalesced_hits"] == waiters - 1

    def test_mid_coalesce_mutation_gives_later_waiters_the_new_version(
        self, async_server
    ):
        engine = async_server.engine
        owner = engine.store.owner_ids()[0]
        gated = GateAfterScore(engine)
        results: dict[str, tuple] = {}

        def hit(name: str) -> None:
            results[name] = get(f"{async_server.url}/score?owner={owner}")

        first = threading.Thread(target=hit, args=("first",))
        first.start()
        assert gated.started.wait(timeout=30)

        # while the v0 score is in flight, a second waiter coalesces...
        joined = threading.Thread(target=hit, args=("joined",))
        joined.start()
        assert wait_until(
            lambda: get(f"{async_server.url}/metrics")[1]["scheduler"][
                "coalesced_hits"
            ]
            == 1
        )

        # ...then a mutation bumps the version mid-coalesce
        status, acked = post(
            f"{async_server.url}/mutate", {"op": "touch", "owner": owner}
        )
        assert status == 200 and acked["versions"][str(owner)] == 1

        # a waiter arriving after the mutation keys on the new version:
        # it must miss the stale in-flight entry and compute fresh
        late = threading.Thread(target=hit, args=("late",))
        late.start()
        assert wait_until(
            lambda: get(f"{async_server.url}/metrics")[1]["scheduler"][
                "pending"
            ]
            == 2
        )
        gated.gate.set()
        for thread in (first, joined, late):
            thread.join(timeout=30)

        assert {name: result[0] for name, result in results.items()} == {
            "first": 200,
            "joined": 200,
            "late": 200,
        }
        # the coalesced pair saw the pre-mutation record...
        assert results["first"][1] == results["joined"][1]
        assert results["first"][1]["version"] == 0
        # ...the late waiter saw the post-mutation score, never stale
        assert results["late"][1]["version"] == 1
        _, metrics, _ = get(f"{async_server.url}/metrics")
        assert metrics["engine"]["requests"] == 2
        assert metrics["scheduler"]["coalesced_hits"] == 1


# ---------------------------------------------------------------------------
# cached reads: a fresh memo is answered on the event loop
# ---------------------------------------------------------------------------
def count_submissions(monkeypatch, scheduler) -> list:
    """Record every ``scheduler.submit`` (each one is a pool-thread
    score)."""
    calls: list = []
    submit = scheduler.submit

    def recording(owner_id, measure=None):
        calls.append((owner_id, measure))
        return submit(owner_id, measure)

    monkeypatch.setattr(scheduler, "submit", recording)
    return calls


class TestCachedReads:
    def test_fresh_memo_is_served_without_a_submission(
        self, async_server, monkeypatch
    ):
        owner = async_server.engine.store.owner_ids()[0]
        status, cold, _ = get(f"{async_server.url}/score?owner={owner}")
        assert (status, cold["source"]) == (200, "cold")
        before = get(f"{async_server.url}/metrics")[1]["engine"]
        submissions = count_submissions(monkeypatch, async_server.scheduler)
        status, hit, _ = get(f"{async_server.url}/score?owner={owner}")
        after = get(f"{async_server.url}/metrics")[1]["engine"]
        assert status == 200
        assert hit["source"] == "cache"
        assert hit["digest"] == cold["digest"]
        assert hit["elapsed_seconds"] == 0.0
        assert submissions == []  # no pool thread, no task
        assert after["requests"] == before["requests"] + 1
        assert after["cache_hits"] == before["cache_hits"] + 1

    def test_a_batch_streams_fresh_memos_without_a_submission(
        self, async_server, monkeypatch
    ):
        owners = list(async_server.engine.store.owner_ids())
        warm, cold = owners[0], owners[1]
        status, scored, _ = get(f"{async_server.url}/score?owner={warm}")
        assert status == 200
        submissions = count_submissions(monkeypatch, async_server.scheduler)
        status, lines, _ = post_ndjson(
            f"{async_server.url}/score-batch", {"owners": [warm, cold, warm]}
        )
        assert status == 200
        assert [line["source"] for line in lines] == ["cache", "cold", "cache"]
        assert lines[0]["digest"] == lines[2]["digest"] == scored["digest"]
        assert submissions == [(cold, None)]  # only the miss

    def test_a_read_after_an_acked_mutation_sees_its_version(
        self, async_server
    ):
        owner = async_server.engine.store.owner_ids()[0]
        assert get(f"{async_server.url}/score?owner={owner}")[0] == 200
        for _ in range(3):
            # the pre-mutation memo is fresh right up to the ack
            status, hit, _ = get(f"{async_server.url}/score?owner={owner}")
            assert (status, hit["source"]) == (200, "cache")
            status, acked = post(
                f"{async_server.url}/mutate", {"op": "touch", "owner": owner}
            )
            assert status == 200
            version = acked["versions"][str(owner)]
            status, record, _ = get(
                f"{async_server.url}/score?owner={owner}"
            )
            assert status == 200
            assert record["version"] == version > hit["version"]
            assert record["source"] == "warm"


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_shutdown_before_url_unblocks_waiters(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1)
        server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        thread = serve(server)
        assert server.url.startswith("http://127.0.0.1:")
        shut_down(server, thread)
        assert not thread.is_alive()

    def test_mutations_ack_through_the_async_path(self, async_server):
        owner = async_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{async_server.url}/mutate", {"op": "touch", "owner": owner}
        )
        assert status == 200
        assert document["ok"] is True
        assert document["versions"][str(owner)] == 1
        assert document["seq"] is None  # plain in-memory store: no WAL
        status, record, _ = get(f"{async_server.url}/score?owner={owner}")
        assert status == 200
        assert record["version"] == 1
