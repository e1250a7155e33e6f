"""Measures served over the single-node HTTP API.

The sharded serving path (router fan-out with ``measure``) is covered
in ``tests/service/test_sharding.py`` against the same digests.
"""

from __future__ import annotations

import pytest

from repro.measures import DEFAULT_MEASURE, available_measures, get_measure
from repro.service import OwnerStore, RiskEngine, build_server

from ..service.test_http import get, post, post_ndjson, serve
from .conftest import MEASURE_SEED, make_measure_population


@pytest.fixture(scope="module")
def live_server():
    """One live server over the measure cohort, shared by the module."""
    store = OwnerStore.from_population(make_measure_population())
    engine = RiskEngine(store, seed=MEASURE_SEED)
    server = build_server(engine, max_workers=2, max_pending=16)
    thread = serve(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestMeasuresEndpoint:
    def test_lists_the_registry(self, live_server):
        status, document, _ = get(f"{live_server.url}/measures")
        assert status == 200
        rows = document["measures"]
        assert [row["name"] for row in rows] == list(available_measures())
        defaults = [row["name"] for row in rows if row["default"]]
        assert defaults == [DEFAULT_MEASURE]


@pytest.mark.parametrize("name", available_measures())
class TestScoreWithMeasure:
    def test_get_score_tags_the_measure(self, live_server, name):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document, _ = get(
            f"{live_server.url}/score?owner={owner_id}&measure={name}"
        )
        assert status == 200
        assert document["measure"] == name
        assert document["owner"] == owner_id
        # the served digest equals a direct computation's
        cached = live_server.engine.cached(owner_id, measure=name)
        assert cached is not None and cached.digest == document["digest"]

    def test_post_score_accepts_a_measure_field(self, live_server, name):
        owner_id = live_server.engine.store.owner_ids()[1]
        status, document = post(
            f"{live_server.url}/score", {"owner": owner_id, "measure": name}
        )
        assert status == 200
        assert document["measure"] == name

    def test_batch_scores_every_owner_under_the_measure(
        self, live_server, name
    ):
        owners = list(live_server.engine.store.owner_ids())
        status, lines, _ = post_ndjson(
            f"{live_server.url}/score-batch",
            {"owners": owners, "measure": name},
        )
        assert status == 200
        assert [line["owner"] for line in lines] == owners
        for line in lines:
            assert line["measure"] == name
            assert line["digest"]

    def test_describe_blocks_are_served(self, live_server, name):
        """Each measure's ``describe`` payload rides on the response."""
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document, _ = get(
            f"{live_server.url}/score?owner={owner_id}&measure={name}"
        )
        assert status == 200
        cached = live_server.engine.cached(owner_id, measure=name)
        blocks = get_measure(name).describe(cached.result)
        for key in blocks:
            assert key in document


class TestUnknownMeasure:
    def test_get_unknown_measure_is_400_with_menu(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document, _ = get(
            f"{live_server.url}/score?owner={owner_id}&measure=tarot"
        )
        assert status == 400
        assert "tarot" in document["error"]
        assert document["measures"] == list(available_measures())
        # a client error never trips the breaker
        assert live_server.breaker.state == "closed"

    def test_post_unknown_measure_is_400_with_menu(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{live_server.url}/score",
            {"owner": owner_id, "measure": "tarot"},
        )
        assert status == 400
        assert document["measures"] == list(available_measures())

    def test_batch_unknown_measure_is_400_before_any_scoring(
        self, live_server
    ):
        owners = list(live_server.engine.store.owner_ids())
        status, document = post(
            f"{live_server.url}/score-batch",
            {"owners": owners, "measure": "tarot"},
        )
        assert status == 400
        assert document["measures"] == list(available_measures())

    def test_non_string_measure_is_400(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        status, document = post(
            f"{live_server.url}/score", {"owner": owner_id, "measure": 7}
        )
        assert status == 400
        assert "measures" in document


class TestMetricsPerMeasure:
    def test_metrics_break_out_each_served_measure(self, live_server):
        owner_id = live_server.engine.store.owner_ids()[0]
        for name in available_measures():
            get(f"{live_server.url}/score?owner={owner_id}&measure={name}")
        status, document, _ = get(f"{live_server.url}/metrics")
        assert status == 200
        blocks = document["engine"]["measures"]
        for name in available_measures():
            assert name in blocks
            assert blocks[name]["requests"] >= 1
            assert "latency" in blocks[name]
