"""Tests for the shard layer: map, sharded stores, and the router.

The router tests run against *in-process* shard workers: each shard is a
real :class:`~repro.service.AsyncRiskServer` over a store restricted
to that shard's consistent-hash slice, behind a fake supervisor whose
workers the test can take "down" instantly.  Process-level failure
(``kill -9``, restart, WAL replay) is covered in ``test_chaos.py``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import threading
import time
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.measures import available_measures
from repro.service import (
    AsyncRiskServer,
    DurableOwnerStore,
    OwnerStore,
    RebalanceCoordinator,
    RiskEngine,
    ScoreScheduler,
    ShardClient,
    ShardMap,
    ShardRouterHandler,
    ShardRouterServer,
    ShardSpec,
    ShardSupervisor,
    build_server,
    build_worker_argv,
)
from repro.service import rebalance as rebalance_module
from repro.service import router as router_module
from repro.service import supervisor as supervisor_module
from repro.service.async_http import _RiskHandler
from repro.service.http import MAX_LINE, HttpServerCore, read_line
from repro.synth import EgoNetConfig, generate_study_population

from .conftest import FAST_RETRIES, StaticSupervisor, wait_until
from .test_http import (
    assert_malformed_length_is_rejected,
    get,
    post,
    post_ndjson,
)
from .test_scheduler import GatedEngine
from .test_score_encoding import read_bytes

SHARD_SEED = 11
NUM_SHARDS = 2


def make_shard_population():
    """A fresh four-owner cohort (deterministic: same seed, same graph).

    Each in-process shard regenerates its own copy, exactly like real
    shard workers do — shards must never share a graph object.
    """
    return generate_study_population(
        num_owners=4,
        ego_config=EgoNetConfig(num_friends=6, num_strangers=20),
        seed=SHARD_SEED,
    )


# ---------------------------------------------------------------------------
# ShardMap
# ---------------------------------------------------------------------------
class TestShardMap:
    def test_deterministic_across_instances(self):
        first, second = ShardMap(4), ShardMap(4)
        assert all(
            first.shard_of(i) == second.shard_of(i) for i in range(500)
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            ShardMap(0)
        with pytest.raises(ServiceError):
            ShardMap(2, replicas=0)

    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(1)
        assert {shard_map.shard_of(i) for i in range(200)} == {0}

    def test_partition_preserves_order_and_covers_all(self):
        shard_map = ShardMap(3)
        owners = list(range(100))
        groups = shard_map.partition(owners)
        assert sorted(o for group in groups.values() for o in group) == owners
        for shard, group in groups.items():
            assert group == [o for o in owners if shard_map.shard_of(o) == shard]
            assert group == shard_map.owners_for_shard(owners, shard)

    def test_owners_for_shard_rejects_out_of_range(self):
        with pytest.raises(ServiceError):
            ShardMap(2).owners_for_shard([1, 2, 3], 2)

    def test_every_shard_gets_owners_at_scale(self):
        shard_map = ShardMap(4)
        groups = shard_map.partition(range(1000))
        assert set(groups) == {0, 1, 2, 3}
        # 64 virtual nodes keep the split roughly fair
        assert all(len(group) > 100 for group in groups.values())

    def test_resharding_moves_a_bounded_fraction(self):
        before, after = ShardMap(4), ShardMap(5)
        moved = sum(
            1 for i in range(1000) if before.shard_of(i) != after.shard_of(i)
        )
        # consistent hashing: ~1/5 of keys move, never a full reshuffle
        assert moved < 400

    def test_to_dict_is_json_ready(self):
        description = ShardMap(3, replicas=16).to_dict()
        assert description == {
            "num_shards": 3,
            "replicas": 16,
            "algorithm": "consistent-hash/sha1",
        }


# ---------------------------------------------------------------------------
# sharded stores keep global cohort indices
# ---------------------------------------------------------------------------
class TestShardedStores:
    def test_shards_partition_the_cohort_with_global_indices(self):
        full = OwnerStore.from_population(make_shard_population())
        shard_map = ShardMap(NUM_SHARDS)
        stores = [
            OwnerStore.from_population(
                make_shard_population(), shard_map=shard_map, shard_index=i
            )
            for i in range(NUM_SHARDS)
        ]
        sharded_ids = [o for store in stores for o in store.owner_ids()]
        assert sorted(sharded_ids) == sorted(full.owner_ids())
        for store in stores:
            for owner_id in store.owner_ids():
                # the global index survives sharding: seeds and digests
                # match the unsharded deployment
                assert store.get(owner_id).index == full.get(owner_id).index

    def test_half_given_shard_arguments_raise(self):
        population = make_shard_population()
        with pytest.raises(ValueError):
            OwnerStore.from_population(
                population, shard_map=ShardMap(2)
            )
        with pytest.raises(ValueError):
            OwnerStore.from_population(population, shard_index=0)

    def test_durable_shard_store_recovers_subset_and_indices(self, tmp_path):
        shard_map = ShardMap(NUM_SHARDS)
        seeded = DurableOwnerStore.open(
            tmp_path / "wal",
            make_shard_population(),
            shard_map=shard_map,
            shard_index=1,
        )
        expected = {
            owner_id: seeded.get(owner_id).index
            for owner_id in seeded.owner_ids()
        }
        assert expected  # shard 1 owns part of this cohort
        seeded.close()
        recovered = DurableOwnerStore.open(tmp_path / "wal")
        try:
            assert {
                owner_id: recovered.get(owner_id).index
                for owner_id in recovered.owner_ids()
            } == expected
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# in-process router harness
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_rig():
    """Two in-process shard servers + a router, shared by the module."""
    shard_map = ShardMap(NUM_SHARDS)
    servers, threads = [], []
    for shard in range(NUM_SHARDS):
        store = OwnerStore.from_population(
            make_shard_population(), shard_map=shard_map, shard_index=shard
        )
        server = build_server(
            RiskEngine(store, seed=SHARD_SEED), max_workers=2, max_pending=16
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    supervisor = StaticSupervisor(servers)
    router = ShardRouterServer(
        ("127.0.0.1", 0), shard_map, supervisor, request_timeout=60.0
    )
    router_thread = threading.Thread(target=router.serve_forever, daemon=True)
    router_thread.start()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(router_module, "DEFAULT_RETRY_POLICY", FAST_RETRIES)
        yield router, supervisor, servers, shard_map
    for server in (*servers, router):
        server.shutdown()
        server.server_close()
    for thread in (*threads, router_thread):
        thread.join(timeout=10)


def cohort_owner_shards(shard_map):
    population = make_shard_population()
    return {
        owner.user_id: shard_map.shard_of(owner.user_id)
        for owner in population.owners
    }


class TestRouterScoring:
    @pytest.mark.parametrize("measure", available_measures())
    def test_scores_match_the_unsharded_deployment(self, shard_rig, measure):
        """Per-measure digests survive sharding byte-for-byte: every
        shard holds the full graph and its owners' global cohort
        indices, so seeds and cohorts agree with one big server."""
        router, _, _, shard_map = shard_rig
        reference = RiskEngine(
            OwnerStore.from_population(make_shard_population()),
            seed=SHARD_SEED,
        )
        for owner_id in cohort_owner_shards(shard_map):
            status, document, _ = get(
                f"{router.url}/score?owner={owner_id}&measure={measure}"
            )
            assert status == 200
            assert document["measure"] == measure
            assert (
                document["digest"]
                == reference.score(owner_id, measure=measure).digest
            )

    def test_measures_endpoint_is_answered_by_the_router(self, shard_rig):
        router, *_ = shard_rig
        status, document, _ = get(f"{router.url}/measures")
        assert status == 200
        assert [row["name"] for row in document["measures"]] == list(
            available_measures()
        )

    def test_unknown_measure_is_400_without_touching_a_shard(self, shard_rig):
        router, supervisor, _, shard_map = shard_rig
        owner_id = next(iter(cohort_owner_shards(shard_map)))
        # even with every shard down, validation answers locally
        supervisor.down.update(range(NUM_SHARDS))
        try:
            status, document, _ = get(
                f"{router.url}/score?owner={owner_id}&measure=tarot"
            )
            assert status == 400
            assert document["measures"] == list(available_measures())
        finally:
            supervisor.down.clear()

    @pytest.mark.parametrize("measure", available_measures())
    def test_batch_forwards_the_measure_to_every_shard(
        self, shard_rig, measure
    ):
        router, _, _, shard_map = shard_rig
        owners = sorted(cohort_owner_shards(shard_map))
        status, lines, _ = post_ndjson(
            f"{router.url}/score-batch",
            {"owners": owners, "measure": measure},
        )
        assert status == 200
        assert [line["owner"] for line in lines] == owners
        assert all(line["measure"] == measure for line in lines)

    @pytest.mark.parametrize("measure", available_measures())
    def test_batch_lines_are_the_shards_own_bytes(self, shard_rig, measure):
        """The router relays a shard's batch lines as the shard encoded
        them, never decoding nor re-encoding a score."""
        router, _, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        owners = sorted(owner_shards)
        batch = {"owners": owners, "measure": measure}
        post_ndjson(f"{router.url}/score-batch", batch)  # memoize them all
        routed = read_bytes(f"{router.url}/score-batch", batch)
        for owner_id, line in zip(
            owners, routed.splitlines(keepends=True), strict=True
        ):
            shard = servers[owner_shards[owner_id]]
            assert line == read_bytes(
                f"{shard.url}/score-batch",
                {"owners": [owner_id], "measure": measure},
            )
            assert json.loads(line)["source"] == "cache"

    def test_owners_are_spread_across_both_shards(self, shard_rig):
        router, *_ = shard_rig
        status, document, _ = get(f"{router.url}/owners")
        assert status == 200
        assert len(document["owners"]) == 4
        assert {row["shard"] for row in document["owners"]} == {0, 1}

    def test_unknown_owner_is_404_through_the_router(self, shard_rig):
        router, *_ = shard_rig
        status, document, _ = get(f"{router.url}/score?owner=987654")
        assert status == 404
        assert "987654" in document["error"]

    def test_batch_streams_across_shards_in_request_order(self, shard_rig):
        router, _, _, shard_map = shard_rig
        owners = sorted(cohort_owner_shards(shard_map))
        batch = [owners[0], 999999, *owners[1:]]
        status, lines, response = post_ndjson(
            f"{router.url}/score-batch", {"owners": batch}
        )
        assert status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        assert [line["owner"] for line in lines] == batch
        assert lines[1]["status"] == 404  # per-owner error line, in place
        for line in (lines[0], *lines[2:]):
            assert "digest" in line

    def test_readyz_aggregates_all_shards(self, shard_rig):
        router, *_ = shard_rig
        status, document, _ = get(f"{router.url}/readyz")
        assert status == 200
        assert document["ready"] is True
        assert len(document["shards"]) == NUM_SHARDS

    def test_draining_router_rejects_work(self, shard_rig):
        router, _, _, shard_map = shard_rig
        owner_id = next(iter(cohort_owner_shards(shard_map)))
        router.state.draining = True
        try:
            status, document, _ = get(f"{router.url}/score?owner={owner_id}")
            assert status == 503
            assert "draining" in document["error"]
        finally:
            router.state.draining = False


class TestRouterFailover:
    """Runs before the mutation tests so failover scoring sees owners
    with pristine caches (mutations would turn the assertions into
    warm-path ones, not break them)."""

    def test_dead_shard_is_bounded_503_and_siblings_keep_serving(
        self, shard_rig
    ):
        router, supervisor, _, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        by_shard: dict[int, int] = {}
        for owner_id, shard in owner_shards.items():
            by_shard.setdefault(shard, owner_id)
        victim_shard = 1
        victim_owner = by_shard[victim_shard]
        sibling_owner = by_shard[0]
        supervisor.down.add(victim_shard)
        try:
            status, document, response = get(
                f"{router.url}/score?owner={victim_owner}"
            )
            assert status == 503
            assert document["shard"] == victim_shard
            assert response.headers["Retry-After"] == "1"
            # fault isolation: the sibling shard's owners are untouched
            status, document, _ = get(
                f"{router.url}/score?owner={sibling_owner}"
            )
            assert status == 200
            # readiness reflects the dead shard
            status, document, _ = get(f"{router.url}/readyz")
            assert status == 503
            assert document["ready"] is False
            # an owner-addressed mutation for the dead shard is refused,
            # never half-applied
            status, document = post(
                f"{router.url}/mutate",
                {"op": "touch", "owner": victim_owner},
            )
            assert status == 503
            # batch: the dead shard's members become 503 error lines,
            # siblings' lines still stream
            status, lines, _ = post_ndjson(
                f"{router.url}/score-batch",
                {"owners": [sibling_owner, victim_owner]},
            )
            assert status == 200
            assert "digest" in lines[0]
            assert lines[1]["status"] == 503
            assert lines[1]["shard"] == victim_shard
        finally:
            supervisor.down.discard(victim_shard)
        # once the shard is back (breaker half-opens after its recovery
        # window) the same owner serves again
        end = time.monotonic() + 30
        while time.monotonic() < end:
            status, document, _ = get(
                f"{router.url}/score?owner={victim_owner}"
            )
            if status == 200:
                break
            time.sleep(0.2)
        assert status == 200

    def test_broadcast_to_a_dead_shard_reports_partial_application(
        self, shard_rig
    ):
        router, supervisor, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        owners = sorted(owner_shards)
        a = owners[0]
        supervisor.down.add(0)
        try:
            status, document = post(
                f"{router.url}/mutate",
                {"op": "remove_friendship", "a": a, "b": a + 1},
            )
            assert status == 503
            assert 0 in document["failed"]
            assert "applied" in document
        finally:
            supervisor.down.discard(0)
        # give the shard-0 breaker time to half-open for later tests
        end = time.monotonic() + 30
        while time.monotonic() < end:
            status, _, _ = get(f"{router.url}/readyz")
            if status == 200:
                break
            time.sleep(0.2)
        assert status == 200


class TestRouterMutations:
    """Includes cross-ego mutations.  These used to leave the synthetic
    oracle unable to warm-rescore (the far ego's users had no ground-
    truth judgments, so a rescore was a 500); the store now derives
    judgments lazily for newly visible users, so warm rescores after a
    cross-ego edge must serve 200."""

    def test_owner_addressed_mutation_routes_to_owning_shard(self, shard_rig):
        router, _, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        owner_id, shard = next(iter(owner_shards.items()))
        status, document = post(
            f"{router.url}/mutate", {"op": "touch", "owner": owner_id}
        )
        assert status == 200
        assert document["shard"] == shard
        assert document["affected"] == [owner_id]
        # only the owning shard's store saw the bump
        assert servers[shard].engine.store.version(owner_id) >= 1
        status, document, _ = get(f"{router.url}/score?owner={owner_id}")
        assert status == 200
        assert document["source"] == "warm"

    def test_broadcast_mutation_bumps_owners_on_different_shards(
        self, shard_rig
    ):
        router, _, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        by_shard: dict[int, int] = {}
        for owner_id, shard in owner_shards.items():
            by_shard.setdefault(shard, owner_id)
        first, second = by_shard[0], by_shard[1]
        status, document = post(
            f"{router.url}/mutate",
            {"op": "add_friendship", "a": first, "b": second},
        )
        assert status == 200
        assert document["affected"] == sorted([first, second])
        assert str(first) in document["versions"]
        assert str(second) in document["versions"]
        assert set(document["shards"]) == {"0", "1"}
        # each shard applied the edge to its own graph copy
        for server in servers:
            assert server.engine.store.graph.are_friends(first, second)

    def test_warm_rescore_after_cross_ego_edge_serves_200(self, shard_rig):
        """The cross-ego oracle gap, fixed: an edge between two egos
        pulls the far ego's users into 2-hop view, the store lazily
        judges them, and the warm re-score answers 200 — not the 500
        this scenario used to produce.  Runs after the broadcast test
        above, so the cross-ego edge already exists on every shard."""
        router, _, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        by_shard: dict[int, int] = {}
        for owner_id, shard in owner_shards.items():
            by_shard.setdefault(shard, owner_id)
        for shard, owner_id in sorted(by_shard.items()):
            status, document, _ = get(f"{router.url}/score?owner={owner_id}")
            assert status == 200, document
            assert document["source"] == "warm"
            # the lazily judged strangers are now in the owner's universe
            store = servers[shard].engine.store
            entry = store.get(owner_id)
            assert store.graph.two_hop_neighbors(owner_id) <= set(
                entry.owner.ground_truth
            )

    def test_add_user_is_broadcast_so_every_shard_knows_the_user(
        self, shard_rig
    ):
        router, _, servers, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        by_shard: dict[int, int] = {}
        for owner_id, shard in owner_shards.items():
            by_shard.setdefault(shard, owner_id)
        host_owner = by_shard[0]
        new_user = 70_001
        from repro.io.serialization import profile_to_dict

        profile = servers[0].engine.store.graph.profile(host_owner)
        new_profile = {**profile_to_dict(profile), "id": new_user}
        status, document = post(
            f"{router.url}/mutate",
            {"op": "add_user", "owner": host_owner, "profile": new_profile},
        )
        assert status == 200 and document["shard"] == 0
        # the other shard's graph copy learned the user too, so a later
        # graph-wide mutation touching it cannot diverge
        status, document = post(
            f"{router.url}/mutate",
            {"op": "add_friendship", "a": new_user, "b": by_shard[1]},
        )
        assert status == 200
        for server in servers:
            assert server.engine.store.graph.are_friends(
                new_user, by_shard[1]
            )

    def test_unknown_op_is_400_with_vocabulary(self, shard_rig):
        router, *_ = shard_rig
        status, document = post(f"{router.url}/mutate", {"op": "drop_table"})
        assert status == 400
        assert "unknown op" in document["error"]

    def test_malformed_arguments_are_400(self, shard_rig):
        router, *_ = shard_rig
        status, document = post(f"{router.url}/mutate", {"op": "touch"})
        assert status == 400
        assert "malformed arguments" in document["error"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(
        self, shard_rig, length
    ):
        router, *_ = shard_rig
        assert_malformed_length_is_rejected(router.url, length)
        assert get(f"{router.url}/healthz")[0] == 200


class TestRouterBackpressureRelay:
    """The 429-vs-503 split survives the router hop: saturation (slow
    down, same shard will serve) relays as 429 + Retry-After, while a
    draining or dead shard (stop asking this replica) stays 503."""

    @pytest.fixture
    def gated_rig(self, fast_retries):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        shard_server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        shard_thread = threading.Thread(
            target=shard_server.serve_forever, daemon=True
        )
        shard_thread.start()
        supervisor = StaticSupervisor([shard_server])
        router = ShardRouterServer(("127.0.0.1", 0), ShardMap(1), supervisor)
        router_thread = threading.Thread(
            target=router.serve_forever, daemon=True
        )
        router_thread.start()
        yield router, shard_server, engine
        engine.gate.set()
        for server in (shard_server, router):
            server.shutdown()
            server.server_close()
        for thread in (shard_thread, router_thread):
            thread.join(timeout=10)

    def test_saturated_shard_relays_as_429(self, gated_rig):
        router, _, engine = gated_rig
        blocked = threading.Thread(
            target=get, args=(f"{router.url}/score?owner=1",)
        )
        blocked.start()
        try:
            deadline = time.monotonic() + 10
            while not engine.running_now() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert engine.running_now()
            status, document, response = get(f"{router.url}/score?owner=2")
            assert status == 429
            assert response.headers["Retry-After"] == "1"
            assert "saturated" in document["error"]
        finally:
            engine.gate.set()
            blocked.join(timeout=10)

    @pytest.fixture
    def parked_router(self, gated_rig):
        """A one-slot router over the gated shard, its slot held by a
        ``/score`` parked on the shard's gate."""
        _, shard_server, engine = gated_rig
        router = ShardRouterServer(
            ("127.0.0.1", 0),
            ShardMap(1),
            StaticSupervisor([shard_server]),
            admission_capacity=1,
        )
        router_thread = threading.Thread(
            target=router.serve_forever, daemon=True
        )
        router_thread.start()
        blocked = threading.Thread(
            target=get, args=(f"{router.url}/score?owner=1",)
        )
        blocked.start()
        try:
            assert wait_until(engine.running_now)
            yield router, engine, blocked
        finally:
            engine.gate.set()
            blocked.join(timeout=10)
            router.shutdown()
            router.server_close()
            router_thread.join(timeout=10)

    def test_full_router_sheds_with_429_and_retry_after(self, parked_router):
        """``--admission`` bounds the router too: with its one slot held
        by a request parked on a busy shard, the next one is shed at
        the router with 429 + Retry-After instead of a new thread."""
        router, engine, blocked = parked_router
        status, document, response = get(f"{router.url}/score?owner=2")
        assert status == 429
        assert response.headers["Retry-After"] == "1"
        assert "admission queue full" in document["error"]
        assert document["pending"] == 1
        engine.gate.set()
        blocked.join(timeout=10)
        _, metrics, _ = get(f"{router.url}/metrics")
        assert metrics["admission"]["shed"] == 1
        assert metrics["admission"]["depth"] == 0

    def test_fan_outs_never_wait_behind_shard_calls(self, parked_router):
        """Shard calls run on the router's event loop, so with every
        admission slot waiting on the shard, the ``/healthz`` and
        ``/metrics`` fan-outs still answer at once."""
        router = parked_router[0]
        for path in ("/healthz", "/metrics"):
            with urllib.request.urlopen(
                f"{router.url}{path}", timeout=1.0
            ) as response:
                assert response.status == 200

    def test_a_refused_batch_open_keeps_the_breaker_closed(self, gated_rig):
        """Any HTTP answer proves a shard alive, a refused batch open
        too: batches a draining shard refuses leave its breaker closed,
        and the next ``/score`` is served."""
        router, shard_server, engine = gated_rig
        engine.gate.set()
        shard_server.state.draining = True
        try:
            for _ in range(3):
                status, lines, _ = post_ndjson(
                    f"{router.url}/score-batch", {"owners": [1]}
                )
                assert status == 200
                assert lines[0]["status"] == 503
        finally:
            shard_server.state.draining = False
        assert router.clients[0].breaker.state == "closed"
        status, document, _ = get(f"{router.url}/score?owner=1")
        assert status == 200, document

    def test_draining_shard_relays_as_503(self, gated_rig):
        router, shard_server, engine = gated_rig
        engine.gate.set()
        shard_server.state.draining = True
        try:
            status, document, response = get(f"{router.url}/score?owner=1")
            assert status == 503
            assert "draining" in document["error"]
            assert response.headers["Retry-After"] == "1"
        finally:
            shard_server.state.draining = False


class TestBatchTeardown:
    def test_batch_pump_threads_never_outlive_the_request(
        self, shard_rig, monkeypatch
    ):
        """Merge-pump teardown is reliable: by the time the response
        ends, every shard stream the batch opened is closed and every
        pump task it started has finished, even when one shard's
        members all fail."""
        router, supervisor, _, shard_map = shard_rig
        owners = sorted(cohort_owner_shards(shard_map))
        pumps, streams = [], []
        open_stream = ShardClient.open_stream

        async def recording_open_stream(client, path, body):
            pumps.append(asyncio.current_task())  # the pump calling it
            status, stream = await open_stream(client, path, body)
            streams.append(stream)
            return status, stream

        monkeypatch.setattr(ShardClient, "open_stream", recording_open_stream)
        supervisor.down.add(1)  # one shard's lines become 503 errors
        try:
            status, lines, _ = post_ndjson(
                f"{router.url}/score-batch", {"owners": owners}
            )
            # the stream ended: nothing of this batch may still run
            assert all(task.done() for task in pumps)
            assert all(writer.is_closing() for _, writer in streams)
        finally:
            supervisor.down.discard(1)
            monkeypatch.undo()
        assert status == 200
        assert len(lines) == len(owners)
        assert pumps and streams  # one pump per shard, one stream up
        # breaker recovery for later tests
        end = time.monotonic() + 30
        while time.monotonic() < end:
            status, _, _ = get(f"{router.url}/readyz")
            if status == 200:
                break
            time.sleep(0.2)


    def test_a_line_cut_off_mid_stream_is_never_relayed(
        self, shard_rig, monkeypatch
    ):
        """Shard lines are relayed as bytes, so one that lost its end
        (the stream broke inside it) must become a 503 error line, not
        half a document on the client's stream."""
        router, _, _, shard_map = shard_rig
        owner_shards = cohort_owner_shards(shard_map)
        owners = sorted(owner_shards)
        open_stream = ShardClient.open_stream

        class CutOff:
            """A stream reader whose lines lose their last two bytes."""

            def __init__(self, reader):
                self.reader = reader

            async def readuntil(self, separator):
                return (await self.reader.readuntil(separator))[:-2]

        async def cutting_open_stream(client, path, body):
            status, stream = await open_stream(client, path, body)
            if client.shard_index == 1:
                reader, writer = stream
                stream = (CutOff(reader), writer)
            return status, stream

        monkeypatch.setattr(ShardClient, "open_stream", cutting_open_stream)
        status, lines, _ = post_ndjson(
            f"{router.url}/score-batch", {"owners": owners}
        )
        assert status == 200
        assert [line["owner"] for line in lines] == owners
        for line in lines:
            if owner_shards[line["owner"]] == 1:
                assert (line["status"], line["shard"]) == (503, 1)
            else:
                assert "digest" in line


def test_batch_lines_past_the_head_line_limit_are_read_whole():
    """A shard's batch line may outgrow the 64 KiB limit its response
    head is read under; a line cut off by end-of-file comes back
    without its newline (and is then never relayed)."""

    async def read_lines():
        reader = asyncio.StreamReader(limit=MAX_LINE)
        reader.feed_data(b"x" * (3 * MAX_LINE) + b"\n" + b"cut")
        reader.feed_eof()
        return [await read_line(reader) for _ in range(3)]

    whole, cut, end = asyncio.run(read_lines())
    assert whole == b"x" * (3 * MAX_LINE) + b"\n"
    assert (cut, end) == (b"cut", b"")


# ---------------------------------------------------------------------------
# pooled keep-alive connections from the router to its shards
# ---------------------------------------------------------------------------
@pytest.fixture
def accepted(monkeypatch):
    """Every connection a server accepts, per server, as its writer.

    Wraps ``HttpServerCore._handle_client`` before the test starts any
    server (a running server holds the method it was started with).
    """
    connections: dict[HttpServerCore, list] = {}
    handle_client = HttpServerCore._handle_client

    async def recording(server, reader, writer):
        connections.setdefault(server, []).append(writer)
        await handle_client(server, reader, writer)

    monkeypatch.setattr(HttpServerCore, "_handle_client", recording)
    return connections


def start_router(shard_servers, shard_map):
    """Serve ``shard_servers`` and a router over them; returns the router
    and a function that stops everything."""
    supervisor = StaticSupervisor(shard_servers)
    router = ShardRouterServer(("127.0.0.1", 0), shard_map, supervisor)
    servers = [*shard_servers, router]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()

    def stop():
        for server in reversed(servers):
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=10)

    return router, stop


def close_accepted(server, connections) -> None:
    """The shard closes its side of every connection it accepted."""
    for writer in connections.get(server, []):
        server._loop.call_soon_threadsafe(writer.close)


def await_peer_close(client: ShardClient) -> None:
    """Wait until the client's pooled connections see the peer's close."""
    assert wait_until(
        lambda: not any(
            router_module._still_open(idle) for idle in client._idle
        )
    )


@pytest.fixture
def pooled_rig(accepted, fast_retries):
    """Two fresh in-process shards behind a router, started after the
    ``accepted`` recorder is in place."""
    shard_map = ShardMap(NUM_SHARDS)
    shard_servers = [
        build_server(
            RiskEngine(
                OwnerStore.from_population(
                    make_shard_population(),
                    shard_map=shard_map,
                    shard_index=shard,
                ),
                seed=SHARD_SEED,
            ),
            max_workers=2,
            max_pending=16,
        )
        for shard in range(NUM_SHARDS)
    ]
    router, stop = start_router(shard_servers, shard_map)
    yield router, shard_servers, shard_map
    stop()


@pytest.fixture
def durable_rig(accepted, fast_retries, tmp_path):
    """One WAL-backed shard behind a router."""
    store = DurableOwnerStore.open(
        tmp_path / "shard-0", make_shard_population()
    )
    shard = build_server(RiskEngine(store, seed=SHARD_SEED), max_workers=2)
    router, stop = start_router([shard], ShardMap(1))
    yield router, shard, store
    stop()
    store.close()


class TestPooledShardConnections:
    def test_sequential_reads_open_at_most_one_connection_per_shard(
        self, pooled_rig, accepted
    ):
        router, shard_servers, shard_map = pooled_rig
        owners = sorted(cohort_owner_shards(shard_map))
        for index in range(50):
            owner = owners[index % len(owners)]
            status, _, _ = get(f"{router.url}/score?owner={owner}")
            assert status == 200
        opened = [len(accepted.get(server, [])) for server in shard_servers]
        assert opened == [1, 1]

    def test_a_read_on_a_connection_the_shard_closed_is_resent_fresh(
        self, pooled_rig, accepted, monkeypatch
    ):
        router, shard_servers, shard_map = pooled_rig
        owner, shard = next(iter(cohort_owner_shards(shard_map).items()))
        assert get(f"{router.url}/score?owner={owner}")[0] == 200
        close_accepted(shard_servers[shard], accepted)
        await_peer_close(router.clients[shard])
        # the close lands after the idle check: the send meets a dead peer
        monkeypatch.setattr(router_module, "_still_open", lambda _: True)
        breaker = router.clients[shard].breaker
        failures: list = []
        record_failure = breaker.record_failure
        monkeypatch.setattr(
            breaker,
            "record_failure",
            lambda: failures.append(1) or record_failure(),
        )
        status, document, _ = get(f"{router.url}/score?owner={owner}")
        assert status == 200, document
        assert len(accepted[shard_servers[shard]]) == 2
        # resent at once, inside one attempt: not a retry-policy failure
        assert failures == []

    def test_a_mutation_on_a_dropped_connection_is_never_resent(
        self, durable_rig, accepted, monkeypatch
    ):
        router, shard, store = durable_rig
        owner = store.owner_ids()[0]
        touch = {"op": "touch", "owner": owner}
        status, _ = post(f"{router.url}/mutate", touch)
        assert status == 200
        logged = store.last_seq
        close_accepted(shard, accepted)
        await_peer_close(router.clients[0])
        with monkeypatch.context() as patch:
            patch.setattr(router_module, "_still_open", lambda _: True)
            status, document = post(f"{router.url}/mutate", touch)
        assert status == 503, document
        assert store.last_seq - logged <= 1  # at most the one attempt
        assert len(accepted[shard]) == 1  # no resend on a fresh connection
        # the next mutation opens a fresh connection and is logged once
        status, _ = post(f"{router.url}/mutate", touch)
        assert status == 200
        assert len(accepted[shard]) == 2
        assert store.last_seq == logged + 1

    def test_an_idle_connection_the_shard_closed_is_never_reused(
        self, durable_rig, accepted
    ):
        """The end-of-file check before reuse: a mutation, never
        re-sent, still lands when the shard closed the idle one."""
        router, shard, store = durable_rig
        touch = {"op": "touch", "owner": store.owner_ids()[0]}
        assert post(f"{router.url}/mutate", touch)[0] == 200
        close_accepted(shard, accepted)
        await_peer_close(router.clients[0])
        status, document = post(f"{router.url}/mutate", touch)
        assert status == 200, document
        assert len(accepted[shard]) == 2

    def test_reads_follow_a_kill9_restarted_shard_to_its_new_url(
        self, loop_thread, fast_retries, monkeypatch
    ):
        monkeypatch.setattr(supervisor_module, "HEALTH_INTERVAL", 0.1)
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF", 0.05)
        cohort = ["--owners", "4", "--strangers", "20", "--friends", "6"]
        supervisor = ShardSupervisor(
            [
                ShardSpec(
                    index=shard, argv=build_worker_argv(shard, 2, cohort)
                )
                for shard in range(2)
            ]
        )
        loop_thread.run(supervisor.start())
        router = ShardRouterServer(("127.0.0.1", 0), ShardMap(2), supervisor)
        serving = loop_thread.start_task(router.serve())
        try:
            owners = get(f"{router.url}/owners")[1]["owners"]
            victim = next(row["owner"] for row in owners if row["shard"] == 1)
            status, before, _ = get(f"{router.url}/score?owner={victim}")
            assert status == 200
            old_url = supervisor.url_of(1)
            os.kill(supervisor.pid_of(1), signal.SIGKILL)
            assert wait_until(
                lambda: supervisor.url_of(1) not in (None, old_url),
                timeout=60,
            )
            assert loop_thread.run(supervisor.wait_for_ready(1, timeout=60))
            # the old URL's pooled connection is dropped, not tried
            status, after, _ = get(f"{router.url}/score?owner={victim}")
            assert status == 200, after
            assert after["digest"] == before["digest"]
            assert router.clients[1].breaker.state == "closed"
        finally:
            loop_thread.cancel(serving)
            router.server_close()
            loop_thread.run(supervisor.stop(drain_timeout=10))


# ---------------------------------------------------------------------------
# the router's sockets: TCP_NODELAY, listen backlog, no proxies
# ---------------------------------------------------------------------------
@pytest.fixture
def dead_proxy(monkeypatch):
    """Point ``http_proxy`` at a closed port.  urllib caches its global
    opener (with the proxies it read from the environment), so the cache
    is dropped before the test and again after it."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
    urllib.request.install_opener(None)
    yield
    urllib.request.install_opener(None)


class TestRouterSockets:
    def test_accepted_connections_disable_nagle(self, shard_rig, monkeypatch):
        """Both front doors run on asyncio, whose transports set
        ``TCP_NODELAY``; a Nagle-delayed body would wait out the
        client's delayed ACK (~40 ms) on every response."""
        router = shard_rig[0]
        nodelay: dict[str, list[int]] = {"router": [], "shard": []}

        def recording(handler_class, door):
            handle = handler_class.handle

            async def recording_handle(handler):
                sock = handler.writer.get_extra_info("socket")
                nodelay[door].append(
                    sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
                await handle(handler)

            monkeypatch.setattr(handler_class, "handle", recording_handle)

        recording(ShardRouterHandler, "router")
        recording(_RiskHandler, "shard")
        status, _, _ = get(f"{router.url}/healthz")  # fans out to shards
        assert status == 200
        assert nodelay["router"] and all(nodelay["router"])
        assert nodelay["shard"] and all(nodelay["shard"])

    def test_backlog_holds_a_burst_of_connects(self):
        """Both front doors bind and listen in their constructor with a
        ``socket.SOMAXCONN`` backlog: a burst of connects to a server
        that accepts nothing yet all wait in the backlog."""
        engine = GatedEngine()
        servers = [
            ShardRouterServer(
                ("127.0.0.1", 0), ShardMap(1), StaticSupervisor([])
            ),
            AsyncRiskServer(
                ("127.0.0.1", 0), engine, ScoreScheduler(engine)
            ),
        ]
        connections = []
        try:
            for server in servers:
                # nothing accepts: every connect must wait in the backlog
                for _ in range(16):
                    try:
                        connections.append(
                            socket.create_connection(
                                server.server_address[:2], timeout=0.3
                            )
                        )
                    except OSError:
                        pass
        finally:
            for connection in connections:
                connection.close()
            for server in servers:
                server.server_close()
        assert len(connections) == 2 * 16

    def test_router_ignores_proxy_variables(self, shard_rig, dead_proxy):
        router, _, _, shard_map = shard_rig
        owner = sorted(cohort_owner_shards(shard_map))[0]
        # http.client, not urllib: the test's own hop must skip the proxy
        connection = http.client.HTTPConnection(
            *router.server_address[:2], timeout=60
        )
        try:
            connection.request("GET", f"/score?owner={owner}")
            response = connection.getresponse()
            assert response.status == 200, response.read()
        finally:
            connection.close()

    def test_supervisor_probe_ignores_proxy_variables(
        self, shard_rig, dead_proxy
    ):
        servers = shard_rig[2]
        supervisor = ShardSupervisor([ShardSpec(index=0, argv=["unused"])])
        assert asyncio.run(supervisor._probe(servers[0].url))

    def test_rebalance_calls_ignore_proxy_variables(
        self, shard_rig, dead_proxy, monkeypatch
    ):
        router = shard_rig[0]
        monkeypatch.setattr(rebalance_module, "SHARD_PATIENCE", 2.0)
        coordinator = RebalanceCoordinator(router, lambda shard, count: None)

        async def readyz():
            try:
                return await coordinator._shard_call(0, "GET", "/readyz")
            finally:
                coordinator._close_clients()

        assert asyncio.run(readyz())["ready"]
