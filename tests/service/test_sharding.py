"""Tests for the shard layer: map, sharded stores, and the router.

The router tests run against *in-process* shard workers: each shard is a
real :class:`~repro.service.AsyncRiskServer` over a store restricted
to that shard's consistent-hash slice, behind a fake supervisor whose
workers the test can take "down" instantly.  Process-level failure
(``kill -9``, restart, WAL replay) is covered in ``test_chaos.py``.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.measures import available_measures
from repro.resilience import RetryPolicy
from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    RebalanceCoordinator,
    RiskEngine,
    ShardMap,
    ShardRouterHandler,
    ShardRouterServer,
    ShardSpec,
    ShardSupervisor,
    build_server,
)
from repro.synth import EgoNetConfig, generate_study_population

from .test_http import (
    assert_malformed_length_is_rejected,
    gated_engine,
    get,
    post,
    post_ndjson,
)

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
class StaticSupervisor:
    """Fake supervisor over in-process servers; tests flip shards down."""

    def __init__(self, servers):
        self.servers = servers
        self.down: set[int] = set()

    def url_of(self, shard_index: int):
        if shard_index in self.down:
            return None
        return self.servers[shard_index].url

    def snapshot(self):
        return {
            "shards": [
                {
                    "shard": index,
                    "alive": index not in self.down,
                    "url": self.url_of(index),
                    "pid": None,
                    "restarts": 0,
                    "last_exit_code": None,
                }
                for index in range(len(self.servers))
            ]
        }


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
        ("127.0.0.1", 0),
        shard_map,
        supervisor,
        request_timeout=60.0,
        # fail over fast in tests: two attempts, ~10ms apart
        retry_policy=RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.02, seed=1
        ),
    )
    router_thread = threading.Thread(target=router.serve_forever, daemon=True)
    router_thread.start()
    yield router, supervisor, servers, shard_map
    for server in (*servers, router):
        server.shutdown()
        server.server_close()
    for server in servers:
        server.scheduler.shutdown(wait=False)
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
    def gated_rig(self):
        from repro.service import AsyncRiskServer, ScoreScheduler

        engine = gated_engine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        shard_server = AsyncRiskServer(("127.0.0.1", 0), engine, scheduler)
        shard_thread = threading.Thread(
            target=shard_server.serve_forever, daemon=True
        )
        shard_thread.start()
        supervisor = StaticSupervisor([shard_server])
        router = ShardRouterServer(
            ("127.0.0.1", 0),
            ShardMap(1),
            supervisor,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.02, seed=1
            ),
        )
        router_thread = threading.Thread(
            target=router.serve_forever, daemon=True
        )
        router_thread.start()
        yield router, shard_server, engine
        engine.gate.set()
        for server in (shard_server, router):
            server.shutdown()
            server.server_close()
        shard_server.scheduler.shutdown(wait=False)
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
    def test_batch_pump_threads_never_outlive_the_request(self, shard_rig):
        """Merge-pump teardown is reliable: stranded shard streams are
        force-closed and joined, even when one shard's members all fail
        (the path that used to abandon a reader past a 1s join)."""
        router, supervisor, _, shard_map = shard_rig
        owners = sorted(cohort_owner_shards(shard_map))
        supervisor.down.add(1)  # one shard's lines become 503 errors
        try:
            status, lines, _ = post_ndjson(
                f"{router.url}/score-batch", {"owners": owners}
            )
            assert status == 200
            assert len(lines) == len(owners)
        finally:
            supervisor.down.discard(1)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("batch-pump-shard-")
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert leaked == []
        # breaker recovery for later tests
        end = time.monotonic() + 30
        while time.monotonic() < end:
            status, _, _ = get(f"{router.url}/readyz")
            if status == 200:
                break
            time.sleep(0.2)


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
        router = shard_rig[0]
        nodelay = []
        setup = ShardRouterHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(ShardRouterHandler, "setup", recording_setup)
        status, _, _ = get(f"{router.url}/healthz")
        assert status == 200
        assert nodelay and all(nodelay)

    def test_backlog_holds_a_burst_of_connects(self):
        router = ShardRouterServer(
            ("127.0.0.1", 0), ShardMap(1), StaticSupervisor([])
        )
        connections = []
        try:
            # nothing accepts: every connect must wait in the backlog
            for _ in range(16):
                try:
                    connections.append(
                        socket.create_connection(
                            router.server_address[:2], timeout=0.3
                        )
                    )
                except OSError:
                    pass
        finally:
            for connection in connections:
                connection.close()
            router.server_close()
        assert len(connections) == 16

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
        assert supervisor._probe(servers[0].url)

    def test_rebalance_calls_ignore_proxy_variables(
        self, shard_rig, dead_proxy
    ):
        router = shard_rig[0]
        coordinator = RebalanceCoordinator(
            router, lambda shard, count: None, shard_patience=2.0
        )
        assert coordinator._shard_call(0, "GET", "/readyz")["ready"]
