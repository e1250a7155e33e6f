"""Tests for live shard rebalancing: ring deltas, slices, coordinator.

Three layers, cheapest first:

* the consistent-hash **resize delta** (``ShardMap.resized`` /
  ``moved_owners``), including a Hypothesis property over random ring
  resizes — grow moves owners *only to* the new shards, shrink *only
  from* the removed ones, the moved fraction stays near ``1/N``, and
  applying the moves to the old partition reconstructs the new one
  exactly (no owner lost, none duplicated);
* the **WAL-slice handoff** primitives (export → import → digest →
  detach), including durable replay across a destination restart;
* the **coordinator state machine** run against in-process shard
  servers behind an elastic fake supervisor: grow and shrink under the
  migration fence, pause/resume/abort, byte-identical digests versus an
  unsharded reference engine, and ``POST /shards`` end to end.

Process-level chaos (``kill -9`` at each phase, boot recovery) lives in
``test_rebalance_chaos.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RebalanceError, ServiceError
from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    PHASES,
    RebalanceCoordinator,
    RiskEngine,
    ShardMap,
    ShardRouterServer,
    build_server,
    export_slice,
    import_slice,
    moved_owners,
    state_digest,
)
from repro.service import rebalance as rebalance_module
from repro.synth import EgoNetConfig, generate_study_population

from .test_http import get, post
from .test_sharding import SHARD_SEED, make_shard_population

# ---------------------------------------------------------------------------
# ring resize delta
# ---------------------------------------------------------------------------
class TestResizeDelta:
    def test_resized_preserves_replicas_and_determinism(self):
        base = ShardMap(2, replicas=16)
        grown = base.resized(3)
        assert grown.num_shards == 3
        assert grown.replicas == 16
        assert grown.to_dict() == ShardMap(3, replicas=16).to_dict()
        assert all(
            grown.shard_of(i) == ShardMap(3, replicas=16).shard_of(i)
            for i in range(200)
        )

    def test_resized_rejects_bad_count(self):
        with pytest.raises(ServiceError):
            ShardMap(2).resized(0)

    def test_grow_moves_owners_only_to_new_shards(self):
        old, new = ShardMap(2), ShardMap(2).resized(4)
        moves = moved_owners(old, new, range(500))
        assert moves  # something moved
        for (source, destination), owners in moves.items():
            assert owners
            assert 0 <= source < 2
            assert destination in (2, 3)

    def test_shrink_moves_owners_only_from_removed_shards(self):
        old, new = ShardMap(4), ShardMap(4).resized(2)
        moves = moved_owners(old, new, range(500))
        assert moves
        for (source, destination), owners in moves.items():
            assert source in (2, 3)
            assert 0 <= destination < 2

    def test_replica_mismatch_is_refused(self):
        with pytest.raises(ServiceError):
            moved_owners(ShardMap(2, replicas=8), ShardMap(3), range(10))

    @settings(max_examples=50, deadline=None)
    @given(
        owners=st.sets(st.integers(min_value=0, max_value=10**6),
                       min_size=0, max_size=200),
        old_count=st.integers(min_value=1, max_value=8),
        new_count=st.integers(min_value=1, max_value=8),
    )
    def test_resize_property(self, owners, old_count, new_count):
        """Random resizes: the delta is exact, directional, and bounded."""
        old_map = ShardMap(old_count)
        new_map = old_map.resized(new_count)
        moves = moved_owners(old_map, new_map, owners)
        moved = [o for group in moves.values() for o in group]
        # no owner moves twice, and only owners that actually change
        # shard appear in the delta
        assert len(moved) == len(set(moved))
        assert set(moved) == {
            o for o in owners if old_map.shard_of(o) != new_map.shard_of(o)
        }
        # directional: grow lands only on joining shards, shrink departs
        # only from removed shards
        for (source, destination), group in moves.items():
            for owner in group:
                assert old_map.shard_of(owner) == source
                assert new_map.shard_of(owner) == destination
            if new_count > old_count:
                assert destination >= old_count
            elif new_count < old_count:
                assert source >= new_count
        if old_count == new_count:
            assert moves == {}
        # applying the moves to the old partition reconstructs the new
        # partition exactly: every owner kept, none duplicated
        slices = {
            shard: set(group)
            for shard, group in old_map.partition(owners).items()
        }
        for shard in range(max(old_count, new_count)):
            slices.setdefault(shard, set())
        for (source, destination), group in moves.items():
            for owner in group:
                slices[source].remove(owner)
                slices[destination].add(owner)
        for shard in range(old_count):
            if shard >= new_count:
                assert slices[shard] == set()
        rebuilt = {
            o
            for shard in range(new_count)
            for o in slices[shard]
        }
        assert rebuilt == set(owners)
        for shard in range(new_count):
            assert slices[shard] == set(
                new_map.owners_for_shard(sorted(owners), shard)
            )
        # consistent hashing: the moved fraction stays near the
        # theoretical |N_old - N_new| / max(N_old, N_new), never a
        # reshuffle (generous bound: small keyspaces are noisy)
        if len(owners) >= 50 and old_count != new_count:
            expected = abs(old_count - new_count) / max(old_count, new_count)
            assert len(moved) / len(owners) <= min(1.0, expected + 0.35)


# ---------------------------------------------------------------------------
# slice handoff primitives
# ---------------------------------------------------------------------------
class TestSliceHandoff:
    def test_export_import_round_trip_preserves_state(self):
        population = make_shard_population()
        source = OwnerStore.from_population(population)
        owner_id = source.owner_ids()[0]
        source.touch(owner_id)  # a version bump must survive the move
        entry_before = source.get(owner_id)
        document = export_slice(source, [owner_id])
        destination = OwnerStore(make_shard_population().graph)
        result = import_slice(destination, document, adopt_graph=True)
        assert result["attached"] == 1
        assert result["owners_digest"] == document["owners_digest"]
        entry_after = destination.get(owner_id)
        assert entry_after.version == entry_before.version
        assert entry_after.index == entry_before.index
        assert entry_after.universe == entry_before.universe
        assert entry_after.owner.ground_truth == entry_before.owner.ground_truth
        # digests agree between the two stores
        assert (
            state_digest(source, [owner_id])["owners_digest"]
            == state_digest(destination, [owner_id])["owners_digest"]
        )

    def test_import_refuses_a_corrupted_slice(self):
        source = OwnerStore.from_population(make_shard_population())
        owner_id = source.owner_ids()[0]
        document = export_slice(source, [owner_id])
        document["owners"][0]["version"] += 1  # bit rot in transit
        destination = OwnerStore(make_shard_population().graph)
        with pytest.raises(RebalanceError) as excinfo:
            import_slice(destination, document, adopt_graph=True)
        assert excinfo.value.phase == "transfer"

    def test_import_without_adopt_refuses_a_diverged_graph(self):
        source = OwnerStore.from_population(make_shard_population())
        owner_id = source.owner_ids()[0]
        document = export_slice(source, [owner_id])
        diverged = OwnerStore.from_population(make_shard_population())
        others = [o for o in diverged.owner_ids() if o != owner_id]
        diverged.touch(others[0])
        diverged.graph.remove_friendship(
            owner_id, next(iter(diverged.graph.friends(owner_id)))
        )
        with pytest.raises(RebalanceError):
            import_slice(diverged, document, adopt_graph=False)

    def test_durable_destination_replays_the_import_after_kill(self, tmp_path):
        population = make_shard_population()
        source = OwnerStore.from_population(population)
        owner_id = source.owner_ids()[0]
        document = export_slice(source, [owner_id])
        destination = DurableOwnerStore.open(
            tmp_path / "dest", make_shard_population(), join_empty=True
        )
        assert list(destination.owner_ids()) == []
        import_slice(destination, document, adopt_graph=True)
        destination.close()
        # reopen = crash recovery: the attach and graph adoption were
        # logged, so the replayed store serves the migrated owner
        recovered = DurableOwnerStore.open(tmp_path / "dest")
        try:
            assert list(recovered.owner_ids()) == [owner_id]
            assert (
                state_digest(recovered, [owner_id])["owners_digest"]
                == document["owners_digest"]
            )
        finally:
            recovered.close()

    def test_durable_detach_survives_recovery(self, tmp_path):
        store = DurableOwnerStore.open(
            tmp_path / "src", make_shard_population()
        )
        owner_id = store.owner_ids()[0]
        remaining = [o for o in store.owner_ids() if o != owner_id]
        assert store.detach_owner(owner_id) is True
        assert store.detach_owner(owner_id) is False  # idempotent
        store.close()
        recovered = DurableOwnerStore.open(tmp_path / "src")
        try:
            assert list(recovered.owner_ids()) == remaining
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# in-process coordinator rig
# ---------------------------------------------------------------------------
class ElasticSupervisor:
    """In-process fake supervisor whose fleet can grow and shrink.

    ``add_worker`` receives whatever the coordinator's ``make_spec``
    returns — here ``(index, count)`` — and boots a join-empty
    in-process server for it.
    """

    def __init__(self, servers, threads):
        self.servers = servers
        self.threads = threads
        self.down: set[int] = set()

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    def url_of(self, shard_index: int):
        if shard_index in self.down or shard_index >= len(self.servers):
            return None
        return self.servers[shard_index].url

    async def wait_for_ready(
        self, shard_index: int, timeout: float = 60.0
    ) -> bool:
        return shard_index < len(self.servers)

    async def add_worker(self, spec) -> None:
        index, _count = spec
        assert index == len(self.servers), "joins must be tail-only"
        # the cohort build blocks: off the router's loop, like a spawn
        store = await asyncio.to_thread(
            lambda: OwnerStore(make_shard_population().graph)  # join-empty
        )
        server = build_server(
            RiskEngine(store, seed=SHARD_SEED), max_workers=2, max_pending=16
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self.servers.append(server)
        self.threads.append(thread)

    async def retire_worker(
        self, shard_index: int, drain_timeout: float = 15.0
    ):
        assert shard_index == len(self.servers) - 1, "retires are tail-only"
        server = self.servers.pop(shard_index)
        await asyncio.to_thread(server.shutdown)
        server.server_close()

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


@pytest.fixture
def elastic_rig(fast_retries, monkeypatch):
    """Two in-process shards + router + coordinator, resizable."""
    monkeypatch.setattr(rebalance_module, "SHARD_PATIENCE", 15.0)
    shard_map = ShardMap(2)
    servers, threads = [], []
    for shard in range(2):
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
    supervisor = ElasticSupervisor(servers, threads)
    router = ShardRouterServer(
        ("127.0.0.1", 0), shard_map, supervisor, request_timeout=60.0
    )
    router_thread = threading.Thread(target=router.serve_forever, daemon=True)
    router_thread.start()
    threads.append(router_thread)
    router.rebalance = RebalanceCoordinator(
        router, lambda index, count: (index, count)
    )
    yield router, supervisor
    wait_for_rebalance(router, timeout=30)
    for server in (*servers, router):
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join(timeout=10)


def reference_digests(owner_ids):
    engine = RiskEngine(
        OwnerStore.from_population(make_shard_population()), seed=SHARD_SEED
    )
    return {owner: engine.score(owner).digest for owner in owner_ids}


def rebalance_status(router) -> dict:
    """The ``rebalance`` block of the router's ``GET /shards``."""
    http_status, document, _ = get(f"{router.url}/shards")
    assert http_status == 200
    return document["rebalance"]


def wait_for_pause(router, phase, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if rebalance_status(router).get("paused_at") == phase:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"never paused before {phase}: {rebalance_status(router)}"
    )


def wait_for_rebalance(router, timeout=60.0):
    """Poll ``GET /shards`` until no migration is active; returns the
    final ``rebalance`` block, or ``None`` if one still runs."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = rebalance_status(router)
        if not status["active"]:
            return status
        time.sleep(0.02)
    return None


def begin(router, count, **options):
    """Start a resize through ``POST /shards``."""
    http_status, document = post(
        f"{router.url}/shards", {"count": count, **options}
    )
    assert http_status == 202, document


class TestCoordinator:
    def test_grow_then_shrink_preserves_every_digest(self, elastic_rig):
        router, supervisor = elastic_rig
        owners = sorted(
            owner.user_id for owner in make_shard_population().owners
        )
        reference = reference_digests(owners)
        moves = moved_owners(ShardMap(2), ShardMap(3), owners)
        assert moves, "this cohort must exercise a real migration"

        begin(router, 3)
        status = wait_for_rebalance(router)
        assert status
        assert status["status"] == "done" and status["phase"] == "done"
        assert router.shard_map.num_shards == 3
        assert supervisor.num_shards == 3
        # routing followed the migrated owners and digests are intact
        for owner in owners:
            http_status, document, _ = get(f"{router.url}/score?owner={owner}")
            assert http_status == 200
            assert document["digest"] == reference[owner]
        http_status, document, _ = get(f"{router.url}/owners")
        assert http_status == 200
        rows = {row["owner"]: row["shard"] for row in document["owners"]}
        new_map = ShardMap(3)
        assert rows == {o: new_map.shard_of(o) for o in owners}

        begin(router, 2)
        status = wait_for_rebalance(router)
        assert status
        assert status["status"] == "done"
        assert router.shard_map.num_shards == 2
        assert supervisor.num_shards == 2
        for owner in owners:
            http_status, document, _ = get(f"{router.url}/score?owner={owner}")
            assert http_status == 200
            assert document["digest"] == reference[owner]

    def test_fence_bounds_moving_owners_and_spares_the_rest(
        self, elastic_rig
    ):
        router, _ = elastic_rig
        owners = sorted(
            owner.user_id for owner in make_shard_population().owners
        )
        moves = moved_owners(ShardMap(2), ShardMap(3), owners)
        moving = {o for group in moves.values() for o in group}
        still = sorted(set(owners) - moving)
        assert moving and still

        begin(router, 3, pause_before="cutover")
        wait_for_pause(router, "cutover")
        try:
            # the paused migration is visible on /shards
            http_status, document, _ = get(f"{router.url}/shards")
            assert http_status == 200
            assert document["rebalance"]["status"] == "paused"
            assert document["rebalance"]["paused_at"] == "cutover"
            assert sorted(document["fence"]["owners"]) == sorted(moving)
            # moving owners: bounded 503 + Retry-After on reads and writes
            for owner in sorted(moving):
                http_status, document, response = get(
                    f"{router.url}/score?owner={owner}"
                )
                assert http_status == 503
                assert response.headers["Retry-After"] == "1"
                assert "migrat" in document["error"]
                http_status, document = post(
                    f"{router.url}/mutate", {"op": "touch", "owner": owner}
                )
                assert http_status == 503
            # graph broadcasts are fenced too (they would stale the
            # in-flight slice)
            http_status, document = post(
                f"{router.url}/mutate",
                {"op": "add_friendship", "a": owners[0], "b": owners[1]},
            )
            assert http_status == 503
            # non-moving owners: zero errors throughout
            for owner in still:
                http_status, document, _ = get(
                    f"{router.url}/score?owner={owner}"
                )
                assert http_status == 200
        finally:
            post(f"{router.url}/shards", {"resume": True})
        status = wait_for_rebalance(router)
        assert status
        assert status["status"] == "done"
        assert router.fence is None
        # fence lifted: everyone serves again
        for owner in owners:
            http_status, _, _ = get(f"{router.url}/score?owner={owner}")
            assert http_status == 200

    def test_abort_before_cutover_rolls_back(self, elastic_rig):
        router, supervisor = elastic_rig
        owners = sorted(
            owner.user_id for owner in make_shard_population().owners
        )
        begin(router, 3, pause_before="transfer")
        wait_for_pause(router, "transfer")
        post(f"{router.url}/shards", {"abort": True})
        status = wait_for_rebalance(router)
        assert status
        assert status["status"] == "aborted"
        assert "abort" in status["error"]
        # the fleet is back to its pre-migration shape and serves
        assert router.shard_map.num_shards == 2
        assert supervisor.num_shards == 2
        assert router.fence is None
        for owner in owners:
            http_status, _, _ = get(f"{router.url}/score?owner={owner}")
            assert http_status == 200

    def test_a_paused_migration_holds_no_thread_and_spares_the_rest(
        self, elastic_rig
    ):
        """The coordinator is a task on the router's event loop: paused
        mid-handoff it parks no thread, and the loop keeps routing."""
        router, _ = elastic_rig
        owners = sorted(
            owner.user_id for owner in make_shard_population().owners
        )
        moves = moved_owners(ShardMap(2), ShardMap(3), owners)
        moving = {o for group in moves.values() for o in group}
        still = sorted(set(owners) - moving)
        begin(router, 3, pause_before="transfer")
        wait_for_pause(router, "transfer")
        try:
            names = [thread.name for thread in threading.enumerate()]
            assert not [
                name for name in names
                if name == "rebalance" or name.startswith("rebalance-admin")
            ], names
            http_status, document, _ = get(
                f"{router.url}/score?owner={still[0]}"
            )
            assert http_status == 200, document
        finally:
            post(f"{router.url}/shards", {"resume": True})
        status = wait_for_rebalance(router)
        assert status and status["status"] == "done"

    def test_post_shards_drives_a_full_resize_over_http(self, elastic_rig):
        router, supervisor = elastic_rig
        owners = sorted(
            owner.user_id for owner in make_shard_population().owners
        )
        http_status, document = post(
            f"{router.url}/shards", {"count": 3, "pause_before": "cutover"}
        )
        assert http_status == 202
        assert document["ok"] is True
        wait_for_pause(router, "cutover")
        # a second resize while one is active is refused with the phase
        http_status, document = post(f"{router.url}/shards", {"count": 4})
        assert http_status == 409
        http_status, document = post(f"{router.url}/shards", {"resume": True})
        assert http_status == 202
        assert wait_for_rebalance(router)
        http_status, document, _ = get(f"{router.url}/shards")
        assert document["num_shards"] == 3
        assert supervisor.num_shards == 3
        for owner in owners:
            http_status, _, _ = get(f"{router.url}/score?owner={owner}")
            assert http_status == 200

    def test_post_shards_validates_input(self, elastic_rig):
        router, _ = elastic_rig
        http_status, document = post(f"{router.url}/shards", {"count": 0})
        assert http_status == 409
        http_status, document = post(f"{router.url}/shards", {"count": 2})
        assert http_status == 409  # already at 2
        http_status, document = post(
            f"{router.url}/shards", {"count": 3, "pause_before": "warp"}
        )
        assert http_status == 409
        http_status, document = post(f"{router.url}/shards", {})
        assert http_status == 400
        http_status, document = post(f"{router.url}/shards", {"resume": True})
        assert http_status == 409  # nothing active

    def test_post_shards_abort_rolls_back_over_http(self, elastic_rig):
        router, supervisor = elastic_rig
        post(f"{router.url}/shards", {"count": 3, "pause_before": "spawn"})
        wait_for_pause(router, "spawn")
        http_status, document = post(f"{router.url}/shards", {"abort": True})
        assert http_status == 202
        status = wait_for_rebalance(router)
        assert status
        assert status["status"] == "aborted"
        assert supervisor.num_shards == 2
