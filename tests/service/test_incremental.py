"""The incremental-rescoring equivalence gate, plus engine staleness
and metrics regression tests.

The hard contract under test: every score the engine serves — cold,
warm-after-any-mutation, full-fallback — has a ``result_digest``
**byte-identical** to a cold recompute of the same measure on the
current graph.  The stateful Hypothesis machine interleaves random
mutations and scores and asserts the contract at every step, for every
registered measure; directed tests pin the individual mutation kinds.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import UnknownMeasureError, UnknownOwnerError
from repro.graph.profile import Profile, ProfileAttribute
from repro.measures import MeasureRequest, available_measures, get_measure
from repro.service import OwnerStore, RiskEngine
from repro.service.store import OwnerEntry
from repro.synth import EgoNetConfig, generate_study_population

from .conftest import SERVICE_SEED, make_service_population


def cold_digest(store, owner_id, measure, seed):
    """A from-scratch cold recompute on the *current* graph — the
    reference every incrementally served digest must equal."""
    entry = store.get(owner_id)
    request = MeasureRequest(
        graph=store.graph,
        owner=entry.owner,
        index=entry.index,
        pooling="npp",
        classifier="harmonic",
        config=None,
        seed=seed,
        use_owner_confidence=True,
    )
    return get_measure(measure).compute(request).digest


class TestDigestEquivalence:
    """Directed warm-equals-cold checks, one per mutation kind."""

    def setup_method(self):
        self.population = make_service_population()
        self.store = OwnerStore.from_population(self.population)
        self.engine = RiskEngine(self.store, seed=SERVICE_SEED)
        self.owner = self.population.owners[0].user_id
        handle = self.population.handles[self.owner]
        self.strangers = sorted(handle.strangers)
        self.friends = sorted(handle.friends)

    def assert_warm_equals_cold(self):
        warm = self.engine.score(self.owner)
        assert warm.source == "warm"
        assert warm.digest == cold_digest(
            self.store, self.owner, "stranger", SERVICE_SEED
        )
        return warm

    def test_stranger_stranger_edge(self):
        cold = self.engine.score(self.owner)
        self.store.add_friendship(self.strangers[0], self.strangers[1])
        warm = self.assert_warm_equals_cold()
        # NS is untouched (the new neighbor is outside the owner's
        # mutual sets), so every pool replays: full label reuse
        assert warm.reused_labels == cold.result.labels_requested

    def test_friend_stranger_edge_changes_ns(self):
        self.engine.score(self.owner)
        self.store.add_friendship(self.friends[0], self.strangers[3])
        self.assert_warm_equals_cold()

    def test_edge_removal(self):
        self.store.add_friendship(self.strangers[0], self.strangers[1])
        self.engine.score(self.owner)
        self.store.remove_friendship(self.strangers[0], self.strangers[1])
        self.assert_warm_equals_cold()

    def test_profile_update(self):
        self.engine.score(self.owner)
        target = self.strangers[2]
        profile = self.store.graph.profile(target)
        mutated = Profile(
            user_id=target,
            attributes={
                **profile.attributes,
                ProfileAttribute.LOCALE: "altered-locale",
            },
            privacy=dict(profile.privacy),
        )
        self.store.update_profile(mutated)
        self.assert_warm_equals_cold()

    def test_owner_endpoint_edge_full_delta(self):
        self.engine.score(self.owner)
        self.store.add_friendship(self.owner, self.strangers[0])
        self.assert_warm_equals_cold()

    def test_touch_full_delta_still_replays_pools(self):
        cold = self.engine.score(self.owner)
        self.store.touch(self.owner)
        warm = self.assert_warm_equals_cold()
        assert warm.digest == cold.digest  # graph unchanged
        # full delta forces NS/benefit recompute, but recomputed-input
        # equality lets every pool replay
        assert warm.reused_labels == cold.result.labels_requested

    def test_incremental_stats_surface_in_metrics(self):
        self.engine.score(self.owner)
        self.store.add_friendship(self.strangers[0], self.strangers[1])
        self.engine.score(self.owner)
        block = self.engine.metrics.snapshot()["incremental"]
        assert block["scores"] == 2  # the cold state-builder counts too
        assert block["full_runs"] == 1
        assert block["pools_reused"] > 0
        assert block["ns_reused"] > 0


class TestRemovedEdgeInvalidation:
    """Satellite: a removed edge invalidates exactly
    ``owners_of(a) | owners_of(b)``, and the subsequent warm score
    equals a cold recompute on the shrunken graph."""

    def test_invalidation_scope_and_shrunken_graph_digest(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        engine = RiskEngine(store, seed=SERVICE_SEED)
        first, second = [o.user_id for o in population.owners]
        s1, s2 = sorted(population.handles[first].strangers)[:2]
        store.add_friendship(s1, s2)
        for owner in (first, second):
            engine.score(owner)

        affected = store.remove_friendship(s1, s2)
        assert affected == store.owners_of(s1) | store.owners_of(s2)
        assert affected == {first}  # disjoint egos: second untouched

        warm = engine.score(first)
        assert warm.source == "warm"
        assert warm.digest == cold_digest(
            store, first, "stranger", SERVICE_SEED
        )
        # the untouched owner is still served from cache
        assert engine.score(second).source == "cache"


class TestStaleEntryRace:
    """Satellite: the entry snapshot is taken *inside* the owner lock.

    Regression: ``score`` used to fetch the entry before acquiring the
    per-owner lock, so an entry swapped while the thread waited (live
    migration's ``attach_entry``) was scored with pre-swap identity —
    wrong cohort index, wrong seed, wrong digest."""

    def test_entry_swapped_while_waiting_is_observed(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        engine = RiskEngine(store, seed=SERVICE_SEED)
        owner = population.owners[0].user_id
        old_entry = store.get(owner)
        swapped_index = old_entry.index + 7  # different session seed

        records = []
        started = threading.Event()

        def score_when_unblocked():
            started.set()
            records.append(engine.score(owner))

        with engine._owner_lock(owner):
            worker = threading.Thread(target=score_when_unblocked)
            worker.start()
            assert started.wait(timeout=10)
            # wait until the worker is parked on the owner lock
            deadline = threading.Event()
            while engine._owners[owner].refs < 2:
                deadline.wait(0.005)
            # swap the entry under the waiter (a live migration)
            store.attach_entry(
                OwnerEntry(
                    owner=old_entry.owner,
                    index=swapped_index,
                    version=old_entry.version,
                    universe=set(old_entry.universe),
                    labels=dict(old_entry.labels),
                )
            )
        worker.join(timeout=60)
        assert records, "score thread never completed"
        record = records[0]
        # the score must reflect the swapped entry's identity
        assert record.digest == cold_digest(
            store, owner, "stranger", SERVICE_SEED
        )
        assert store.get(owner).index == swapped_index


class TestMetricsErrorAccounting:
    """Satellite (pinned): unknown-owner and unknown-measure requests
    count as errors.  Regression: both raised before the counting
    ``try`` block, so ``errors`` stayed 0 forever."""

    def test_unknown_owner_increments_errors(self):
        population = make_service_population()
        engine = RiskEngine(
            OwnerStore.from_population(population), seed=SERVICE_SEED
        )
        with pytest.raises(UnknownOwnerError):
            engine.score(424_242)
        snapshot = engine.metrics.snapshot()
        assert snapshot["errors"] == 1
        assert snapshot["requests"] == 1
        assert snapshot["measures"]["stranger"]["errors"] == 1

    def test_unknown_measure_increments_errors_globally_only(self):
        population = make_service_population()
        engine = RiskEngine(
            OwnerStore.from_population(population), seed=SERVICE_SEED
        )
        owner = population.owners[0].user_id
        with pytest.raises(UnknownMeasureError):
            engine.score(owner, measure="no-such-measure")
        snapshot = engine.metrics.snapshot()
        assert snapshot["errors"] == 1
        assert snapshot["requests"] == 1
        # no per-measure block keyed by the attacker-controlled name
        assert "no-such-measure" not in snapshot["measures"]


class TestOverviewMultiMeasure:
    """Satellite: ``owners_overview`` folds the memo in one pass and
    reports per-measure freshness correctly."""

    def test_cached_measures_lists_only_fresh_records(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        engine = RiskEngine(store, seed=SERVICE_SEED)
        first, second = [o.user_id for o in population.owners]
        engine.score(first)
        engine.score(first, measure="friendship")
        engine.score(second, measure="neighborhood")
        store.touch(second)
        by_owner = {
            row["owner"]: row for row in engine.owners_overview()
        }
        assert by_owner[first]["cached_measures"] == [
            "friendship",
            "stranger",
        ]
        assert by_owner[first]["cache_fresh"] is True
        # second's only record went stale with the touch
        assert by_owner[second]["cached_measures"] == []
        assert by_owner[second]["cache_fresh"] is False


class TestShardedTopology:
    """Mutate-then-score digests agree between a sharded store (global
    cohort indices, subset of owners) and the unsharded deployment."""

    def test_sharded_and_unsharded_serve_identical_digests(self):
        from repro.service import ShardMap

        population = make_service_population()
        owners = [o.user_id for o in population.owners]
        shard_map = ShardMap(num_shards=2)

        unsharded_pop = make_service_population()
        unsharded = OwnerStore.from_population(unsharded_pop)
        unsharded_engine = RiskEngine(unsharded, seed=SERVICE_SEED)

        shard_stores = {}
        shard_engines = {}
        for index in range(2):
            pop = make_service_population()
            shard_stores[index] = OwnerStore.from_population(
                pop, shard_map=shard_map, shard_index=index
            )
            shard_engines[index] = RiskEngine(
                shard_stores[index], seed=SERVICE_SEED
            )

        def mutate_everywhere(a, b):
            unsharded.add_friendship(a, b)
            for store in shard_stores.values():
                store.add_friendship(a, b)

        for owner in owners:
            shard = shard_map.shard_of(owner)
            cold_shard = shard_engines[shard].score(owner)
            cold_flat = unsharded_engine.score(owner)
            assert cold_shard.digest == cold_flat.digest

        first = owners[0]
        s1, s2 = sorted(population.handles[first].strangers)[:2]
        mutate_everywhere(s1, s2)
        shard = shard_map.shard_of(first)
        warm_shard = shard_engines[shard].score(first)
        warm_flat = unsharded_engine.score(first)
        assert warm_shard.source == warm_flat.source == "warm"
        assert warm_shard.digest == warm_flat.digest


def machine_population():
    """A deliberately small cohort: the machine runs many full scores."""
    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(num_friends=8, num_strangers=20),
        seed=29,
    )


class IncrementalEquivalenceMachine(RuleBasedStateMachine):
    """Interleave random mutations and scores; after every score, the
    served digest must equal a cold recompute — for every registered
    measure (incremental and not)."""

    @initialize()
    def build(self):
        self.population = machine_population()
        self.store = OwnerStore.from_population(self.population)
        self.engine = RiskEngine(self.store, seed=29)
        self.owners = [o.user_id for o in self.population.owners]
        self.users = sorted(
            user
            for owner in self.owners
            for user in (
                *self.population.handles[owner].strangers,
                *self.population.handles[owner].friends,
            )
        )
        self.added_edges: list[tuple[int, int]] = []

    @rule(data=st.data())
    def add_edge(self, data):
        a = data.draw(st.sampled_from(self.users), label="endpoint_a")
        b = data.draw(st.sampled_from(self.users), label="endpoint_b")
        if a == b or self.store.graph.are_friends(a, b):
            return
        self.store.add_friendship(a, b)
        self.added_edges.append((a, b))

    @rule(data=st.data())
    def remove_added_edge(self, data):
        if not self.added_edges:
            return
        edge = data.draw(
            st.sampled_from(self.added_edges), label="removed_edge"
        )
        self.added_edges.remove(edge)
        self.store.remove_friendship(*edge)

    @rule(data=st.data(), token=st.integers(min_value=0, max_value=999))
    def update_profile(self, data, token):
        user = data.draw(st.sampled_from(self.users), label="profile_user")
        profile = self.store.graph.profile(user)
        mutated = Profile(
            user_id=user,
            attributes={
                **profile.attributes,
                ProfileAttribute.LOCATION: f"town-{token}",
            },
            privacy=dict(profile.privacy),
        )
        self.store.update_profile(mutated)

    @rule(data=st.data())
    def touch(self, data):
        owner = data.draw(st.sampled_from(self.owners), label="touched")
        self.store.touch(owner)

    @rule(data=st.data())
    def score_and_check(self, data):
        owner = data.draw(st.sampled_from(self.owners), label="scored")
        measure = data.draw(
            st.sampled_from(sorted(available_measures())), label="measure"
        )
        record = self.engine.score(owner, measure=measure)
        assert record.digest == cold_digest(self.store, owner, measure, 29)

    @invariant()
    def versions_never_regress(self):
        if not hasattr(self, "store"):
            return
        for owner in self.owners:
            assert self.store.version(owner) >= 0


# Tier-1 keeps the machine cheap; `make incremental-smoke` cranks it up
# through the environment.
IncrementalEquivalenceMachine.TestCase.settings = settings(
    max_examples=int(os.environ.get("INCREMENTAL_MACHINE_EXAMPLES", "5")),
    stateful_step_count=int(
        os.environ.get("INCREMENTAL_MACHINE_STEPS", "12")
    ),
    deadline=None,
)

TestIncrementalEquivalence = IncrementalEquivalenceMachine.TestCase
