"""Tests for the memoizing risk engine.

Covers the two acceptance criteria of the service PR: cold engine scores
are byte-identical to the batch study, and graph deltas invalidate
exactly the affected owners (served warm, with prior labels reused).
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.errors import UnknownOwnerError
from repro.io import result_digest
from repro.measures import get_measure
from repro.service import OwnerStore, RiskEngine
from repro.service import engine as engine_module
from repro.synth import EgoNetConfig, generate_study_population

from .conftest import SERVICE_SEED


def owner_ids_of(population):
    return [owner.user_id for owner in population.owners]


def strangers_of(population, owner_id):
    return sorted(population.handles[owner_id].strangers)


class TestBatchEquivalence:
    def test_cold_scores_match_run_study_byte_for_byte(
        self, population, npp_study
    ):
        # same cohort, same seed (the npp_study fixture uses seed=5)
        engine = RiskEngine(OwnerStore.from_population(population), seed=5)
        for run in npp_study.runs:
            record = engine.score(run.owner.user_id)
            assert record.source == "cold"
            assert record.digest == result_digest(run.result)
            assert record.result.final_labels() == run.result.final_labels()


class TestCaching:
    def test_second_score_is_a_cache_hit(self, service_engine):
        owner_id = service_engine.store.owner_ids()[0]
        first = service_engine.score(owner_id)
        second = service_engine.score(owner_id)
        assert first.source == "cold"
        assert second.source == "cache"
        assert second.digest == first.digest
        assert second.elapsed_seconds == 0.0

    def test_cache_hit_rate_counts_hits(self, service_engine):
        owner_id = service_engine.store.owner_ids()[0]
        service_engine.score(owner_id)
        service_engine.score(owner_id)
        service_engine.score(owner_id)
        metrics = service_engine.metrics
        assert metrics.requests == 3
        assert metrics.cache_hits == 2
        assert metrics.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_forces_a_cold_rerun(self, service_engine):
        owner_id = service_engine.store.owner_ids()[0]
        first = service_engine.score(owner_id)
        service_engine.invalidate(owner_id)
        assert service_engine.cached(owner_id) is None
        again = service_engine.score(owner_id)
        assert again.source == "cold"
        assert again.digest == first.digest  # same graph, same seed

    def test_unknown_owner_raises(self, service_engine):
        with pytest.raises(UnknownOwnerError):
            service_engine.score(424_242)


class TestDeltaInvalidation:
    def test_delta_rescores_only_the_affected_owner(
        self, service_population, service_store, service_engine
    ):
        first, second = owner_ids_of(service_population)
        cold_first = service_engine.score(first)
        cold_second = service_engine.score(second)

        s1, s2 = strangers_of(service_population, first)[:2]
        affected = service_store.add_friendship(s1, s2)
        assert affected == {first}

        warm = service_engine.score(first)
        assert warm.source == "warm"
        assert warm.version == 1
        # prior owner labels came for free
        assert 0 < warm.reused_labels <= cold_first.result.labels_requested

        untouched = service_engine.score(second)
        assert untouched.source == "cache"
        assert untouched.digest == cold_second.digest

    def test_edge_removal_invalidates_the_cached_score(
        self, service_population, service_store, service_engine
    ):
        first, second = owner_ids_of(service_population)
        service_engine.score(first)
        cold_second = service_engine.score(second)

        s1, s2 = strangers_of(service_population, first)[:2]
        service_store.add_friendship(s1, s2)
        service_engine.score(first)  # warm, absorbs the new edge

        affected = service_store.remove_friendship(s1, s2)
        assert affected == {first}
        rescored = service_engine.score(first)
        # removal bumped the version: the memo is stale, not served
        assert rescored.source == "warm"
        assert rescored.version == 2
        untouched = service_engine.score(second)
        assert untouched.source == "cache"
        assert untouched.digest == cold_second.digest

    def test_warm_record_becomes_the_new_cache_entry(
        self, service_population, service_store, service_engine
    ):
        first = owner_ids_of(service_population)[0]
        service_engine.score(first)
        service_store.touch(first)
        warm = service_engine.score(first)
        assert warm.source == "warm"
        hit = service_engine.score(first)
        assert hit.source == "cache"
        assert hit.digest == warm.digest

    def test_metrics_account_cold_warm_and_reuse(
        self, service_population, service_store, service_engine
    ):
        first = owner_ids_of(service_population)[0]
        cold = service_engine.score(first)
        service_store.touch(first)
        service_engine.score(first)
        snapshot = service_engine.metrics.snapshot()
        assert snapshot["cold_scores"] == 1
        assert snapshot["warm_scores"] == 1
        assert 0 < snapshot["reused_labels"] <= cold.result.labels_requested
        assert snapshot["latency"]["cold"]["count"] == 1
        assert snapshot["latency"]["warm"]["count"] == 1


class TestOverview:
    def test_owners_overview_tracks_cache_freshness(
        self, service_population, service_store, service_engine
    ):
        first, second = owner_ids_of(service_population)
        service_engine.score(first)
        service_store.touch(first)
        by_owner = {
            row["owner"]: row for row in service_engine.owners_overview()
        }
        assert by_owner[first]["cached_version"] == 0
        assert by_owner[first]["cache_fresh"] is False
        assert by_owner[second]["cached_version"] is None
        assert by_owner[second]["cache_fresh"] is False
        service_engine.score(first)
        by_owner = {
            row["owner"]: row for row in service_engine.owners_overview()
        }
        assert by_owner[first]["cache_fresh"] is True

    def test_score_record_to_dict_is_json_shaped(self, service_engine):
        owner_id = service_engine.store.owner_ids()[0]
        document = service_engine.score(owner_id).to_dict()
        assert document["owner"] == owner_id
        assert document["source"] == "cold"
        assert document["version"] == 0
        assert isinstance(document["digest"], str)
        assert document["labels"]  # non-empty {stranger: label}
        assert all(isinstance(key, str) for key in document["labels"])
        assert "session" in document

    def test_a_memo_is_described_once_across_its_hits(
        self, service_engine, monkeypatch
    ):
        measure = get_measure("stranger")
        calls = []
        describe = type(measure).describe

        def counting(self, result):
            calls.append(result)
            return describe(self, result)

        monkeypatch.setattr(type(measure), "describe", counting)
        owner_id = service_engine.store.owner_ids()[0]
        cold = service_engine.score(owner_id).to_dict()
        hits = [service_engine.score(owner_id).to_dict() for _ in range(3)]
        assert len(calls) == 1
        assert all(
            {**hit, "source": "cold", "elapsed_seconds": 0.0}
            == {**cold, "elapsed_seconds": 0.0}
            for hit in hits
        )


class TestCacheBounds:
    """The memo and lock table are LRU-bounded (regression: they grew
    without bound for the lifetime of the server)."""

    def test_lru_eviction_under_a_tight_bound(
        self, service_population, service_store, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_CACHED_OWNERS", 1)
        engine = RiskEngine(service_store, seed=SERVICE_SEED)
        first, second = [o.user_id for o in service_population.owners]
        a = engine.score(first)
        engine.score(second)  # evicts first (LRU, bound 1)
        assert engine.cached(first) is None
        assert engine.cached(second) is not None
        assert engine.metrics.cache_evictions == 1
        assert engine.metrics.snapshot()["cache_evictions"] == 1
        # the evicted owner scores cold again, identically
        again = engine.score(first)
        assert again.source == "cold"
        assert again.digest == a.digest

    def test_lock_table_is_pruned_with_the_cache(
        self, service_population, service_store, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_CACHED_OWNERS", 1)
        engine = RiskEngine(service_store, seed=SERVICE_SEED)
        for owner in service_population.owners:
            engine.score(owner.user_id)
        assert len(engine._owners) <= engine_module.MAX_CACHED_OWNERS

    def test_held_locks_survive_pruning(self, monkeypatch):
        import threading

        monkeypatch.setattr(engine_module, "MAX_CACHED_OWNERS", 1)
        engine = RiskEngine.__new__(RiskEngine)
        engine._owners = OrderedDict()
        engine._guard = threading.Lock()
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with engine._owner_lock(7):
                entered.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(timeout=10)
        held_entry = engine._owners[7]
        # churn other owners past the bound while owner 7's lock is held
        for other in range(100, 110):
            with engine._owner_lock(other):
                pass
        assert engine._owners.get(7) is held_entry  # never dropped
        release.set()
        holder.join(timeout=10)
        assert len(engine._owners) <= 1

    def test_the_bound_counts_owners_not_measures(
        self, service_population, service_store, monkeypatch
    ):
        """Every measure of an owner shares its one LRU entry: N owners
        warm in all three measures fit a bound of N."""
        monkeypatch.setattr(engine_module, "MAX_CACHED_OWNERS", 2)
        engine = RiskEngine(service_store, seed=SERVICE_SEED)
        owners = [o.user_id for o in service_population.owners]
        assert len(owners) == 2
        measures = ("stranger", "friendship", "neighborhood")
        for measure in measures:
            for owner in owners:
                assert engine.score(owner, measure).source == "cold"
        assert engine.metrics.cache_evictions == 0
        for measure in measures:
            for owner in owners:
                assert engine.score(owner, measure).source == "cache"

    def test_a_cache_hit_keeps_the_pipeline_state_with_its_record(
        self, monkeypatch
    ):
        """A record and its pipeline state share one LRU entry: the hit
        that saves A's record from eviction saves A's state too, so A's
        next warm score replays its pools instead of rebuilding."""
        monkeypatch.setattr(engine_module, "MAX_CACHED_OWNERS", 2)
        store = OwnerStore.from_population(
            generate_study_population(
                num_owners=3,
                ego_config=EgoNetConfig(num_friends=15, num_strangers=50),
                seed=SERVICE_SEED,
            )
        )
        engine = RiskEngine(store, seed=SERVICE_SEED)
        a, b, c = store.owner_ids()
        cold = engine.score(a)
        engine.score(b)
        assert engine.score(a).source == "cache"
        engine.score(c)  # evicts B, the least recently served
        assert engine.cached(b) is None
        store.touch(a)
        warm = engine.score(a)
        assert warm.source == "warm"
        assert warm.digest == cold.digest  # a touch leaves the graph as is
        # every pool replayed: no label asked again, no full rebuild
        assert warm.reused_labels == cold.result.labels_requested
        assert engine.metrics.snapshot()["incremental"]["full_runs"] == 3


class TestLatencyWindow:
    """EngineMetrics keeps exact full-run aggregates while storing only a
    bounded window of samples (regression: the lists grew per request)."""

    def test_aggregates_cover_the_full_run(self):
        from repro.service import EngineMetrics

        metrics = EngineMetrics(latency_window=4)
        for value in range(1, 11):  # 1..10 seconds
            metrics.record_score("cold", float(value), reused=0, queries=1)
        stats = metrics.snapshot()["latency"]["cold"]
        assert stats["count"] == 10  # exact, not windowed
        assert stats["mean_seconds"] == pytest.approx(5.5)
        assert stats["max_seconds"] == 10.0
        # the recent mean reflects only the last `window` samples
        assert stats["recent_mean_seconds"] == pytest.approx(8.5)

    def test_sample_storage_is_bounded(self):
        from repro.service import EngineMetrics

        metrics = EngineMetrics(latency_window=8)
        for _ in range(1000):
            metrics.record_score("warm", 0.001, reused=1, queries=0)
        assert len(metrics._latency["warm"].recent) == 8
        assert metrics.snapshot()["latency"]["warm"]["count"] == 1000

    def test_invalid_window_is_rejected(self):
        from repro.errors import ServiceError
        from repro.service import EngineMetrics

        with pytest.raises(ServiceError):
            EngineMetrics(latency_window=0)


def test_engine_seed_fixture_matches(service_engine):
    # guards the conftest wiring the delta tests rely on
    assert service_engine.store.owner_ids()
    assert SERVICE_SEED == 17
