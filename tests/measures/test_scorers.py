"""Tests for the builtin scorers and their digest/determinism contract."""

from __future__ import annotations

import pytest

from repro.experiments import run_study
from repro.measures import (
    MeasureRequest,
    available_measures,
    get_measure,
    run_measure_study,
)
from repro.service import OwnerStore, RiskEngine

from .conftest import MEASURE_SEED, make_measure_population


def request_for(population, position, **overrides):
    owner = population.owners[position]
    defaults = dict(
        graph=population.graph,
        owner=owner,
        index=position,
        seed=MEASURE_SEED,
    )
    defaults.update(overrides)
    return MeasureRequest(**defaults)


# ---------------------------------------------------------------------------
# contract shared by every registered measure
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", available_measures())
class TestMeasureContract:
    def test_compute_is_deterministic(self, measure_population, name):
        measure = get_measure(name)
        first = measure.compute(request_for(measure_population, 0))
        second = measure.compute(request_for(measure_population, 0))
        assert first.digest == second.digest

    def test_digest_recomputes_the_score_digest(
        self, measure_population, name
    ):
        """``measure.digest(result)`` is the worker integrity check: it
        must reproduce the digest computed at scoring time."""
        measure = get_measure(name)
        score = measure.compute(request_for(measure_population, 0))
        assert measure.digest(score.result) == score.digest

    def test_describe_returns_json_ready_blocks(
        self, measure_population, name
    ):
        import json

        measure = get_measure(name)
        score = measure.compute(request_for(measure_population, 0))
        document = measure.describe(score.result)
        assert isinstance(document, dict) and document
        json.dumps(document)  # must already be JSON-ready

    def test_cohort_index_fixes_the_score(self, measure_population, name):
        """Owners score under their cohort index, so two computations of
        different owners differ while re-runs of one owner agree."""
        measure = get_measure(name)
        digests = [
            measure.compute(request_for(measure_population, position)).digest
            for position in range(len(measure_population.owners))
        ]
        assert len(set(digests)) == len(digests)

    def test_measure_study_matches_direct_computation(
        self, measure_population, name
    ):
        study = run_measure_study(
            measure_population, name, seed=MEASURE_SEED
        )
        assert [run.owner_id for run in study.runs] == [
            owner.user_id for owner in measure_population.owners
        ]
        for position, run in enumerate(study.runs):
            direct = get_measure(name).compute(
                request_for(measure_population, position)
            )
            assert run.score.digest == direct.digest


# ---------------------------------------------------------------------------
# stranger: the refactor must be byte-identical to the paper pipeline
# ---------------------------------------------------------------------------
class TestStrangerMeasure:
    def test_digests_match_run_study_exactly(self, measure_population):
        from repro.io import result_digest

        study = run_study(measure_population, seed=MEASURE_SEED)
        measured = run_measure_study(
            measure_population, "stranger", seed=MEASURE_SEED
        )
        assert measured.digests() == {
            run.owner.user_id: result_digest(run.result)
            for run in study.runs
        }

    def test_granted_labels_cover_the_oracle_queries(self, measure_population):
        measure = get_measure("stranger")
        score = measure.compute(request_for(measure_population, 0))
        granted = measure.granted_labels(score.result)
        assert granted
        assert score.new_queries >= len(set(granted)) > 0


# ---------------------------------------------------------------------------
# friendship: induced disclosure risk of candidate friends
# ---------------------------------------------------------------------------
class TestFriendshipMeasure:
    def test_rows_cover_all_candidates_sorted_by_risk(
        self, measure_population
    ):
        score = get_measure("friendship").compute(
            request_for(measure_population, 0)
        )
        result = score.result
        owner = measure_population.owners[0]
        strangers = measure_population.handles[owner.user_id].strangers
        assert result["summary"]["candidates"] == len(result["candidates"])
        assert {row["user"] for row in result["candidates"]} >= set(strangers)
        risks = [row["risk"] for row in result["candidates"]]
        assert risks == sorted(risks, reverse=True)

    def test_risk_is_exposure_gain_discounted_by_similarity(
        self, measure_population
    ):
        score = get_measure("friendship").compute(
            request_for(measure_population, 0)
        )
        for row in score.result["candidates"]:
            assert 0.0 <= row["ns"] <= 1.0
            assert row["risk"] == pytest.approx(
                row["exposure_gain"] * (1.0 - row["ns"])
            )

    def test_pools_partition_the_candidates(self, measure_population):
        result = get_measure("friendship").compute(
            request_for(measure_population, 0)
        ).result
        pooled = sum(pool["count"] for pool in result["pools"])
        assert pooled == len(result["candidates"])
        for pool in result["pools"]:
            assert 0 <= pool["pool"] < 10  # alpha pools (Definition 1)

    def test_no_oracle_labels_are_granted(self, measure_population):
        measure = get_measure("friendship")
        score = measure.compute(request_for(measure_population, 0))
        assert measure.granted_labels(score.result) == {}
        assert score.new_queries == 0


# ---------------------------------------------------------------------------
# neighborhood: structural uniqueness against the whole-graph cohort
# ---------------------------------------------------------------------------
class TestNeighborhoodMeasure:
    def test_anonymity_sets_are_sane(self, measure_population):
        result = get_measure("neighborhood").compute(
            request_for(measure_population, 0)
        ).result
        r1 = result["radius_1"]["anonymity_set"]
        r2 = result["radius_2"]["anonymity_set"]
        assert 1 <= r2 <= r1 <= result["cohort_size"]
        assert result["radius_1"]["uniqueness"] == pytest.approx(1.0 / r1)
        assert result["radius_2"]["uniqueness"] == pytest.approx(1.0 / r2)
        assert result["risk_score"] == pytest.approx(1.0 / r2)

    def test_cohort_is_the_whole_graph(self, measure_population):
        result = get_measure("neighborhood").compute(
            request_for(measure_population, 0)
        ).result
        assert result["cohort_size"] == len(
            list(measure_population.graph.users())
        )

    def test_structural_twins_share_anonymity_sets(self, measure_population):
        """Every owner in a disjoint-ego cohort sees the same global
        cohort, so their anonymity accounting is mutually consistent."""
        scores = [
            get_measure("neighborhood").compute(
                request_for(measure_population, position)
            ).result
            for position in range(len(measure_population.owners))
        ]
        assert len({score["cohort_size"] for score in scores}) == 1


# ---------------------------------------------------------------------------
# engine integration: cold/warm/cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", available_measures())
class TestEngineAcrossMeasures:
    def test_cold_then_cache_then_warm(self, name):
        store = OwnerStore.from_population(make_measure_population())
        engine = RiskEngine(store, seed=MEASURE_SEED)
        owner_id = store.owner_ids()[0]
        cold = engine.score(owner_id, measure=name)
        assert cold.source == "cold" and cold.measure == name
        hit = engine.score(owner_id, measure=name)
        assert hit.source == "cache"
        assert hit.digest == cold.digest
        store.touch(owner_id)
        warm = engine.score(owner_id, measure=name)
        assert warm.source == "warm"
        if name != "stranger":
            # stateless measures recompute; same graph, same digest
            assert warm.digest == cold.digest

    def test_measures_are_cached_independently(self, name):
        store = OwnerStore.from_population(make_measure_population())
        engine = RiskEngine(store, seed=MEASURE_SEED)
        owner_id = store.owner_ids()[0]
        engine.score(owner_id, measure=name)
        other = next(m for m in available_measures() if m != name)
        first_other = engine.score(owner_id, measure=other)
        assert first_other.source == "cold"  # no cross-measure cache hits
        assert engine.score(owner_id, measure=name).source == "cache"
