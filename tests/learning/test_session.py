"""Tests for the end-to-end RiskLearningSession."""

import pytest

from repro.config import PipelineConfig, PoolingConfig
from repro.errors import LearningError
from repro.graph.social_graph import SocialGraph
from repro.learning.oracle import CallbackOracle, RecordingOracle
from repro.learning.session import RiskLearningSession, pool_rng
from repro.types import RiskLabel

from ..conftest import make_ego_graph, make_profile


def similarity_oracle():
    """Label purely by the displayed similarity — simple and consistent."""

    def judge(query):
        if query.similarity >= 0.2:
            return RiskLabel.NOT_RISKY
        if query.benefit >= 0.05:
            return RiskLabel.RISKY
        return RiskLabel.VERY_RISKY

    return CallbackOracle(judge)


class TestSessionPipeline:
    def test_run_covers_every_stranger(self):
        graph, owner = make_ego_graph(num_friends=6, num_strangers=30, seed=1)
        session = RiskLearningSession(graph, owner, similarity_oracle(), seed=1)
        result = session.run()
        assert set(result.final_labels()) == set(session.ego.strangers)

    def test_all_labels_valid(self):
        graph, owner = make_ego_graph(num_friends=6, num_strangers=30, seed=2)
        result = RiskLearningSession(
            graph, owner, similarity_oracle(), seed=2
        ).run()
        assert all(
            isinstance(label, RiskLabel)
            for label in result.final_labels().values()
        )

    def test_similarities_bounded(self):
        graph, owner = make_ego_graph(seed=3)
        session = RiskLearningSession(graph, owner, similarity_oracle())
        for value in session.compute_similarities().values():
            assert 0.0 <= value <= 1.0

    def test_benefits_bounded(self):
        graph, owner = make_ego_graph(seed=3)
        session = RiskLearningSession(graph, owner, similarity_oracle())
        for value in session.compute_benefits().values():
            assert 0.0 <= value <= 1.0

    def test_pools_partition_strangers(self):
        graph, owner = make_ego_graph(seed=4)
        session = RiskLearningSession(graph, owner, similarity_oracle())
        pools = session.build_pools()
        members = [m for pool in pools for m in pool.members]
        assert sorted(members) == sorted(session.ego.strangers)

    def test_oracle_only_asked_about_strangers(self):
        graph, owner = make_ego_graph(seed=5)
        recorder = RecordingOracle(similarity_oracle())
        session = RiskLearningSession(graph, owner, recorder, seed=5)
        session.run()
        strangers = session.ego.strangers
        assert recorder.stats.queries > 0
        for query, _ in recorder.history:
            assert query.stranger in strangers

    def test_oracle_never_asked_twice_about_same_stranger(self):
        graph, owner = make_ego_graph(seed=6)
        recorder = RecordingOracle(similarity_oracle())
        RiskLearningSession(graph, owner, recorder, seed=6).run()
        asked = [query.stranger for query, _ in recorder.history]
        assert len(asked) == len(set(asked))

    def test_deterministic_given_seed(self):
        graph, owner = make_ego_graph(seed=7)
        first = RiskLearningSession(graph, owner, similarity_oracle(), seed=9).run()
        second = RiskLearningSession(graph, owner, similarity_oracle(), seed=9).run()
        assert first.final_labels() == second.final_labels()
        assert first.labels_requested == second.labels_requested


class TestSessionOptions:
    @pytest.mark.parametrize("name", ["harmonic", "knn", "majority"])
    def test_classifier_names(self, name):
        graph, owner = make_ego_graph(seed=8)
        result = RiskLearningSession(
            graph, owner, similarity_oracle(), classifier=name, seed=8
        ).run()
        assert result.num_strangers > 0

    def test_unknown_classifier_rejected(self):
        graph, owner = make_ego_graph(seed=8)
        with pytest.raises(LearningError):
            RiskLearningSession(
                graph, owner, similarity_oracle(), classifier="svm"
            )

    def test_custom_classifier_factory(self):
        """A user-written classifier plugs in through the array result:
        this one always predicts "very risky" with certainty."""
        from repro.classifier.base import PoolPredictions

        class AlwaysVeryRisky:
            def __init__(self, sim_graph):
                self.nodes = sim_graph.nodes

            def predict(self, labeled):
                nodes = [node for node in self.nodes if node not in labeled]
                return PoolPredictions.from_masses(
                    nodes, [[0.0, 0.0, 1.0]] * len(nodes)
                )

        graph, owner = make_ego_graph(seed=8)
        result = RiskLearningSession(
            graph, owner, similarity_oracle(), classifier=AlwaysVeryRisky, seed=8
        ).run()
        assert result.num_strangers > 0
        for pool in result.pool_results:
            assert set(pool.predicted_labels.values()) <= {RiskLabel.VERY_RISKY}
            for record in pool.rounds:
                assert set(record.predicted_scores.values()) <= {3.0}

    @pytest.mark.parametrize("pooling", ["npp", "nsp"])
    def test_pooling_strategies(self, pooling):
        graph, owner = make_ego_graph(seed=9)
        result = RiskLearningSession(
            graph, owner, similarity_oracle(), pooling=pooling, seed=9
        ).run()
        assert result.num_strangers == len(
            RiskLearningSession(graph, owner, similarity_oracle()).ego.strangers
        )

    def test_unknown_pooling_rejected(self):
        graph, owner = make_ego_graph(seed=9)
        with pytest.raises(LearningError):
            RiskLearningSession(
                graph, owner, similarity_oracle(), pooling="global"
            )

    def test_owner_without_strangers_rejected(self):
        graph = SocialGraph()
        graph.add_user(make_profile(0))
        graph.add_user(make_profile(1))
        graph.add_friendship(0, 1)
        session = RiskLearningSession(graph, 0, similarity_oracle())
        with pytest.raises(LearningError):
            session.run()

    def test_custom_pooling_config_respected(self):
        graph, owner = make_ego_graph(num_strangers=40, seed=10)
        config = PipelineConfig(pooling=PoolingConfig(alpha=2, min_pool_size=1))
        session = RiskLearningSession(
            graph, owner, similarity_oracle(), config=config
        )
        for pool in session.build_pools():
            assert pool.nsg_index in (1, 2)


class TestPoolRng:
    def test_a_seeded_pool_stream_is_a_function_of_seed_and_pool_id(self):
        assert pool_rng(7, "nsg1.c0").getstate() == pool_rng(
            7, "nsg1.c0"
        ).getstate()
        assert pool_rng(7, "nsg1.c0").getstate() != pool_rng(
            7, "nsg1.c1"
        ).getstate()
        assert pool_rng(7, "nsg1.c0").getstate() != pool_rng(
            8, "nsg1.c0"
        ).getstate()

    def test_an_unseeded_session_stays_unseeded(self):
        # not the fixed string "None:nsg1.c0": two runs draw differently
        assert pool_rng(None, "nsg1.c0").getstate() != pool_rng(
            None, "nsg1.c0"
        ).getstate()
