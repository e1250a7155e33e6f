"""Tests for the kNN and majority baseline classifiers."""

import numpy as np
import pytest

from repro.classifier.base import PoolPredictions
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.knn import KnnClassifier
from repro.classifier.majority import MajorityClassifier
from repro.config import ClassifierConfig
from repro.errors import ClassifierError
from repro.types import RiskLabel

from .prediction_oracle import (
    Prediction,
    masses_to_prediction,
    prediction_of,
    uniform_masses,
)


def graph_from(weights, nodes=None):
    weights = np.asarray(weights, dtype=float)
    nodes = nodes or list(range(weights.shape[0]))
    return SimilarityGraph(nodes, weights)


class TestPredictionHelpers:
    """``PoolPredictions.from_masses`` and the per-node oracle it
    replaced (:mod:`.prediction_oracle`)."""

    def test_uniform_masses(self):
        masses = uniform_masses()
        assert sum(masses.values()) == pytest.approx(1.0)
        assert len(masses) == 3
        result = PoolPredictions.from_masses([0], [list(masses.values())])
        assert result.scores.tolist() == [2.0]
        assert result.labels.tolist() == [3]

    def test_masses_to_prediction_normalizes(self):
        prediction = masses_to_prediction({1: 2.0, 2: 1.0, 3: 1.0})
        assert prediction.label is RiskLabel.NOT_RISKY
        assert sum(prediction.masses.values()) == pytest.approx(1.0)
        result = PoolPredictions.from_masses([0], [[2.0, 1.0, 1.0]])
        assert result.labels.tolist() == [1]
        assert result.masses.tolist() == [[0.5, 0.25, 0.25]]
        assert prediction_of(result, 0) == prediction

    def test_masses_to_prediction_zero_total_uniform(self):
        prediction = masses_to_prediction({1: 0.0, 2: 0.0, 3: 0.0})
        assert prediction.score == pytest.approx(2.0)
        # no classifier emits an all-zero row: the array form rejects it
        with pytest.raises(ValueError):
            PoolPredictions.from_masses([0], [[0.0, 0.0, 0.0]])

    def test_expectation_score(self):
        prediction = masses_to_prediction({1: 0.5, 2: 0.0, 3: 0.5})
        assert prediction.score == pytest.approx(2.0)
        result = PoolPredictions.from_masses([0, 1], [[0.5, 0.0, 0.5], [0, 0, 1]])
        assert result.scores.tolist() == [2.0, 3.0]

    def test_prediction_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            Prediction(label=RiskLabel.RISKY, score=2.0, masses={1: 0.2, 2: 0.2})
        with pytest.raises(ValueError):
            PoolPredictions.from_masses([0, 1], [[1.0, 0.0, 0.0], [np.nan, 1, 0]])


class TestKnn:
    def test_requires_labels(self):
        graph = graph_from(np.zeros((2, 2)))
        with pytest.raises(ClassifierError):
            KnnClassifier(graph).predict({})

    def test_follows_nearest_labeled_neighbor(self):
        weights = np.array(
            [
                [0.0, 0.0, 0.9],
                [0.0, 0.0, 0.1],
                [0.9, 0.1, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = KnnClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.label_map()[2] is RiskLabel.NOT_RISKY

    def test_k_limits_neighborhood(self):
        # node 4 is close to three VERY_RISKY anchors and one NOT_RISKY;
        # with k=1 only the single closest (NOT_RISKY) votes.
        weights = np.zeros((5, 5))
        for anchor, value in ((0, 0.5), (1, 0.5), (2, 0.5), (3, 0.9)):
            weights[4, anchor] = value
            weights[anchor, 4] = value
        graph = graph_from(weights)
        labels = {
            0: RiskLabel.VERY_RISKY,
            1: RiskLabel.VERY_RISKY,
            2: RiskLabel.VERY_RISKY,
            3: RiskLabel.NOT_RISKY,
        }
        narrow = KnnClassifier(graph, ClassifierConfig(knn_k=1)).predict(labels)
        wide = KnnClassifier(graph, ClassifierConfig(knn_k=4)).predict(labels)
        assert narrow.label_map()[4] is RiskLabel.NOT_RISKY
        assert wide.label_map()[4] is RiskLabel.VERY_RISKY

    def test_disconnected_node_uses_prior(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        graph = graph_from(weights)
        predictions = KnnClassifier(graph).predict({0: RiskLabel.RISKY})
        assert predictions.label_map()[2] is RiskLabel.RISKY
        assert predictions.masses[1].tolist() == [0.0, 1.0, 0.0]

    def test_predicts_all_unlabeled(self):
        graph = graph_from(np.ones((4, 4)) - np.eye(4))
        predictions = KnnClassifier(graph).predict({0: RiskLabel.RISKY})
        assert predictions.nodes == (1, 2, 3)


class TestMajority:
    def test_requires_labels(self):
        graph = graph_from(np.zeros((2, 2)))
        with pytest.raises(ClassifierError):
            MajorityClassifier(graph).predict({})

    def test_predicts_majority_everywhere(self):
        graph = graph_from(np.zeros((5, 5)))
        predictions = MajorityClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.RISKY, 2: RiskLabel.VERY_RISKY}
        )
        assert predictions.nodes == (3, 4)
        assert predictions.labels.tolist() == [2, 2]

    def test_masses_reflect_distribution(self):
        graph = graph_from(np.zeros((3, 3)))
        predictions = MajorityClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.VERY_RISKY}
        )
        masses = prediction_of(predictions, 2).masses
        assert masses[2] == pytest.approx(0.5)
        assert masses[3] == pytest.approx(0.5)
