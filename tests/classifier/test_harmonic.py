"""Tests for the Gaussian fields / harmonic function classifier."""

import numpy as np
import pytest

from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.errors import ClassifierError
from repro.types import RiskLabel

from .prediction_oracle import prediction_of


def graph_from(weights, nodes=None):
    weights = np.asarray(weights, dtype=float)
    nodes = nodes or list(range(weights.shape[0]))
    return SimilarityGraph(nodes, weights)


class TestBasics:
    def test_requires_labels(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ClassifierError):
            HarmonicClassifier(graph).predict({})

    def test_unknown_labeled_node_rejected(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ClassifierError):
            HarmonicClassifier(graph).predict({99: RiskLabel.RISKY})

    def test_all_labeled_returns_empty(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.NOT_RISKY}
        )
        assert predictions.nodes == ()
        assert predictions.masses.shape == (0, 3)

    def test_predicts_every_unlabeled_node(self):
        size = 6
        graph = graph_from(np.ones((size, size)) - np.eye(size))
        predictions = HarmonicClassifier(graph).predict({0: RiskLabel.RISKY})
        assert predictions.nodes == tuple(range(1, size))
        assert predictions.labels.shape == predictions.scores.shape == (size - 1,)


class TestHarmonicProperties:
    def test_single_label_propagates_everywhere(self):
        graph = graph_from(np.ones((4, 4)) - np.eye(4))
        predictions = HarmonicClassifier(graph).predict({0: RiskLabel.VERY_RISKY})
        assert set(predictions.label_map().values()) == {RiskLabel.VERY_RISKY}
        assert predictions.masses[:, 2] == pytest.approx(1.0)

    def test_two_cluster_separation(self):
        """Two dense blocks with a weak bridge: each block follows its
        labeled anchor."""
        weights = np.array(
            [
                [0.0, 1.0, 0.0, 0.01],
                [1.0, 0.0, 0.01, 0.0],
                [0.0, 0.01, 0.0, 1.0],
                [0.01, 0.0, 1.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 2: RiskLabel.VERY_RISKY}
        )
        labels = predictions.label_map()
        assert labels[1] is RiskLabel.NOT_RISKY
        assert labels[3] is RiskLabel.VERY_RISKY

    def test_scores_lie_in_label_hull(self):
        rng = np.random.default_rng(0)
        size = 10
        weights = rng.random((size, size))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 0.0)
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.RISKY}
        )
        assert np.all(predictions.scores >= 1.0)
        assert np.all(predictions.scores <= 2.0 + 1e-9)

    def test_masses_sum_to_one(self):
        graph = graph_from(np.ones((5, 5)) - np.eye(5))
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.masses.sum(axis=1) == pytest.approx(1.0)

    def test_equidistant_node_gets_mixed_masses(self):
        weights = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        mixed = prediction_of(predictions, 2)
        assert mixed.masses[1] == pytest.approx(0.5, abs=1e-6)
        assert mixed.masses[3] == pytest.approx(0.5, abs=1e-6)
        assert mixed.score == pytest.approx(2.0, abs=1e-6)

    def test_isolated_node_falls_back_to_label_prior(self):
        weights = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.VERY_RISKY}
        )
        assert prediction_of(predictions, 2).masses[3] == pytest.approx(1.0)

    def test_closer_anchor_dominates(self):
        weights = np.array(
            [
                [0.0, 0.0, 0.9],
                [0.0, 0.0, 0.1],
                [0.9, 0.1, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.label_map()[2] is RiskLabel.NOT_RISKY

    def test_tie_breaks_toward_higher_risk(self):
        """The paper: under-prediction is the dangerous error."""
        weights = np.array(
            [
                [0.0, 0.0, 0.5],
                [0.0, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.label_map()[2] is RiskLabel.VERY_RISKY
