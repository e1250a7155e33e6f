"""Tests for the harmonic classifier's sparse solver path."""

import numpy as np
import pytest

from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.config import ClassifierConfig
from repro.types import RiskLabel


def sparse_block_graph(size=40, seed=0):
    """Two weakly bridged blocks with sparse random internal edges."""
    rng = np.random.default_rng(seed)
    weights = np.zeros((size, size))
    half = size // 2
    for block in (range(half), range(half, size)):
        nodes = list(block)
        for _ in range(size * 2):
            a, b = rng.choice(nodes, size=2, replace=False)
            weights[a, b] = weights[b, a] = rng.uniform(0.5, 1.0)
    weights[0, half] = weights[half, 0] = 0.01
    return SimilarityGraph(list(range(size)), weights)


class TestSparseSolver:
    def labeled(self, size=40):
        return {0: RiskLabel.NOT_RISKY, size // 2: RiskLabel.VERY_RISKY}

    def test_sparse_matches_dense(self):
        graph = sparse_block_graph()
        dense = HarmonicClassifier(
            graph, ClassifierConfig(sparse_size_threshold=0)
        ).predict(self.labeled())
        sparse = HarmonicClassifier(
            graph, ClassifierConfig(sparse_size_threshold=1)
        ).predict(self.labeled())
        assert dense.keys() == sparse.keys()
        for node in dense:
            assert dense[node].label is sparse[node].label
            assert dense[node].score == pytest.approx(
                sparse[node].score, abs=1e-6
            )

    def test_sparse_path_separates_blocks(self):
        graph = sparse_block_graph(size=60, seed=3)
        predictions = HarmonicClassifier(
            graph, ClassifierConfig(sparse_size_threshold=1)
        ).predict(self.labeled(size=60))
        # nodes in the first block follow anchor 0, second block anchor 30
        first_block = [n for n in range(1, 30) if n in predictions]
        second_block = [n for n in range(31, 60) if n in predictions]
        first_correct = sum(
            1 for n in first_block
            if predictions[n].label is RiskLabel.NOT_RISKY
        )
        second_correct = sum(
            1 for n in second_block
            if predictions[n].label is RiskLabel.VERY_RISKY
        )
        assert first_correct / len(first_block) > 0.8
        assert second_correct / len(second_block) > 0.8

    def test_dense_graph_skips_sparse_path(self):
        """A fully dense graph fails the density check even at size 1."""
        size = 10
        weights = np.ones((size, size)) - np.eye(size)
        graph = SimilarityGraph(list(range(size)), weights)
        predictions = HarmonicClassifier(
            graph,
            ClassifierConfig(
                sparse_size_threshold=1, sparse_density_threshold=0.3
            ),
        ).predict({0: RiskLabel.RISKY})
        for prediction in predictions.values():
            assert prediction.label is RiskLabel.RISKY

    def test_isolated_nodes_survive_sparse_path(self):
        size = 12
        weights = np.zeros((size, size))
        weights[0, 1] = weights[1, 0] = 1.0
        graph = SimilarityGraph(list(range(size)), weights)
        predictions = HarmonicClassifier(
            graph, ClassifierConfig(sparse_size_threshold=1)
        ).predict({0: RiskLabel.VERY_RISKY})
        assert predictions[5].masses[3] == pytest.approx(1.0)

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ClassifierConfig(sparse_size_threshold=-1)
        with pytest.raises(ConfigError):
            ClassifierConfig(sparse_density_threshold=1.5)

    @pytest.mark.parametrize("raised", [RuntimeError, ValueError])
    def test_failed_factorization_falls_back_to_dense(
        self, monkeypatch, raised
    ):
        """SuperLU raises RuntimeError on singular systems but some scipy
        versions raise ValueError; both must fall through to the dense
        solve (regression: ValueError used to escape the classifier)."""
        import scipy.sparse.linalg

        def explode(*args, **kwargs):
            raise raised("factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", explode)
        graph = sparse_block_graph()
        dense = HarmonicClassifier(
            graph, ClassifierConfig(sparse_size_threshold=0)
        ).predict(self.labeled())
        fallen_back = HarmonicClassifier(
            graph,
            ClassifierConfig(sparse_size_threshold=1),
        ).predict(self.labeled())
        for node in dense:
            assert dense[node].label is fallen_back[node].label
            assert dense[node].score == pytest.approx(
                fallen_back[node].score, abs=1e-9
            )
