"""Weighted k-nearest-neighbor baseline classifier.

Used by the ablation benchmarks (E11 in DESIGN.md) to demonstrate why the
paper chose a graph-based semi-supervised method: with the very few labels
active learning supplies, a purely local voter degrades faster than the
harmonic classifier, which propagates evidence through unlabeled nodes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..config import ClassifierConfig
from ..errors import ClassifierError
from ..types import RiskLabel, UserId
from .base import PoolPredictions, label_columns, label_prior, split_nodes
from .graphs import SimilarityGraph


class KnnClassifier:
    """Vote among the ``k`` most similar *labeled* strangers.

    Votes are weighted by the similarity-graph edge weight.  When every
    edge to the labeled set has zero weight the empirical label
    distribution is used, mirroring the harmonic classifier's fallback.
    """

    def __init__(
        self, graph: SimilarityGraph, config: ClassifierConfig | None = None
    ) -> None:
        self._graph = graph
        self._config = config or ClassifierConfig()

    def predict(self, labeled: Mapping[UserId, RiskLabel]) -> PoolPredictions:
        """Predict labels for every unlabeled node."""
        if not labeled:
            raise ClassifierError("knn classifier needs at least one label")
        labeled_idx, unlabeled_idx, unlabeled_nodes = split_nodes(
            self._graph, labeled
        )
        columns = label_columns(labeled)
        edge_weights = np.asarray(self._graph.weights)[
            np.ix_(unlabeled_idx, labeled_idx)
        ]
        # each row's labeled neighbors, heaviest first
        order = np.argsort(edge_weights, axis=1)[:, ::-1][:, : self._config.knn_k]
        rows = np.arange(len(unlabeled_idx))
        masses = np.zeros((len(unlabeled_idx), len(RiskLabel.values())))
        for neighbor in order.T:
            weight = edge_weights[rows, neighbor]
            masses[rows, columns[neighbor]] += np.where(weight <= 0, 0.0, weight)
        masses[masses.sum(axis=1) <= 0] = label_prior(labeled)
        masses /= masses.sum(axis=1)[:, None]
        return PoolPredictions.from_masses(unlabeled_nodes, masses)
