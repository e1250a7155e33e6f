"""Majority-vote baseline classifier.

The weakest sensible baseline: ignore all structure and predict the
distribution of the owner's labels so far for every unlabeled stranger.
Serves as the floor in the classifier-ablation benchmark (E11).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ClassifierError
from ..types import RiskLabel, UserId
from .base import PoolPredictions, label_prior
from .graphs import SimilarityGraph


class MajorityClassifier:
    """Predicts the empirical label distribution for every unlabeled node."""

    def __init__(self, graph: SimilarityGraph) -> None:
        self._graph = graph

    def predict(self, labeled: Mapping[UserId, RiskLabel]) -> PoolPredictions:
        """Predict the majority label for every unlabeled node."""
        if not labeled:
            raise ClassifierError("majority classifier needs at least one label")
        nodes = [node for node in self._graph.nodes if node not in labeled]
        masses = np.tile(label_prior(labeled), (len(nodes), 1))
        return PoolPredictions.from_masses(nodes, masses)
