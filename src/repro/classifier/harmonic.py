"""Gaussian fields / harmonic function classifier (Zhu et al. 2003).

The classifier minimizes the quadratic energy
``E(f) = 1/2 * sum_ij w_ij (f_i - f_j)^2`` subject to ``f`` matching the
owner labels on labeled nodes.  The minimizer is *harmonic*: each unlabeled
node's value is the weighted average of its neighbors', which is also the
absorption probability of the random walk the ICDE paper mentions
("the classifier predicts similar labels for similar neighbors on the
graph, by exploiting the random walk strategy").

We solve the harmonic system one class at a time (one-vs-rest, one-hot
anchor values), giving per-class masses for every unlabeled stranger:

``f_u = (D_uu - W_uu)^{-1} W_ul f_l``

Unlabeled nodes with no weight to the rest of the graph (possible after
sparsification) fall back to the empirical distribution of the owner's
labels — the least-commitment prior available.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..config import ClassifierConfig
from ..errors import ClassifierError
from ..types import RiskLabel, UserId
from .base import PoolPredictions, label_columns, label_prior, split_nodes
from .graphs import SimilarityGraph


class HarmonicClassifier:
    """Zhu/Ghahramani/Lafferty harmonic classifier over one pool.

    Parameters
    ----------
    graph:
        The pool's similarity graph (``PS()`` edge weights).
    config:
        Regularization (``epsilon`` added to the system diagonal keeps the
        solve well-posed when unlabeled components are isolated).
    """

    def __init__(
        self, graph: SimilarityGraph, config: ClassifierConfig | None = None
    ) -> None:
        self._graph = graph
        self._config = config or ClassifierConfig()

    @property
    def graph(self) -> SimilarityGraph:
        """The underlying similarity graph."""
        return self._graph

    def predict(self, labeled: Mapping[UserId, RiskLabel]) -> PoolPredictions:
        """Predict labels for every unlabeled node.

        Raises
        ------
        ClassifierError
            If no labels are supplied, or a labeled id is not a pool node.
        """
        if not labeled:
            raise ClassifierError("harmonic classifier needs at least one label")
        labeled_idx, unlabeled_idx, unlabeled_nodes = split_nodes(
            self._graph, labeled
        )
        masses = self._class_masses(labeled, labeled_idx, unlabeled_idx)
        return PoolPredictions.from_masses(unlabeled_nodes, masses)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _class_masses(
        self,
        labeled: Mapping[UserId, RiskLabel],
        labeled_idx: list[int],
        unlabeled_idx: np.ndarray,
    ) -> np.ndarray:
        """Row-normalized class masses; isolated rows take the label prior."""
        solution = self._solve(labeled, labeled_idx, unlabeled_idx)
        row_sums = solution.sum(axis=1)
        isolated = row_sums <= 1e-12
        np.divide(
            solution, row_sums[:, None], out=solution, where=~isolated[:, None]
        )
        solution[isolated] = label_prior(labeled)
        return solution

    def _solve(
        self,
        labeled: Mapping[UserId, RiskLabel],
        labeled_idx: list[int],
        unlabeled_idx: np.ndarray,
    ) -> np.ndarray:
        """The one-vs-rest harmonic solution, clipped at 0.

        Solves ``(D_uu - W_uu) f = W_ul y`` densely, by least squares if
        the system is singular.
        """
        anchor = np.zeros((len(labeled_idx), len(RiskLabel.values())))
        anchor[np.arange(len(labeled_idx)), label_columns(labeled)] = 1.0
        weights = np.asarray(self._graph.weights)
        w_uu = weights[np.ix_(unlabeled_idx, unlabeled_idx)]
        w_ul = weights[np.ix_(unlabeled_idx, labeled_idx)]
        degrees = w_uu.sum(axis=1) + w_ul.sum(axis=1)
        # D_uu - W_uu, built in the gathered copy: ``0 - w`` keeps the
        # +0.0 a negation would flip to -0.0, and a pool graph's zero
        # diagonal takes the degrees as they are
        system = np.subtract(0.0, w_uu, out=w_uu)
        np.fill_diagonal(system, degrees + self._config.epsilon)
        rhs = w_ul @ anchor
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
        return np.clip(solution, 0.0, None)
