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
from .base import Prediction, masses_to_prediction
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
        # One-entry cache for the sparse LU factor of (D - W_uu), keyed by
        # the unlabeled index partition.  Stabilization re-predicts with an
        # unchanged labeled set several times per round; a hit skips the
        # block slicing, system assembly and factorization entirely.
        self._factor_cache: tuple[tuple[int, ...], object] | None = None

    @property
    def graph(self) -> SimilarityGraph:
        """The underlying similarity graph."""
        return self._graph

    def predict(
        self, labeled: Mapping[UserId, RiskLabel]
    ) -> dict[UserId, Prediction]:
        """Predict labels for every unlabeled node.

        Raises
        ------
        ClassifierError
            If no labels are supplied, or a labeled id is not a pool node.
        """
        if not labeled:
            raise ClassifierError("harmonic classifier needs at least one label")
        nodes = self._graph.nodes
        labeled_idx = []
        for user_id in labeled:
            labeled_idx.append(self._graph.index_of(user_id))
        labeled_set = set(labeled_idx)
        unlabeled_idx = [
            position for position in range(len(nodes)) if position not in labeled_set
        ]
        if not unlabeled_idx:
            return {}

        masses = self._class_masses(labeled, labeled_idx, unlabeled_idx)
        predictions: dict[UserId, Prediction] = {}
        for row, position in enumerate(unlabeled_idx):
            node_masses = {
                value: float(masses[row, column])
                for column, value in enumerate(RiskLabel.values())
            }
            predictions[nodes[position]] = masses_to_prediction(node_masses)
        return predictions

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _class_masses(
        self,
        labeled: Mapping[UserId, RiskLabel],
        labeled_idx: list[int],
        unlabeled_idx: list[int],
    ) -> np.ndarray:
        label_values = RiskLabel.values()
        anchor = np.zeros((len(labeled_idx), len(label_values)))
        nodes = self._graph.nodes
        for row, position in enumerate(labeled_idx):
            value = int(labeled[nodes[position]])
            anchor[row, label_values.index(value)] = 1.0

        solution = self._solve_sparse(labeled_idx, unlabeled_idx, anchor)
        if solution is None:
            weights = np.asarray(self._graph.weights)
            w_uu = weights[np.ix_(unlabeled_idx, unlabeled_idx)]
            w_ul = weights[np.ix_(unlabeled_idx, labeled_idx)]
            degrees = w_uu.sum(axis=1) + w_ul.sum(axis=1)
            rhs = w_ul @ anchor
            solution = self._solve_dense(w_uu, degrees, rhs)

        solution = np.clip(solution, 0.0, None)
        row_sums = solution.sum(axis=1)
        prior = self._label_prior(labeled)
        for row in range(solution.shape[0]):
            if row_sums[row] <= 1e-12:
                solution[row] = prior
            else:
                solution[row] /= row_sums[row]
        return solution

    def _solve_sparse(
        self,
        labeled_idx: list[int],
        unlabeled_idx: list[int],
        anchor: np.ndarray,
    ) -> np.ndarray | None:
        """Sparse solve through a cached ``splu`` factorization.

        Pools can hold thousands of strangers; once ``min_edge_weight``
        sparsifies the similarity graph, a sparse factorization beats the
        dense LU by a wide margin.  All blocks come from the graph's
        cached CSR matrix (:meth:`SimilarityGraph.weights_csr`), and the
        factorization of ``D - W_uu`` is cached keyed by the unlabeled
        partition: the multi-RHS class-mass solve and every re-predict
        with an unchanged labeled set reuse one factor, so a warm predict
        only slices ``W_ul`` and runs triangular solves.  Warm and cold
        results are bitwise identical because both run exactly this code —
        only the factorization step is skipped on a hit.

        Returns ``None`` to hand control to :meth:`_solve_dense` whenever
        the sparse route does not apply: a system smaller than
        ``sparse_size_threshold`` or denser than
        ``sparse_density_threshold``, a singular factorization, or a
        non-finite solution.
        """
        size = len(unlabeled_idx)
        if not (
            self._config.sparse_size_threshold > 0
            and size >= self._config.sparse_size_threshold
        ):
            return None
        import scipy.sparse as sparse
        from scipy.sparse.linalg import splu

        rows = self._graph.weights_csr()[unlabeled_idx]
        key = tuple(unlabeled_idx)
        cached = self._factor_cache
        if cached is not None and cached[0] == key:
            factor = cached[1]
        else:
            w_uu = rows[:, unlabeled_idx]
            if (
                w_uu.nnz / max(size * size, 1)
                >= self._config.sparse_density_threshold
            ):
                return None
            degrees = np.asarray(rows.sum(axis=1)).ravel()
            system = sparse.csc_matrix(
                sparse.diags(degrees + self._config.epsilon) - w_uu
            )
            try:
                factor = splu(system)
            except (RuntimeError, ValueError):
                # SuperLU signals a singular factorization as RuntimeError
                # but some scipy versions' input validation raise
                # ValueError for the same condition; either way the dense
                # solve is the correct fallback.
                return None
            self._factor_cache = (key, factor)
        rhs = np.asarray(rows[:, labeled_idx] @ anchor)
        solution = factor.solve(rhs)
        if not np.all(np.isfinite(solution)):
            self._factor_cache = None
            return None
        return solution

    def _solve_dense(
        self, w_uu: np.ndarray, degrees: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(D - W_uu) f = rhs`` densely; least squares if singular."""
        system = np.diag(degrees + self._config.epsilon) - w_uu
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(system, rhs, rcond=None)[0]

    @staticmethod
    def _label_prior(labeled: Mapping[UserId, RiskLabel]) -> np.ndarray:
        values = RiskLabel.values()
        counts = np.zeros(len(values))
        for label in labeled.values():
            counts[values.index(int(label))] += 1
        return counts / counts.sum()
