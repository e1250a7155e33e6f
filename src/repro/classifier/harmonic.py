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

``D_uu - W_uu`` plus ``epsilon`` on its diagonal is symmetric positive
definite, so each round is solved by Cholesky: LAPACK ``dposv`` from the
OpenBLAS numpy already loads, called through :mod:`ctypes`.  That maps no
second BLAS; a system ``dposv`` finds not positive definite (``epsilon =
0`` with an isolated unlabeled row) goes to LU, and to least squares if
LU finds it singular.

Unlabeled nodes with no weight to the rest of the graph (possible after
sparsification) fall back to the empirical distribution of the owner's
labels — the least-commitment prior available.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Mapping

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
        if isolated.any():
            solution[isolated] = label_prior(labeled)
        return solution

    def _solve(
        self,
        labeled: Mapping[UserId, RiskLabel],
        labeled_idx: list[int],
        unlabeled_idx: np.ndarray,
    ) -> np.ndarray:
        """The one-vs-rest harmonic solution, clipped at 0.

        Solves ``(D_uu - W_uu + eps*I) f = W_ul y`` by Cholesky
        (:func:`_cholesky_solve`).  A system that is not positive
        definite is built again (the factorization overwrote it) and
        solved by LU, or by least squares if LU finds it singular; with
        no ``dposv`` to call, every system goes that way.
        """
        system, rhs = self._system(labeled, labeled_idx, unlabeled_idx)
        dposv = _dposv()
        if dposv is not None:
            solution = _cholesky_solve(dposv, system, rhs)
            if solution is not None:
                # the solution is a transposed view; the masses stay C order
                return np.clip(solution, 0.0, None, order="C")
            system, rhs = self._system(labeled, labeled_idx, unlabeled_idx)
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
        return np.clip(solution, 0.0, None)

    def _system(
        self,
        labeled: Mapping[UserId, RiskLabel],
        labeled_idx: list[int],
        unlabeled_idx: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(D_uu - W_uu + eps*I, W_ul y)``, the system in a fresh array."""
        anchor = np.eye(len(RiskLabel.values()))[label_columns(labeled)]
        # the unlabeled rows, gathered once; W_ul keeps the labels' order
        rows = np.asarray(self._graph.weights).take(unlabeled_idx, axis=0)
        w_uu = rows.take(unlabeled_idx, axis=1)
        w_ul = rows.take(labeled_idx, axis=1)
        degrees = w_uu.sum(axis=1) + w_ul.sum(axis=1)
        # D_uu - W_uu, built in the gathered copy: ``0 - w`` keeps the
        # +0.0 a negation would flip to -0.0, and a pool graph's zero
        # diagonal takes the degrees as they are
        system = np.subtract(0.0, w_uu, out=w_uu)
        np.fill_diagonal(system, degrees + self._config.epsilon)
        return system, w_ul @ anchor


#: ``dposv`` in the ILP64 OpenBLAS of numpy's wheels: numpy >= 2 renames
#: it with a ``scipy_`` prefix, numpy 1.2x does not.  An unsuffixed
#: ``dposv_`` is never called: its integer width is unknown.
_DPOSV_SYMBOLS = ("scipy_dposv_64_", "dposv_64_")


@functools.cache
def _dposv() -> Callable[..., None] | None:
    """numpy's own LAPACK ``dposv``, resolved once; ``None`` if absent.

    ``numpy.linalg`` links the OpenBLAS numpy already loaded, so looking
    the symbol up through it maps no new library.
    """
    from numpy.linalg import _umath_linalg

    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for symbol in _DPOSV_SYMBOLS:
        function = getattr(library, symbol, None)
        if function is not None:
            integer = ctypes.POINTER(ctypes.c_int64)
            function.argtypes = [
                ctypes.c_char_p,  # uplo
                integer,  # n
                integer,  # nrhs
                ctypes.c_void_p,  # a
                integer,  # lda
                ctypes.c_void_p,  # b
                integer,  # ldb
                integer,  # info
                ctypes.c_size_t,  # the hidden length of uplo
            ]
            function.restype = None
            return function
    return None


def _cholesky_solve(
    dposv: Callable[..., None], system: np.ndarray, rhs: np.ndarray
) -> np.ndarray | None:
    """Solve the symmetric positive definite ``system`` by ``dposv``.

    ``system`` is overwritten by its Cholesky factor: being symmetric,
    its C buffer is also its Fortran one.  The right-hand side goes in
    as a ``(k, n)`` C array, which is ``(n, k)`` in Fortran order.
    Returns the ``(n, k)`` solution, or ``None`` if the system is not
    positive definite.
    """
    order = len(system)
    if not (
        system.dtype == np.float64
        and system.shape == (order, order)
        and system.flags.c_contiguous
        and system.flags.writeable
        and rhs.shape[0] == order
    ):
        raise ValueError("dposv needs a writable, C-contiguous float64 system")
    solution = np.ascontiguousarray(rhs.T, dtype=np.float64)
    # a leading dimension must be at least 1, even for an empty system
    size = ctypes.c_int64(max(order, 1))
    info = ctypes.c_int64()
    dposv(
        b"L",
        ctypes.byref(ctypes.c_int64(order)),
        ctypes.byref(ctypes.c_int64(rhs.shape[1])),
        system.ctypes.data,
        ctypes.byref(size),
        solution.ctypes.data,
        ctypes.byref(size),
        ctypes.byref(info),
        1,
    )
    return solution.T if info.value == 0 else None
