"""Classifier protocol and the array-form prediction result."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from ..types import RiskLabel, UserId
from .graphs import SimilarityGraph

#: Integer label values, ascending; column ``j`` of a masses matrix is
#: the mass of ``LABEL_VALUES[j]``.
LABEL_VALUES = np.array(RiskLabel.values())

_RISK_LABEL = {int(label): label for label in RiskLabel}


@dataclass(frozen=True, eq=False)
class PoolPredictions:
    """Predictions for every unlabeled pool member, as parallel arrays.

    Attributes
    ----------
    nodes:
        The unlabeled node ids, in graph order; row ``i`` of every array
        belongs to ``nodes[i]``.
    labels:
        The discrete predictions (integer label values, what exact-match
        accuracy scores): the argmax class, ties broken toward the
        *higher* label, because the paper notes under-prediction is the
        dangerous error ("lower prediction can have the system assume
        that the owner is safe when there is a real privacy threat").
    scores:
        Continuous label estimates in [1, 3] — the class-mass
        expectation.  Classification change (Definition 5) compares
        these between rounds.
    masses:
        ``(n, 3)`` per-class probability mass, columns in
        :data:`LABEL_VALUES` order; every row sums to 1.
    """

    nodes: tuple[UserId, ...]
    labels: np.ndarray
    scores: np.ndarray
    masses: np.ndarray

    @classmethod
    def from_masses(
        cls, nodes: Sequence[UserId], masses: np.ndarray
    ) -> "PoolPredictions":
        """Label, score and normalize per-node class masses.

        ``masses`` is the classifier's ``(n, 3)`` matrix, rows already
        normalized.  The label is the argmax of those rows; the score is
        ``(1*m1 + 2*m2 + 3*m3) / (m1 + m2 + m3)`` and the stored masses
        are ``m / (m1 + m2 + m3)``, each evaluated left to right.

        Raises
        ------
        ValueError
            If a row's normalized masses do not sum to 1 (within 1e-6),
            e.g. an all-zero or non-finite row.
        """
        masses = np.asarray(masses, dtype=float).reshape(
            len(nodes), len(LABEL_VALUES)
        )
        m1, m2, m3 = masses.T
        total = m1 + m2 + m3
        with np.errstate(divide="ignore", invalid="ignore"):
            # ``1 * m1`` is ``m1``, bit for bit
            scores = (m1 + 2 * m2 + 3 * m3) / total
            normalized = masses / total[:, None]
        sums = normalized[:, 0] + normalized[:, 1] + normalized[:, 2]
        if not (np.abs(sums - 1.0) <= 1e-6).all():
            raise ValueError(f"class masses must sum to 1, got {sums}")
        # argmax over the reversed columns takes the last of tied maxima
        labels = LABEL_VALUES[-1] - np.argmax(masses[:, ::-1], axis=1)
        return cls(tuple(nodes), labels, scores, normalized)

    def __len__(self) -> int:
        return len(self.nodes)

    def label_map(self) -> dict[UserId, RiskLabel]:
        """``{node: label}`` over every predicted node."""
        labels = map(_RISK_LABEL.__getitem__, self.labels.tolist())
        return dict(zip(self.nodes, labels))

    def score_map(self) -> dict[UserId, float]:
        """``{node: score}`` over every predicted node."""
        return dict(zip(self.nodes, self.scores.tolist()))


class PoolClassifier(Protocol):
    """A classifier bound to one pool's similarity graph.

    ``predict`` consumes the owner labels gathered so far and returns a
    prediction for *every* unlabeled pool member, in graph order.
    """

    def predict(
        self, labeled: Mapping[UserId, RiskLabel]
    ) -> PoolPredictions:  # pragma: no cover - protocol signature
        """Predict a label for every unlabeled pool member."""
        ...


#: Factory turning a pool's similarity graph into a classifier; the active
#: learner is parameterized by one of these.
ClassifierFactory = Callable[[SimilarityGraph], PoolClassifier]


def label_columns(labeled: Mapping[UserId, RiskLabel]) -> np.ndarray:
    """The masses-matrix column of each owner label, in mapping order."""
    values = np.fromiter(
        map(int, labeled.values()), dtype=np.intp, count=len(labeled)
    )
    return values - LABEL_VALUES[0]


def label_prior(labeled: Mapping[UserId, RiskLabel]) -> np.ndarray:
    """The empirical class distribution of the owner's labels."""
    counts = np.bincount(label_columns(labeled), minlength=len(LABEL_VALUES))
    return counts / len(labeled)


def split_nodes(
    graph: SimilarityGraph, labeled: Mapping[UserId, RiskLabel]
) -> tuple[list[int], np.ndarray, tuple[UserId, ...]]:
    """``(labeled positions, unlabeled positions, unlabeled ids)``.

    Labeled positions follow the mapping's order; the unlabeled ones
    follow graph order.

    Raises
    ------
    ClassifierError
        If a labeled id is not a graph node.
    """
    labeled_idx = graph.indices_of(labeled)
    unlabeled = np.ones(len(graph), dtype=bool)
    unlabeled[labeled_idx] = False
    nodes = tuple(compress(graph.nodes, unlabeled.tolist()))
    return labeled_idx, np.flatnonzero(unlabeled), nodes
