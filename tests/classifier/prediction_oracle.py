"""The per-node prediction path, kept as the oracle for the array one.

Every unlabeled node becomes one :class:`Prediction` built from a dict of
class masses by :func:`masses_to_prediction`: argmax label (ties toward
the higher label), expectation score, normalized masses.  The harmonic
oracle normalizes the solver's rows one at a time; the kNN oracle votes
node by node.  The production classifiers return
:class:`~repro.classifier.base.PoolPredictions` and must agree with these
bit for bit (:func:`assert_matches_oracle`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.classifier.base import PoolPredictions
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.errors import ClassifierError
from repro.types import RiskLabel, UserId


@dataclass(frozen=True)
class Prediction:
    """One node's label, expectation score and normalized class masses."""

    label: RiskLabel
    score: float
    masses: Mapping[int, float]

    def __post_init__(self) -> None:
        total = sum(self.masses.values())
        if total > 0 and abs(total - 1.0) > 1e-6:
            raise ValueError(f"class masses must sum to 1, got {total}")


def uniform_masses() -> dict[int, float]:
    """The maximally uncertain class-mass vector."""
    values = RiskLabel.values()
    return {value: 1.0 / len(values) for value in values}


def masses_to_prediction(masses: Mapping[int, float]) -> Prediction:
    """Argmax label (ties toward the higher label), expectation, masses."""
    best_value = max(masses, key=lambda value: (masses[value], value))
    expectation = sum(value * mass for value, mass in masses.items())
    total = sum(masses.values())
    if total > 0:
        expectation /= total
        normalized = {value: mass / total for value, mass in masses.items()}
    else:
        normalized = uniform_masses()
        expectation = sum(v * m for v, m in normalized.items())
    return Prediction(
        label=RiskLabel(best_value), score=expectation, masses=normalized
    )


def _row_prediction(row) -> Prediction:
    return masses_to_prediction(
        {value: float(row[column]) for column, value in enumerate(RiskLabel.values())}
    )


def _label_prior(labeled: Mapping[UserId, RiskLabel]) -> np.ndarray:
    values = RiskLabel.values()
    counts = np.zeros(len(values))
    for label in labeled.values():
        counts[values.index(int(label))] += 1
    return counts / counts.sum()


def harmonic_oracle(
    classifier: HarmonicClassifier, labeled: Mapping[UserId, RiskLabel]
) -> dict[UserId, Prediction]:
    """The production solve, then per-row normalization and per-node
    predictions."""
    graph = classifier.graph
    labeled_idx = [graph.index_of(node) for node in labeled]
    labeled_set = set(labeled_idx)
    unlabeled_idx = [p for p in range(len(graph)) if p not in labeled_set]
    if not unlabeled_idx:
        return {}
    solution = classifier._solve(labeled, labeled_idx, np.array(unlabeled_idx))
    row_sums = solution.sum(axis=1)
    prior = _label_prior(labeled)
    for row in range(solution.shape[0]):
        if row_sums[row] <= 1e-12:
            solution[row] = prior
        else:
            solution[row] /= row_sums[row]
    return {
        graph.nodes[position]: _row_prediction(solution[row])
        for row, position in enumerate(unlabeled_idx)
    }


def knn_oracle(
    graph: SimilarityGraph, labeled: Mapping[UserId, RiskLabel], k: int
) -> dict[UserId, Prediction]:
    """Weighted vote of each node's ``k`` heaviest labeled neighbors."""
    weights = np.asarray(graph.weights)
    nodes = graph.nodes
    labeled_positions = [graph.index_of(user) for user in labeled]
    labeled_values = [int(labeled[nodes[p]]) for p in labeled_positions]
    label_values = RiskLabel.values()
    prior = _label_prior(labeled)
    predictions: dict[UserId, Prediction] = {}
    labeled_set = set(labeled_positions)
    for position in range(len(nodes)):
        if position in labeled_set:
            continue
        edge_weights = weights[position, labeled_positions]
        order = np.argsort(edge_weights)[::-1][:k]
        masses = np.zeros(len(label_values))
        for neighbor in order:
            weight = edge_weights[neighbor]
            if weight <= 0:
                continue
            masses[label_values.index(labeled_values[neighbor])] += weight
        if masses.sum() <= 0:
            masses = prior.copy()
        predictions[nodes[position]] = _row_prediction(masses / masses.sum())
    return predictions


def majority_oracle(
    graph: SimilarityGraph, labeled: Mapping[UserId, RiskLabel]
) -> dict[UserId, Prediction]:
    """The owner's label distribution, for every unlabeled node."""
    counts = {value: 0 for value in RiskLabel.values()}
    for label in labeled.values():
        counts[int(label)] += 1
    total = sum(counts.values())
    prediction = masses_to_prediction(
        {value: count / total for value, count in counts.items()}
    )
    return {node: prediction for node in graph.nodes if node not in labeled}


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_matches_oracle(
    result: PoolPredictions, oracle: Mapping[UserId, Prediction]
) -> None:
    """Same nodes in graph order; labels, scores and masses bitwise."""
    assert result.nodes == tuple(oracle)
    assert result.masses.shape == (len(oracle), len(RiskLabel.values()))
    for row, (node, expected) in enumerate(oracle.items()):
        assert int(result.labels[row]) == int(expected.label), node
        assert _bits(result.scores[row]) == _bits(expected.score), node
        for column, value in enumerate(RiskLabel.values()):
            assert _bits(result.masses[row, column]) == _bits(
                expected.masses[value]
            ), node


def prediction_of(result: PoolPredictions, node: UserId) -> Prediction:
    """One node's row of ``result`` as a :class:`Prediction`."""
    row = result.nodes.index(node)
    return Prediction(
        label=RiskLabel(int(result.labels[row])),
        score=float(result.scores[row]),
        masses={
            value: float(result.masses[row, column])
            for column, value in enumerate(RiskLabel.values())
        },
    )


def from_oracle(oracle: Mapping[UserId, Prediction]) -> PoolPredictions:
    """The oracle's per-node predictions packed as a result, verbatim."""
    values = RiskLabel.values()
    return PoolPredictions(
        nodes=tuple(oracle),
        labels=np.array([int(p.label) for p in oracle.values()], dtype=int),
        scores=np.array([p.score for p in oracle.values()], dtype=float),
        masses=np.array(
            [[p.masses[value] for value in values] for p in oracle.values()],
            dtype=float,
        ).reshape(len(oracle), len(values)),
    )


def oracle_harmonic_predict(
    self: HarmonicClassifier, labeled: Mapping[UserId, RiskLabel]
) -> PoolPredictions:
    """A drop-in ``HarmonicClassifier.predict`` on the per-node path."""
    if not labeled:
        raise ClassifierError("harmonic classifier needs at least one label")
    return from_oracle(harmonic_oracle(self, labeled))
