"""Array-form predictions equal the per-node oracle, bit for bit.

The classifiers return one :class:`~repro.classifier.base.PoolPredictions`
per call; :mod:`.prediction_oracle` keeps the per-node path they
replaced (one ``Prediction`` per unlabeled node, rows normalized one at
a time).  Labels, scores and masses must match it exactly — including
exact mass ties (broken toward the higher label), isolated nodes (the
label-prior fallback) and single-label pools — so every session digest
is unchanged by the array path.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classifier.base import PoolPredictions
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.classifier.knn import KnnClassifier
from repro.classifier.majority import MajorityClassifier
from repro.config import ClassifierConfig
from repro.learning.sampling import UncertaintySampler
from repro.types import RiskLabel

from ..property_settings import (
    QUICK_SETTINGS,
    STANDARD_SETTINGS,
    THOROUGH_SETTINGS,
)
from .prediction_oracle import (
    assert_matches_oracle,
    harmonic_oracle,
    knn_oracle,
    majority_oracle,
    masses_to_prediction,
)

#: Coarse weights make exact ties (equal masses, equal votes) common.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def pools(draw):
    """A similarity graph with isolated nodes, and an owner-label set."""
    size = draw(st.integers(min_value=2, max_value=12))
    weights = np.zeros((size, size))
    upper = np.triu_indices(size, 1)
    weights[upper] = draw(
        st.lists(_WEIGHTS, min_size=len(upper[0]), max_size=len(upper[0]))
    )
    weights += weights.T
    isolated = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    weights[isolated, :] = 0.0
    weights[:, isolated] = 0.0
    nodes = [7 + 10 * position for position in range(size)]
    order = draw(st.permutations(range(size)))
    count = draw(st.integers(min_value=1, max_value=size))
    if draw(st.booleans()):  # a single-label pool
        labels = [draw(st.sampled_from(list(RiskLabel)))] * count
    else:
        labels = draw(
            st.lists(
                st.sampled_from(list(RiskLabel)), min_size=count, max_size=count
            )
        )
    labeled = {nodes[position]: label for position, label in zip(order, labels)}
    return SimilarityGraph(nodes, weights), labeled


class TestAgainstOracle:
    @given(pools())
    @THOROUGH_SETTINGS
    def test_harmonic_matches_oracle(self, pool):
        graph, labeled = pool
        classifier = HarmonicClassifier(graph)
        assert_matches_oracle(
            classifier.predict(labeled), harmonic_oracle(classifier, labeled)
        )

    @given(pools(), st.integers(min_value=1, max_value=6))
    @STANDARD_SETTINGS
    def test_knn_matches_oracle(self, pool, k):
        graph, labeled = pool
        result = KnnClassifier(graph, ClassifierConfig(knn_k=k)).predict(labeled)
        assert_matches_oracle(result, knn_oracle(graph, labeled, k))

    @given(pools())
    @QUICK_SETTINGS
    def test_majority_matches_oracle(self, pool):
        graph, labeled = pool
        result = MajorityClassifier(graph).predict(labeled)
        assert_matches_oracle(result, majority_oracle(graph, labeled))

    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.0]),
                min_size=3,
                max_size=3,
            ).filter(lambda row: sum(row) > 0),
            min_size=1,
            max_size=8,
        )
    )
    @STANDARD_SETTINGS
    def test_from_masses_matches_oracle_rows(self, rows):
        masses = np.array(rows)
        masses /= masses.sum(axis=1)[:, None]
        nodes = list(range(len(rows)))
        assert_matches_oracle(
            PoolPredictions.from_masses(nodes, masses),
            {
                node: masses_to_prediction(
                    {1: float(row[0]), 2: float(row[1]), 3: float(row[2])}
                )
                for node, row in zip(nodes, masses)
            },
        )

    @given(pools(), st.integers(min_value=1, max_value=5))
    @QUICK_SETTINGS
    def test_uncertainty_ranking_matches_oracle(self, pool, count):
        graph, labeled = pool
        classifier = HarmonicClassifier(graph)
        result = classifier.predict(labeled)
        if not len(result):
            return
        oracle = harmonic_oracle(classifier, labeled)
        # least top-class mass first, ties by id; unpredicted ids first
        candidates = sorted(set(graph.nodes) | {-1, -2})
        expected = sorted(
            candidates,
            key=lambda node: (
                max(oracle[node].masses.values()) if node in oracle else -1.0
            ),
        )[:count]
        chosen = UncertaintySampler().select(
            candidates, count, random.Random(0), result
        )
        assert chosen == expected


class TestEdgeCases:
    def test_exact_tie_goes_to_higher_label(self):
        weights = np.array(
            [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]]
        )
        graph = SimilarityGraph([0, 1, 2], weights)
        labeled = {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        classifier = HarmonicClassifier(graph)
        result = classifier.predict(labeled)
        assert result.masses[0, 0] == result.masses[0, 2]
        assert result.labels.tolist() == [3]
        assert_matches_oracle(result, harmonic_oracle(classifier, labeled))

    def test_isolated_nodes_take_the_label_prior(self):
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 1.0
        graph = SimilarityGraph([0, 1, 2, 3], weights)
        labeled = {0: RiskLabel.RISKY, 3: RiskLabel.VERY_RISKY}
        classifier = HarmonicClassifier(graph)
        result = classifier.predict(labeled)
        assert result.nodes == (1, 2)
        # node 2 is isolated: the owner's 50/50 label split
        assert result.masses[1].tolist() == [0.0, 0.5, 0.5]
        assert_matches_oracle(result, harmonic_oracle(classifier, labeled))
        assert_matches_oracle(
            KnnClassifier(graph).predict(labeled), knn_oracle(graph, labeled, 5)
        )

    def test_nearly_isolated_node_takes_the_label_prior(self):
        # a 1e-22 edge leaves a harmonic row sum below the 1e-12 cut-off
        weights = np.zeros((3, 3))
        weights[0, 2] = weights[2, 0] = 1e-22
        graph = SimilarityGraph([0, 1, 2], weights)
        labeled = {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        classifier = HarmonicClassifier(graph)
        result = classifier.predict(labeled)
        assert result.masses.tolist() == [[0.5, 0.0, 0.5]]
        assert_matches_oracle(result, harmonic_oracle(classifier, labeled))

    def test_knn_tie_at_the_k_boundary(self):
        # three equally close anchors, one vote: the argsort order of the
        # tie decides, exactly as in the per-node loop
        weights = np.zeros((4, 4))
        weights[3, :3] = weights[:3, 3] = 0.5
        graph = SimilarityGraph([0, 1, 2, 3], weights)
        labeled = {
            0: RiskLabel.NOT_RISKY,
            1: RiskLabel.RISKY,
            2: RiskLabel.VERY_RISKY,
        }
        for k in (1, 2, 3):
            result = KnnClassifier(graph, ClassifierConfig(knn_k=k)).predict(
                labeled
            )
            assert_matches_oracle(result, knn_oracle(graph, labeled, k))

    def test_single_label_pool(self):
        graph = SimilarityGraph(list(range(5)), np.ones((5, 5)))
        labeled = {0: RiskLabel.RISKY, 3: RiskLabel.RISKY}
        for classifier, oracle in (
            (HarmonicClassifier(graph), None),
            (KnnClassifier(graph), knn_oracle(graph, labeled, 5)),
            (MajorityClassifier(graph), majority_oracle(graph, labeled)),
        ):
            result = classifier.predict(labeled)
            assert result.labels.tolist() == [2, 2, 2]
            assert result.scores.tolist() == [2.0, 2.0, 2.0]
            if oracle is None:
                oracle = harmonic_oracle(classifier, labeled)
            assert_matches_oracle(result, oracle)

    @pytest.mark.parametrize(
        "row", [[0.0, 0.0, 0.0], [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]]
    )
    def test_from_masses_rejects_rows_that_do_not_sum_to_one(self, row):
        with pytest.raises(ValueError):
            PoolPredictions.from_masses([1, 2], [[1.0, 0.0, 0.0], row])

    def test_empty_result(self):
        result = PoolPredictions.from_masses((), np.empty((0, 3)))
        assert len(result) == 0
        assert result.label_map() == {} and result.score_map() == {}
