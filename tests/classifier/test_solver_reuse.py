"""Tests for the harmonic classifier's splu factorization-reuse layer."""

import numpy as np
import pytest

from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.config import ClassifierConfig
from repro.types import RiskLabel


def sparse_random_graph(size=700, seed=0, density=0.02):
    rng = np.random.default_rng(seed)
    weights = np.zeros((size, size))
    edges = int(density * size * size / 2)
    rows = rng.integers(0, size, edges)
    cols = rng.integers(0, size, edges)
    values = rng.uniform(0.1, 1.0, edges)
    for a, b, value in zip(rows, cols, values):
        if a != b:
            weights[a, b] = weights[b, a] = value
    return SimilarityGraph(list(range(size)), weights)


def labels(count, size, seed=1):
    rng = np.random.default_rng(seed)
    values = RiskLabel.values()
    chosen = rng.choice(size, size=count, replace=False)
    return {
        int(node): RiskLabel(values[int(rng.integers(0, len(values)))])
        for node in chosen
    }


REUSE = ClassifierConfig()
#: The dense ``np.linalg.solve`` route at every size: the oracle the
#: sparse factorization is checked against.
DENSE = ClassifierConfig(sparse_size_threshold=0)


class TestWarmColdEquality:
    def test_repeated_predicts_bitwise_identical(self):
        graph = sparse_random_graph()
        classifier = HarmonicClassifier(graph, REUSE)
        labeled = labels(25, len(graph))
        cold = classifier.predict(labeled)
        assert classifier._factor_cache is not None
        warm = classifier.predict(labeled)
        again = classifier.predict(labeled)
        assert cold.keys() == warm.keys() == again.keys()
        for node in cold:
            assert cold[node].masses == warm[node].masses
            assert warm[node].masses == again[node].masses

    def test_fresh_classifier_matches_warm(self):
        """A brand-new classifier (cold cache) agrees bitwise with a
        warmed one — factorization reuse cannot drift the results."""
        graph = sparse_random_graph(seed=3)
        labeled = labels(30, len(graph), seed=4)
        warmed = HarmonicClassifier(graph, REUSE)
        warmed.predict(labeled)
        warm = warmed.predict(labeled)
        cold = HarmonicClassifier(graph, REUSE).predict(labeled)
        for node in warm:
            assert warm[node].masses == cold[node].masses


class TestCacheInvalidation:
    def test_label_set_change_invalidates(self):
        graph = sparse_random_graph(seed=5)
        classifier = HarmonicClassifier(graph, REUSE)
        first = labels(20, len(graph), seed=6)
        classifier.predict(first)
        key_before = classifier._factor_cache[0]

        second = dict(first)
        second[max(set(range(len(graph))) - set(first)) ] = RiskLabel.RISKY
        classifier.predict(second)
        key_after = classifier._factor_cache[0]
        assert key_after != key_before

    def test_results_correct_after_invalidation(self):
        """Growing the labeled set mid-stream (the active-learning loop's
        behavior) still matches a fresh classifier on the new set."""
        graph = sparse_random_graph(seed=7)
        classifier = HarmonicClassifier(graph, REUSE)
        first = labels(20, len(graph), seed=8)
        classifier.predict(first)

        grown = dict(first)
        for node in sorted(set(range(len(graph))) - set(first))[:3]:
            grown[node] = RiskLabel.NOT_RISKY
        stale_free = classifier.predict(grown)
        fresh = HarmonicClassifier(graph, REUSE).predict(grown)
        for node in stale_free:
            assert stale_free[node].masses == fresh[node].masses


class TestAgainstLegacyPath:
    def test_reuse_matches_legacy_approximately(self):
        """The sparse LU and the dense solve differ in the last ulps, so
        the contract across paths is approximate (the bitwise contract
        holds *within* each path)."""
        graph = sparse_random_graph(seed=9)
        labeled = labels(25, len(graph), seed=10)
        reuse = HarmonicClassifier(graph, REUSE).predict(labeled)
        legacy = HarmonicClassifier(graph, DENSE).predict(labeled)
        assert reuse.keys() == legacy.keys()
        for node in reuse:
            assert reuse[node].label is legacy[node].label
            for value, mass in reuse[node].masses.items():
                assert mass == pytest.approx(
                    legacy[node].masses[value], abs=1e-6
                )

    def test_small_pools_identical_either_way(self):
        """Below the sparse size threshold both configs run the identical
        dense solve — the digest-level guarantee for small-pool studies."""
        graph = sparse_random_graph(size=80, seed=11, density=0.2)
        labeled = labels(8, len(graph), seed=12)
        reuse = HarmonicClassifier(graph, REUSE).predict(labeled)
        legacy = HarmonicClassifier(graph, DENSE).predict(labeled)
        for node in reuse:
            assert reuse[node].masses == legacy[node].masses


class TestWeightsCsr:
    def test_cached_and_consistent(self):
        graph = sparse_random_graph(size=50, seed=15, density=0.1)
        first = graph.weights_csr()
        assert graph.weights_csr() is first
        assert np.array_equal(first.toarray(), np.asarray(graph.weights))
