"""Tests for the similarity-graph builder."""

import numpy as np
import pytest

from repro.classifier.graphs import SimilarityGraph
from repro.errors import ClassifierError
from repro.similarity.profile import ProfileSimilarity

from ..conftest import make_profile
from ..similarity.pool_oracle import assert_bitwise_equal, similarity_graph_oracle


def unit_graph():
    weights = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.8], [0.2, 0.8, 0.0]])
    return SimilarityGraph([10, 11, 12], weights)


class TestConstruction:
    def test_basic_properties(self):
        graph = unit_graph()
        assert len(graph) == 3
        assert graph.nodes == (10, 11, 12)
        assert graph.weight(10, 11) == pytest.approx(0.5)

    def test_diagonal_zeroed(self):
        weights = np.ones((2, 2))
        graph = SimilarityGraph([1, 2], weights)
        assert graph.weight(1, 1) == 0.0

    def test_caller_matrix_copied_not_adopted(self):
        weights = np.ones((2, 2))
        graph = SimilarityGraph([1, 2], weights)
        weights[0, 1] = 5.0
        assert weights[0, 0] == 1.0
        assert graph.weight(1, 2) == 1.0

    def test_asymmetric_rejected(self):
        weights = np.array([[0.0, 0.4], [0.6, 0.0]])
        with pytest.raises(ClassifierError):
            SimilarityGraph([1, 2], weights)

    def test_negative_weight_rejected(self):
        weights = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ClassifierError):
            SimilarityGraph([1, 2], weights)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ClassifierError):
            SimilarityGraph([1, 2, 3], np.zeros((2, 2)))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ClassifierError):
            SimilarityGraph([1, 1], np.zeros((2, 2)))

    def test_weights_view_read_only(self):
        graph = unit_graph()
        with pytest.raises(ValueError):
            graph.weights[0, 1] = 3.0

    def test_index_of_unknown_node(self):
        with pytest.raises(ClassifierError):
            unit_graph().index_of(99)

    def test_degree_vector(self):
        graph = unit_graph()
        assert graph.degree_vector() == pytest.approx([0.7, 1.3, 1.0])


class TestFromProfiles:
    def test_vectorized_path_matches_callable_path(self):
        profiles = [
            make_profile(1, gender="male", locale="US"),
            make_profile(2, gender="female", locale="US"),
            make_profile(3, gender="male", locale="TR"),
        ]
        measure = ProfileSimilarity(profiles)
        fast = SimilarityGraph.from_profiles(profiles, measure)
        slow = similarity_graph_oracle(profiles, measure)
        assert fast.nodes == slow.nodes
        assert_bitwise_equal(fast.weights, slow.weights)

    def test_min_edge_weight_sparsifies(self):
        profiles = [
            make_profile(1, gender="male", locale="US", last_name="smith"),
            make_profile(2, gender="female", locale="TR", last_name="kaya"),
        ]
        measure = ProfileSimilarity(profiles)
        dense = SimilarityGraph.from_profiles(profiles, measure)
        sparse = SimilarityGraph.from_profiles(
            profiles, measure, min_edge_weight=0.99
        )
        assert dense.weight(1, 2) > 0.0
        assert sparse.weight(1, 2) == 0.0

    def test_sharpening_amplifies_contrast(self):
        profiles = [
            make_profile(1, gender="male", locale="US"),
            make_profile(2, gender="male", locale="US"),
            make_profile(3, gender="female", locale="TR"),
        ]
        measure = ProfileSimilarity(profiles)
        raw = SimilarityGraph.from_profiles(profiles, measure, sharpening=1.0)
        sharp = SimilarityGraph.from_profiles(profiles, measure, sharpening=8.0)
        raw_ratio = raw.weight(1, 2) / raw.weight(1, 3)
        sharp_ratio = sharp.weight(1, 2) / sharp.weight(1, 3)
        assert sharp_ratio > raw_ratio

    def test_empty_profile_list(self):
        measure = ProfileSimilarity([make_profile(1)])
        graph = SimilarityGraph.from_profiles([], measure)
        assert len(graph) == 0
