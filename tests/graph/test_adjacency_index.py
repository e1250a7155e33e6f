"""Tests for the cached CSR adjacency index on :class:`SocialGraph`."""

import numpy as np
import pytest

from repro.errors import UnknownUserError
from repro.graph.social_graph import SocialGraph

from ..conftest import make_profile


def dense(index):
    """The 0/1 adjacency matrix spelled out by the index's CSR arrays."""
    size = len(index.nodes)
    matrix = np.zeros((size, size), dtype=np.int64)
    rows = np.repeat(np.arange(size), np.diff(index.indptr))
    matrix[rows, index.indices] = 1
    return matrix


def build(edges, count=6):
    graph = SocialGraph()
    for uid in range(count):
        graph.add_user(make_profile(uid))
    for a, b in edges:
        graph.add_friendship(a, b)
    return graph


class TestBuild:
    def test_matrix_matches_adjacency(self):
        graph = build([(0, 1), (1, 2), (0, 3)])
        index = graph.adjacency_index()
        matrix = dense(index)
        assert matrix.shape == (6, 6)
        assert index.indices.size == 2 * graph.num_friendships
        for a in range(6):
            for b in range(6):
                expected = 1 if graph.are_friends(a, b) and a != b else 0
                assert matrix[index.position_of(a), index.position_of(b)] == expected

    def test_matrix_is_symmetric_integer(self):
        graph = build([(0, 1), (2, 3), (1, 4)])
        index = graph.adjacency_index()
        assert index.indptr.dtype == np.int64
        assert index.indices.dtype == np.int64
        matrix = dense(index)
        assert (matrix == matrix.T).all()

    def test_nodes_follow_insertion_order(self):
        graph = SocialGraph()
        for uid in (5, 2, 9):
            graph.add_user(make_profile(uid))
        assert graph.adjacency_index().nodes == (5, 2, 9)

    def test_empty_graph(self):
        graph = SocialGraph()
        index = graph.adjacency_index()
        assert index.nodes == ()
        assert index.indptr.tolist() == [0]
        assert index.indices.size == 0
        assert dense(index).shape == (0, 0)

    def test_neighbor_positions_sorted(self):
        graph = build([(3, 0), (3, 5), (3, 1)])
        positions = graph.adjacency_index().neighbor_positions(3)
        assert list(positions) == sorted(positions)
        assert set(positions.tolist()) == {0, 1, 5}

    def test_positions_of_batch(self):
        graph = build([])
        index = graph.adjacency_index()
        assert index.positions_of([4, 0, 2]).tolist() == [
            index.position_of(4),
            index.position_of(0),
            index.position_of(2),
        ]


class TestUnknownUsers:
    def test_position_of_unknown_raises(self):
        index = build([]).adjacency_index()
        with pytest.raises(UnknownUserError):
            index.position_of(99)

    def test_positions_of_unknown_raises(self):
        index = build([]).adjacency_index()
        with pytest.raises(UnknownUserError):
            index.positions_of([0, 99])


class TestCaching:
    def test_same_instance_without_mutation(self):
        graph = build([(0, 1)])
        assert graph.adjacency_index() is graph.adjacency_index()

    def test_add_friendship_invalidates(self):
        graph = build([(0, 1)])
        before = graph.adjacency_index()
        graph.add_friendship(2, 3)
        after = graph.adjacency_index()
        assert after is not before
        assert dense(after)[after.position_of(2), after.position_of(3)] == 1

    def test_remove_friendship_invalidates(self):
        graph = build([(0, 1), (2, 3)])
        before = graph.adjacency_index()
        graph.remove_friendship(2, 3)
        after = graph.adjacency_index()
        assert after is not before
        assert dense(after)[after.position_of(2), after.position_of(3)] == 0

    def test_add_user_invalidates(self):
        graph = build([(0, 1)])
        before = graph.adjacency_index()
        graph.add_user(make_profile(77))
        after = graph.adjacency_index()
        assert after is not before
        assert 77 in after.nodes

    def test_noop_mutations_keep_cache(self):
        """Re-adding an existing edge/user leaves the graph unchanged, so
        the snapshot stays valid (and cheap)."""
        graph = build([(0, 1)])
        before = graph.adjacency_index()
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 0)
        graph.remove_friendship(2, 3)
        graph.add_user(make_profile(0, gender="female"))
        assert graph.adjacency_index() is before
