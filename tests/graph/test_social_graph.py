"""Tests for the social graph substrate."""

import pytest

from repro.errors import GraphError, UnknownUserError
from repro.graph.social_graph import SocialGraph

from ..conftest import make_profile


def graph_with_users(count: int) -> SocialGraph:
    graph = SocialGraph()
    for uid in range(count):
        graph.add_user(make_profile(uid))
    return graph


class TestConstruction:
    def test_empty_graph(self):
        graph = SocialGraph()
        assert graph.num_users == 0
        assert graph.num_friendships == 0

    def test_add_user_and_lookup(self):
        graph = graph_with_users(1)
        assert 0 in graph
        assert graph.profile(0).user_id == 0

    def test_re_adding_replaces_profile_keeps_edges(self):
        graph = graph_with_users(2)
        graph.add_friendship(0, 1)
        graph.add_user(make_profile(0, gender="female"))
        assert graph.are_friends(0, 1)
        from repro.types import ProfileAttribute

        assert graph.profile(0).attribute(ProfileAttribute.GENDER) == "female"

    def test_from_edges(self):
        graph = SocialGraph.from_edges(
            [make_profile(0), make_profile(1)], [(0, 1)]
        )
        assert graph.are_friends(0, 1)

    def test_len(self):
        assert len(graph_with_users(3)) == 3


class TestFriendships:
    def test_friendship_is_symmetric(self):
        graph = graph_with_users(2)
        graph.add_friendship(0, 1)
        assert graph.are_friends(0, 1)
        assert graph.are_friends(1, 0)
        assert graph.num_friendships == 1

    def test_duplicate_edge_counted_once(self):
        graph = graph_with_users(2)
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 0)
        assert graph.num_friendships == 1

    def test_self_friendship_rejected(self):
        graph = graph_with_users(1)
        with pytest.raises(GraphError):
            graph.add_friendship(0, 0)

    def test_edge_to_unknown_user_rejected(self):
        graph = graph_with_users(1)
        with pytest.raises(UnknownUserError):
            graph.add_friendship(0, 99)

    def test_remove_friendship(self):
        graph = graph_with_users(2)
        graph.add_friendship(0, 1)
        graph.remove_friendship(0, 1)
        assert not graph.are_friends(0, 1)
        assert graph.num_friendships == 0

    def test_remove_missing_friendship_is_noop(self):
        graph = graph_with_users(2)
        graph.remove_friendship(0, 1)
        assert graph.num_friendships == 0

    def test_degree(self):
        graph = graph_with_users(3)
        graph.add_friendship(0, 1)
        graph.add_friendship(0, 2)
        assert graph.degree(0) == 2
        assert graph.degree(1) == 1

    def test_friends_snapshot_is_immutable(self):
        graph = graph_with_users(2)
        graph.add_friendship(0, 1)
        snapshot = graph.friends(0)
        graph.remove_friendship(0, 1)
        assert snapshot == frozenset({1})


class TestQueries:
    def test_mutual_friends(self):
        graph = graph_with_users(4)
        graph.add_friendship(0, 2)
        graph.add_friendship(1, 2)
        graph.add_friendship(0, 3)
        assert graph.mutual_friends(0, 1) == frozenset({2})

    def test_mutual_friends_empty(self):
        graph = graph_with_users(2)
        assert graph.mutual_friends(0, 1) == frozenset()

    def test_two_hop_excludes_friends_and_self(self):
        graph = graph_with_users(4)
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 2)
        graph.add_friendship(0, 3)
        graph.add_friendship(3, 2)
        assert graph.two_hop_neighbors(0) == frozenset({2})

    def test_two_hop_of_isolated_user(self):
        graph = graph_with_users(1)
        assert graph.two_hop_neighbors(0) == frozenset()

    @pytest.mark.parametrize(
        "pair,expected",
        [((0, 0), 0), ((0, 1), 1), ((0, 2), 2), ((0, 3), 3)],
    )
    def test_distance_chain(self, pair, expected):
        graph = graph_with_users(4)
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 2)
        graph.add_friendship(2, 3)
        assert graph.distance(*pair) == expected

    def test_distance_disconnected_is_none(self):
        graph = graph_with_users(2)
        assert graph.distance(0, 1) is None

    def test_distance_beyond_cutoff_is_none(self):
        graph = graph_with_users(5)
        for a in range(4):
            graph.add_friendship(a, a + 1)
        assert graph.distance(0, 4, cutoff=3) is None

    def test_edges_iterates_once_each(self):
        graph = graph_with_users(3)
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 2)
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_edges_within(self):
        graph = graph_with_users(4)
        graph.add_friendship(0, 1)
        graph.add_friendship(1, 2)
        graph.add_friendship(2, 3)
        assert graph.edges_within({0, 1, 2}) == 2

    def test_profile_of_unknown_user_raises(self):
        graph = SocialGraph()
        with pytest.raises(UnknownUserError):
            graph.profile(7)

    def test_profiles_preserve_order(self):
        graph = graph_with_users(3)
        profiles = graph.profiles([2, 0])
        assert [p.user_id for p in profiles] == [2, 0]
