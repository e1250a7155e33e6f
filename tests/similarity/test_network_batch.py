"""Batch ``NS.for_strangers`` must reproduce the scalar oracle exactly.

The oracle is ``NetworkSimilarity.__call__``, scored per stranger.
"""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.errors import SimilarityError
from repro.graph import metrics
from repro.graph.metrics import batched_mutual_stats
from repro.graph.social_graph import SocialGraph
from repro.similarity import network
from repro.similarity.network import NetworkSimilarity

from ..conftest import make_profile
from ..property_settings import SLOW_SETTINGS


@pytest.fixture(scope="class")
def batch_any_size():
    """Engage the batch path regardless of stranger-set size (class-scoped
    so the Hypothesis properties can use it)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_BATCH_CUTOFF", 0)
        yield


@st.composite
def graphs_with_owner(draw, max_users=30):
    """A random graph plus an owner with at least one potential stranger."""
    size = draw(st.integers(4, max_users))
    graph = SocialGraph()
    for uid in range(size):
        graph.add_user(make_profile(uid))
    possible = [(a, b) for a in range(size) for b in range(a + 1, size)]
    chosen = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    for a, b in chosen:
        graph.add_friendship(a, b)
    owner = draw(st.integers(0, size - 1))
    return graph, owner


@pytest.mark.usefixtures("batch_any_size")
class TestBatchEqualsScalar:
    @given(graphs_with_owner())
    @SLOW_SETTINGS
    def test_two_hop_strangers_exact(self, graph_owner):
        graph, owner = graph_owner
        strangers = graph.two_hop_neighbors(owner)
        measure = NetworkSimilarity()
        batch = measure.for_strangers(graph, owner, strangers)
        assert set(batch) == set(strangers)
        for stranger in strangers:
            # bitwise equality, not approx: the batch path must be a
            # drop-in replacement at the result_digest level
            assert batch[stranger] == measure(graph, owner, stranger)

    @given(graphs_with_owner())
    @SLOW_SETTINGS
    def test_arbitrary_non_owner_sets_exact(self, graph_owner):
        """The batch path is exact for any stranger set, not only true
        two-hop strangers (friends and disconnected users included)."""
        graph, owner = graph_owner
        others = frozenset(uid for uid in range(len(graph)) if uid != owner)
        measure = NetworkSimilarity()
        batch = measure.for_strangers(graph, owner, others)
        for other in others:
            assert batch[other] == measure(graph, owner, other)

    @given(graphs_with_owner())
    @SLOW_SETTINGS
    def test_kernels_agree(self, graph_owner):
        graph, owner = graph_owner
        assert_kernel_matches_oracle(graph, owner)


def assert_kernel_matches_oracle(graph, owner):
    """The kernel's integers are the scalar set queries', and the NS
    values built from them are the scalar ``__call__``'s, bit for bit."""
    others = tuple(uid for uid in graph.users() if uid != owner)
    counts, edges = batched_mutual_stats(graph, owner, others)
    for position, other in enumerate(others):
        mutual = graph.mutual_friends(owner, other)
        assert counts[position] == len(mutual)
        assert edges[position] == graph.edges_within(mutual)
    measure = NetworkSimilarity()
    batch = measure.for_strangers(graph, owner, frozenset(others))
    for other in others:
        assert batch[other] == measure(graph, owner, other)


@pytest.mark.usefixtures("batch_any_size")
class TestMaskBlocks:
    """Owners with more than ``64 * _BLOCK_WORDS`` friends build the mask
    table in several blocks; the block budget is shrunk so a 150-friend
    owner takes two or three of them."""

    def many_friend_graph(self, seed, friends=150, strangers=60):
        rng = random.Random(seed)
        graph = SocialGraph()
        size = 1 + friends + strangers
        for uid in range(size):
            graph.add_user(make_profile(uid))
        for friend in range(1, friends + 1):
            graph.add_friendship(0, friend)
        for a in range(1, size):
            for b in range(a + 1, size):
                if rng.random() < 0.08:
                    graph.add_friendship(a, b)
        return graph

    @pytest.mark.parametrize("block_words", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multi_block_owner_matches_oracle(self, monkeypatch, seed, block_words):
        monkeypatch.setattr(metrics, "_BLOCK_WORDS", block_words)
        graph = self.many_friend_graph(seed)
        assert graph.degree(0) > 64 * block_words
        assert_kernel_matches_oracle(graph, 0)


class TestPopcount:
    def test_lookup_table_fallback_matches_fast_path(self, monkeypatch):
        """numpy < 2 has no ``bitwise_count``; the byte-table fallback
        must give the same counts, high bit included."""
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy without bitwise_count runs the fallback anyway")
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(257, 3), dtype=np.uint64)
        words[0] = [0, np.uint64(2**63), np.uint64(2**64 - 1)]
        fast = metrics._popcount(words)
        monkeypatch.delattr(np, "bitwise_count")
        fallback = metrics._popcount(words)
        assert fallback.dtype == fast.dtype == np.int64
        assert fallback.tolist() == fast.tolist()
        assert fast[0].tolist() == [0, 1, 64]


@pytest.mark.usefixtures("batch_any_size")
class TestStaleness:
    def ring_graph(self, size=12):
        graph = SocialGraph()
        for uid in range(size):
            graph.add_user(make_profile(uid))
        for uid in range(size):
            graph.add_friendship(uid, (uid + 1) % size)
        return graph

    def test_batch_tracks_remove_friendship(self):
        """Scoring, mutating, then scoring again must reflect the
        mutation — the CSR snapshot may not serve stale counts."""
        graph = self.ring_graph()
        measure = NetworkSimilarity()
        owner = 0
        strangers = graph.two_hop_neighbors(owner)
        before = measure.for_strangers(graph, owner, strangers)
        assert before[2] > 0.0  # via mutual friend 1

        graph.remove_friendship(0, 1)
        after = measure.for_strangers(graph, owner, strangers)
        for stranger in strangers:
            assert after[stranger] == measure(graph, owner, stranger)
        assert after[2] == 0.0

    def test_batch_tracks_add_friendship(self):
        graph = self.ring_graph()
        measure = NetworkSimilarity()
        owner = 0
        strangers = graph.two_hop_neighbors(owner)
        measure.for_strangers(graph, owner, strangers)
        graph.add_friendship(1, 3)
        refreshed = measure.for_strangers(graph, owner, strangers)
        for stranger in strangers:
            assert refreshed[stranger] == measure(graph, owner, stranger)


class TestBatchConfig:
    def make_star(self):
        graph = SocialGraph()
        for uid in range(10):
            graph.add_user(make_profile(uid))
        for friend in (1, 2, 3):
            graph.add_friendship(0, friend)
            for stranger in (4, 5, 6):
                graph.add_friendship(friend, stranger)
        return graph

    def test_owner_in_strangers_raises(self, monkeypatch):
        monkeypatch.setattr(network, "_BATCH_CUTOFF", 0)
        graph = self.make_star()
        with pytest.raises(SimilarityError):
            NetworkSimilarity().for_strangers(graph, 0, {0, 4, 5})

    def test_owner_in_strangers_raises_on_scalar_path_too(self):
        graph = self.make_star()
        assert len({0, 4, 5}) < network._BATCH_CUTOFF
        with pytest.raises(SimilarityError):
            NetworkSimilarity().for_strangers(graph, 0, {0, 4, 5})

    def test_disabled_batch_matches_enabled(self, monkeypatch):
        monkeypatch.setattr(network, "_BATCH_CUTOFF", 0)
        graph = self.make_star()
        strangers = graph.two_hop_neighbors(0)
        measure = NetworkSimilarity()
        assert measure.for_strangers(graph, 0, strangers) == {
            stranger: measure(graph, 0, stranger) for stranger in strangers
        }

    def test_small_sets_use_scalar_path(self, monkeypatch):
        """Below _BATCH_CUTOFF the scalar path runs — results are
        identical either way, which is what makes the cutover safe."""
        graph = self.make_star()
        measure = NetworkSimilarity()
        strangers = graph.two_hop_neighbors(0)
        assert len(strangers) < network._BATCH_CUTOFF

        def no_batch(*args):
            raise AssertionError("batch kernel ran below the cutoff")

        monkeypatch.setattr(network, "batched_mutual_stats", no_batch)
        values = measure.for_strangers(graph, 0, strangers)
        for stranger in strangers:
            assert values[stranger] == measure(graph, 0, stranger)


class TestBatchedMutualStats:
    def test_counts_and_edges_match_scalar_queries(self):
        graph = SocialGraph()
        for uid in range(8):
            graph.add_user(make_profile(uid))
        for a, b in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 2)]:
            graph.add_friendship(a, b)
        others = (4, 5, 6, 7)
        counts, edges = batched_mutual_stats(graph, 0, others)
        for position, other in enumerate(others):
            mutual = graph.mutual_friends(0, other)
            assert counts[position] == len(mutual)
            assert edges[position] == graph.edges_within(mutual)

    def test_empty_others(self):
        graph = SocialGraph()
        graph.add_user(make_profile(0))
        counts, edges = batched_mutual_stats(graph, 0, ())
        assert counts.tolist() == [] and edges.tolist() == []
