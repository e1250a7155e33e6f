"""Property-based tests (hypothesis) on the core invariants."""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.entropy import entropy, information_gain_ratio
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.clustering.nsg import network_similarity_groups
from repro.clustering.pools import build_network_only_pools, build_pools
from repro.clustering.squeezer import squeezer
from repro.config import PoolingConfig
from repro.graph.social_graph import SocialGraph
from repro.learning.accuracy import root_mean_square_error
from repro.learning.stabilization import change_threshold, unstabilized_strangers
from repro.similarity.network import NetworkSimilarity
from repro.similarity.profile import ProfileSimilarity
from repro.types import RiskLabel

from .conftest import make_profile
from .property_settings import (
    QUICK_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
    THOROUGH_SETTINGS,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

genders = st.sampled_from(["male", "female"])
locales = st.sampled_from(["US", "TR", "IT", "PL"])
names = st.sampled_from(["smith", "kaya", "rossi", "nowak", "jones"])


@st.composite
def profile_lists(draw, min_size=2, max_size=25):
    size = draw(st.integers(min_size, max_size))
    return [
        make_profile(
            uid,
            gender=draw(genders),
            locale=draw(locales),
            last_name=draw(names),
        )
        for uid in range(size)
    ]


@st.composite
def random_graphs(draw, max_users=20):
    """A random undirected graph as (SocialGraph, user list)."""
    size = draw(st.integers(3, max_users))
    graph = SocialGraph()
    for uid in range(size):
        graph.add_user(make_profile(uid))
    possible = [(a, b) for a in range(size) for b in range(a + 1, size)]
    chosen = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    for a, b in chosen:
        graph.add_friendship(a, b)
    return graph, list(range(size))


similarity_maps = st.dictionaries(
    keys=st.integers(0, 500),
    values=st.floats(0.0, 1.0, allow_nan=False),
    min_size=1,
    max_size=60,
)

# ---------------------------------------------------------------------------
# similarity measures
# ---------------------------------------------------------------------------


class TestSimilarityProperties:
    @given(random_graphs())
    @STANDARD_SETTINGS
    def test_network_similarity_bounded_and_symmetric(self, graph_users):
        graph, users = graph_users
        measure = NetworkSimilarity()
        a, b = users[0], users[1]
        value = measure(graph, a, b)
        assert 0.0 <= value <= 1.0
        assert measure(graph, b, a) == value

    @given(profile_lists())
    @SLOW_SETTINGS
    def test_profile_similarity_bounded_and_symmetric(self, profiles):
        measure = ProfileSimilarity(profiles)
        left, right = profiles[0], profiles[-1]
        value = measure(left, right)
        assert 0.0 <= value <= 1.0
        assert measure(right, left) == value

    @given(profile_lists())
    @SLOW_SETTINGS
    def test_self_similarity_is_maximal(self, profiles):
        measure = ProfileSimilarity(profiles)
        for profile in profiles[:5]:
            self_value = measure(profile, profile)
            for other in profiles[:5]:
                assert measure(profile, other) <= self_value + 1e-9

    @given(profile_lists(min_size=3, max_size=15))
    @QUICK_SETTINGS
    def test_pairwise_matrix_consistent_with_calls(self, profiles):
        measure = ProfileSimilarity(profiles)
        matrix = measure.pairwise_matrix(profiles)
        for i in (0, len(profiles) - 1):
            for j in (0, len(profiles) // 2):
                assert abs(matrix[i, j] - measure(profiles[i], profiles[j])) < 1e-9


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


class TestClusteringProperties:
    @given(similarity_maps, st.integers(1, 20))
    @THOROUGH_SETTINGS
    def test_nsg_is_a_partition(self, similarities, alpha):
        groups = network_similarity_groups(similarities, alpha)
        assert len(groups) == alpha
        members = [m for group in groups for m in group.members]
        assert sorted(members) == sorted(similarities)

    @given(similarity_maps, st.integers(1, 20))
    @THOROUGH_SETTINGS
    def test_nsg_members_fall_in_their_interval(self, similarities, alpha):
        groups = network_similarity_groups(similarities, alpha)
        for group in groups:
            for member in group.members:
                assert group.contains_similarity(similarities[member])

    @given(profile_lists(), st.floats(0.05, 1.0))
    @STANDARD_SETTINGS
    def test_squeezer_partitions_input(self, profiles, threshold):
        clusters = squeezer(profiles, threshold=threshold)
        members = [uid for cluster in clusters for uid in cluster.members]
        assert sorted(members) == sorted(p.user_id for p in profiles)

    @given(profile_lists(min_size=4, max_size=30), st.integers(1, 6))
    @SLOW_SETTINGS
    def test_npp_pools_partition_strangers(self, profiles, min_pool_size):
        rng = random.Random(0)
        similarities = {p.user_id: rng.random() * 0.6 for p in profiles}
        config = PoolingConfig(min_pool_size=min_pool_size)
        pools = build_pools(
            similarities, {p.user_id: p for p in profiles}, config
        )
        members = [m for pool in pools for m in pool.members]
        assert sorted(members) == sorted(similarities)

    @given(similarity_maps)
    @STANDARD_SETTINGS
    def test_nsp_pools_partition_strangers(self, similarities):
        pools = build_network_only_pools(similarities)
        members = [m for pool in pools for m in pool.members]
        assert sorted(members) == sorted(similarities)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


class TestHarmonicProperties:
    @given(st.integers(3, 12), st.integers(0, 10_000))
    @SLOW_SETTINGS
    def test_predictions_within_label_hull(self, size, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random((size, size))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 0.0)
        graph = SimilarityGraph(list(range(size)), weights)
        labeled = {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        predictions = HarmonicClassifier(graph).predict(labeled)
        assert len(predictions) == size - 2
        assert np.all(predictions.scores >= 1.0 - 1e-9)
        assert np.all(predictions.scores <= 3.0 + 1e-9)
        assert np.all(np.abs(predictions.masses.sum(axis=1) - 1.0) < 1e-6)

    @given(st.integers(3, 10), st.sampled_from(list(RiskLabel)))
    @QUICK_SETTINGS
    def test_unanimous_labels_propagate(self, size, label):
        weights = np.ones((size, size)) - np.eye(size)
        graph = SimilarityGraph(list(range(size)), weights)
        predictions = HarmonicClassifier(graph).predict({0: label, 1: label})
        assert set(predictions.label_map().values()) == {label}


# ---------------------------------------------------------------------------
# learning arithmetic
# ---------------------------------------------------------------------------

label_values = st.sampled_from([1, 2, 3])


class TestLearningProperties:
    @given(st.lists(st.tuples(label_values, label_values), min_size=1, max_size=50))
    @THOROUGH_SETTINGS
    def test_rmse_bounded_by_label_span(self, pairs):
        value = root_mean_square_error(pairs)
        assert 0.0 <= value <= 2.0

    @given(st.floats(0.0, 100.0))
    @STANDARD_SETTINGS
    def test_change_threshold_monotone_in_confidence(self, confidence):
        assert change_threshold(confidence) >= change_threshold(
            min(confidence + 1.0, 100.0)
        )

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(1.0, 3.0), max_size=20),
        st.floats(0.0, 100.0),
    )
    @STANDARD_SETTINGS
    def test_identical_predictions_only_unstable_at_full_confidence(
        self, scores, confidence
    ):
        unstable = unstabilized_strangers(scores, dict(scores), confidence)
        if confidence < 100.0 or not scores:
            assert unstable == frozenset()
        else:
            # zero tolerance flags zero-change too (|0| >= 0)
            assert unstable == frozenset(scores)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


class TestAppsProperties:
    labels_strategy = st.dictionaries(
        st.integers(0, 200),
        st.sampled_from(list(RiskLabel)),
        max_size=40,
    )

    @given(labels_strategy)
    @STANDARD_SETTINGS
    def test_policy_audiences_nest_by_strictness(self, labels):
        from repro.apps.access_control import LabelBasedPolicy
        from repro.types import BenefitItem

        paranoid = LabelBasedPolicy.paranoid()
        permissive = LabelBasedPolicy.permissive()
        for item in BenefitItem:
            assert paranoid.audience(labels, item) <= permissive.audience(
                labels, item
            )

    @given(labels_strategy)
    @STANDARD_SETTINGS
    def test_suggestions_sorted_and_safe(self, labels):
        import random as _random

        from repro.apps.suggestions import suggest_friends

        rng = _random.Random(0)
        sims = {stranger: rng.random() for stranger in labels}
        bens = {stranger: rng.random() for stranger in labels}
        suggestions = suggest_friends(labels, sims, bens, top_k=None)
        scores = [entry.score for entry in suggestions]
        assert scores == sorted(scores, reverse=True)
        for entry in suggestions:
            assert entry.label is RiskLabel.NOT_RISKY

    @given(
        st.lists(
            st.tuples(label_values, label_values), min_size=1, max_size=60
        )
    )
    @THOROUGH_SETTINGS
    def test_confusion_rates_partition(self, pairs):
        from repro.analysis.confusion import ConfusionMatrix

        matrix = ConfusionMatrix.from_pairs(pairs)
        total = (
            matrix.accuracy
            + matrix.underprediction_rate
            + matrix.overprediction_rate
        )
        assert total == 1.0 or abs(total - 1.0) < 1e-9


class TestAugmentedProperties:
    @given(profile_lists(min_size=2, max_size=12), st.floats(0.0, 1.0))
    @SLOW_SETTINGS
    def test_augmented_similarity_bounded(self, profiles, mix):
        from repro.similarity.augmented import VisibilityAugmentedSimilarity

        base = ProfileSimilarity(profiles)
        augmented = VisibilityAugmentedSimilarity(base, mix=mix)
        value = augmented(profiles[0], profiles[-1])
        assert 0.0 <= value <= 1.0
        assert augmented(profiles[-1], profiles[0]) == value


class TestEntropyProperties:
    @given(st.lists(st.sampled_from("abcd"), max_size=60))
    @THOROUGH_SETTINGS
    def test_entropy_non_negative_and_bounded(self, values):
        result = entropy(values)
        assert result >= 0.0
        assert result <= 2.0 + 1e-9  # log2(4)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), label_values),
            min_size=1,
            max_size=60,
        )
    )
    @THOROUGH_SETTINGS
    def test_igr_in_unit_interval(self, rows):
        values = [value for value, _ in rows]
        labels = [label for _, label in rows]
        ratio = information_gain_ratio(values, labels)
        assert 0.0 <= ratio <= 1.0 + 1e-9
