"""The vectorized Squeezer pass must replicate the reference pass exactly.

The reference is the textbook scalar loop in :mod:`.squeezer_oracle`.
"""

import hypothesis.strategies as st
from hypothesis import given

from repro.clustering.squeezer import (
    _VECTOR_CUTOFF,
    cluster_similarity,
    squeezer,
)
from repro.types import ProfileAttribute

from ..conftest import make_profile
from ..property_settings import SLOW_SETTINGS
from .squeezer_oracle import reference_squeezer

genders = st.sampled_from(["male", "female"])
locales = st.sampled_from(["US", "TR", "IT", "PL"])
names = st.sampled_from([f"name{i}" for i in range(12)])


@st.composite
def profile_lists(draw, min_size=2, max_size=40):
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


def assert_identical(reference, fast):
    assert len(reference) == len(fast)
    for ref_cluster, fast_cluster in zip(reference, fast):
        assert ref_cluster.members == fast_cluster.members
        assert ref_cluster.supports == fast_cluster.supports


class TestFastEqualsReference:
    @given(profile_lists(), st.floats(0.05, 1.0))
    @SLOW_SETTINGS
    def test_identical_clusters(self, profiles, threshold):
        reference = reference_squeezer(profiles, threshold)
        fast = squeezer(profiles, threshold)
        assert_identical(reference, fast)

    @given(profile_lists(min_size=4, max_size=30), st.floats(0.3, 0.9))
    @SLOW_SETTINGS
    def test_identical_with_paper_weights(self, profiles, threshold):
        weights = {
            ProfileAttribute.GENDER: 0.6231,
            ProfileAttribute.LOCALE: 0.3226,
            ProfileAttribute.LAST_NAME: 0.0542,
        }
        reference = reference_squeezer(profiles, threshold, weights=weights)
        fast = squeezer(profiles, threshold, weights=weights)
        assert_identical(reference, fast)

    @given(profile_lists(min_size=5, max_size=25))
    @SLOW_SETTINGS
    def test_identical_under_explicit_order(self, profiles):
        order = [profile.user_id for profile in profiles][::-1]
        reference = reference_squeezer(profiles, 0.4, order=order)
        fast = squeezer(profiles, 0.4, order=order)
        assert_identical(reference, fast)

    def test_identical_past_vector_cutoff(self):
        """Force more clusters than _VECTOR_CUTOFF so the vectorized scan
        (not just the small-count scalar scan) is exercised."""
        profiles = [
            make_profile(uid, last_name=f"unique{uid}")
            for uid in range(3 * _VECTOR_CUTOFF)
        ]
        # threshold 1.0 + distinct last names: few profiles can reach
        # similarity 1, so clusters proliferate past the cutoff
        reference = reference_squeezer(profiles, 1.0)
        fast = squeezer(profiles, 1.0)
        assert len(fast) > _VECTOR_CUTOFF
        assert_identical(reference, fast)

    def test_identical_past_cutoff_with_merges(self):
        """Past the cutoff *and* with candidates still joining clusters,
        so the vectorized argmax + support updates both run."""
        profiles = [
            make_profile(
                uid,
                gender=("male", "female")[uid % 2],
                locale=("US", "TR", "IT", "PL")[uid % 4],
                last_name=f"name{uid % 50}",
            )
            for uid in range(200)
        ]
        for threshold in (0.5, 0.7, 0.9):
            reference = reference_squeezer(profiles, threshold)
            fast = squeezer(profiles, threshold)
            assert_identical(reference, fast)


class TestDenominatorInvariant:
    @given(profile_lists(min_size=3, max_size=20), st.floats(0.1, 0.9))
    @SLOW_SETTINGS
    def test_supports_sum_to_cluster_size(self, profiles, threshold):
        """Definition 2's denominator — the summed supports of one
        attribute — always equals the cluster size, which is what lets
        cluster_similarity use len(cluster) directly."""
        for cluster in squeezer(profiles, threshold):
            for attribute in cluster.attributes:
                assert sum(cluster.supports[attribute].values()) == len(cluster)

    def test_similarity_uses_cluster_size(self):
        profiles = [
            make_profile(0, gender="male", locale="US", last_name="a"),
            make_profile(1, gender="male", locale="US", last_name="b"),
            make_profile(2, gender="female", locale="TR", last_name="a"),
        ]
        (cluster,) = squeezer(profiles, 0.01)
        values = {
            ProfileAttribute.GENDER: "male",
            ProfileAttribute.LOCALE: "US",
            ProfileAttribute.LAST_NAME: "a",
        }
        uniform = 1.0 / 3.0
        weights = {attribute: uniform for attribute in cluster.attributes}
        expected = uniform * (2 / 3) + uniform * (2 / 3) + uniform * (2 / 3)
        assert cluster_similarity(cluster, values, weights) == expected
