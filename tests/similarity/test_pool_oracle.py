"""Array-form pool graphs and benefits equal their scalar oracles, bit for bit.

``ProfileSimilarity.pairwise_matrix`` gathers per-attribute tables,
``SimilarityGraph.from_profiles`` takes every edge weight from it,
``VisibilityAugmentedSimilarity`` looks its bits up per privacy level and
``BenefitModel.for_strangers`` does the same per stranger.
:mod:`.pool_oracle` keeps the per-pair and per-stranger paths they
replaced; every float must match, including missing and all-missing
profiles, a population that differs from the profiles compared (unseen
values have frequency 0), ``mismatch_scale`` 0 and 1, a binding mismatch
ceiling, non-uniform, zero and non-normalized attribute weights, every
filled-attribute pattern (the weight total is gathered per pattern), an
attribute no profile filled, benefit item subsets, all-zero thetas and
profiles with no privacy entry.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benefits.model import BenefitModel, ThetaWeights
from repro.classifier.graphs import SimilarityGraph
from repro.config import ProfileSimilarityConfig
from repro.graph.profile import Profile
from repro.graph.social_graph import SocialGraph
from repro.similarity import profile as profile_module
from repro.similarity.augmented import VisibilityAugmentedSimilarity
from repro.similarity.profile import ProfileSimilarity
from repro.types import BenefitItem, ProfileAttribute, VisibilityLevel

from ..property_settings import STANDARD_SETTINGS, THOROUGH_SETTINGS
from .pool_oracle import (
    assert_bitwise_equal,
    augmented_bits_oracle,
    benefits_oracle,
    ps_matrix_oracle,
    similarity_graph_oracle,
    value_frequencies,
)

_ATTRIBUTES = list(ProfileAttribute)

#: Few values make matches, mismatches and shared frequencies common.
_VALUES = st.sampled_from(["a", "b", "c", "d"])

#: Coarse weights sum non-associatively (0.1 + 0.2 + 0.3), so a weight
#: total accumulated out of attribute order shows in the last bit.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)

#: Values in [0, 1] for ``mismatch_scale``, ``mix``, ``min_edge_weight``
#: and thetas: the ends, plus coarse fractions whose products and sums
#: round, so an operation applied out of order changes the result.
_UNIT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.35, 0.7]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

#: The production ceiling (0.99) never binds for scales in [0, 1]: two
#: distinct values' frequencies sum to at most 1, so their geometric mean
#: is at most 0.5.  Lower ceilings exercise the clipping and its order.
_CEILINGS = st.sampled_from([0.99, 0.3, 0.05])


@st.composite
def profile_lists(draw, first_id=0, max_size=8):
    """Profiles with missing attributes, all-missing ones, and privacy
    settings that leave some items (or all) at the default.  Lists are
    dense, mostly filled or sparse: many attributes shared per pair make
    any change in the order of the per-attribute sums show, partly
    shared ones give every pair a different subset of them."""
    count = draw(st.integers(min_value=0, max_value=max_size))
    missing = draw(st.sampled_from([0, 4, 1]))  # 1 in `missing` is blank
    profiles = []
    for offset in range(count):
        values = [
            None
            if missing and draw(st.integers(0, missing - 1)) == 0
            else draw(_VALUES)
            for _ in _ATTRIBUTES
        ]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            values = [None] * len(_ATTRIBUTES)
        attributes = {
            attribute: value
            for attribute, value in zip(_ATTRIBUTES, values)
            if value is not None
        }
        privacy = draw(
            st.dictionaries(
                st.sampled_from(list(BenefitItem)),
                st.sampled_from(list(VisibilityLevel)),
            )
        )
        profiles.append(Profile(first_id + offset, attributes, privacy))
    return profiles


@st.composite
def measures(draw, profiles):
    """A ``PS()`` over an attribute order, population, weights and scale."""
    order = draw(st.permutations(_ATTRIBUTES))
    attributes = tuple(order[: draw(st.integers(1, len(order)))])
    if draw(st.booleans()):
        population = profiles
    else:
        population = draw(profile_lists(first_id=100))
    weights = draw(
        st.fixed_dictionaries(
            {attribute: _WEIGHTS for attribute in attributes}
        ).filter(lambda weights: sum(weights.values()) > 0)
        | st.none()
    )
    return ProfileSimilarity(
        population,
        attributes=attributes,
        weights=weights,
        config=ProfileSimilarityConfig(mismatch_scale=draw(_UNIT)),
    )


@st.composite
def pools(draw):
    profiles = draw(profile_lists())
    return profiles, draw(measures(profiles)), draw(_CEILINGS)


@st.composite
def patterned_profiles(draw, first_id=0):
    """Profiles where each attribute is filled on its own random subset
    (possibly none or all of them), so the pairs of one list share many
    different filled patterns."""
    size = draw(st.integers(min_value=0, max_value=10))
    filled = {
        attribute: draw(st.lists(st.booleans(), min_size=size, max_size=size))
        for attribute in _ATTRIBUTES
    }
    return [
        Profile(
            first_id + offset,
            {
                attribute: draw(_VALUES)
                for attribute in _ATTRIBUTES
                if filled[attribute][offset]
            },
        )
        for offset in range(size)
    ]


@st.composite
def patterned_pools(draw):
    """``(profiles, population, measure, ceiling)`` over one attribute,
    all seven or any count between, with weights that are often 0."""
    profiles = draw(patterned_profiles())
    if draw(st.booleans()):
        population = profiles
    else:
        population = draw(patterned_profiles(first_id=100))
    count = draw(
        st.sampled_from([1, len(_ATTRIBUTES)])
        | st.integers(1, len(_ATTRIBUTES))
    )
    attributes = tuple(draw(st.permutations(_ATTRIBUTES))[:count])
    weights = draw(
        st.fixed_dictionaries(
            {attribute: _WEIGHTS for attribute in attributes}
        ).filter(lambda weights: sum(weights.values()) > 0)
        | st.none()
    )
    measure = ProfileSimilarity(
        population,
        attributes=attributes,
        weights=weights,
        config=ProfileSimilarityConfig(mismatch_scale=draw(_UNIT)),
    )
    return profiles, population, measure, draw(_CEILINGS)


def _ceiling(value):
    return mock.patch.object(profile_module, "_MISMATCH_CEILING", value)


class TestProfileSimilarityMatrix:
    @given(pools())
    @THOROUGH_SETTINGS
    def test_pairwise_matrix_matches_oracle(self, pool):
        profiles, measure, ceiling = pool
        with _ceiling(ceiling):
            assert_bitwise_equal(
                measure.pairwise_matrix(profiles),
                ps_matrix_oracle(measure, profiles),
            )

    @given(
        pools(),
        _UNIT,
        st.sampled_from([1.0, 0.5, 2.0, 8.0]),
    )
    @STANDARD_SETTINGS
    def test_from_profiles_matches_oracle(self, pool, min_edge_weight, sharpening):
        profiles, measure, ceiling = pool
        with _ceiling(ceiling):
            graph = SimilarityGraph.from_profiles(
                profiles, measure, min_edge_weight, sharpening
            )
            expected = similarity_graph_oracle(
                profiles, measure, min_edge_weight, sharpening
            )
        assert graph.nodes == expected.nodes
        assert_bitwise_equal(graph.weights, expected.weights)

    @given(patterned_pools())
    @THOROUGH_SETTINGS
    def test_pairwise_matrix_matches_oracle_over_filled_patterns(self, pool):
        profiles, _, measure, ceiling = pool
        with _ceiling(ceiling):
            assert_bitwise_equal(
                measure.pairwise_matrix(profiles),
                ps_matrix_oracle(measure, profiles),
            )

    @given(patterned_pools())
    @STANDARD_SETTINGS
    def test_frequencies_match_counting_oracle(self, pool):
        _, population, measure, _ = pool
        for attribute in measure.attributes:
            expected = value_frequencies(population, attribute)
            for value, frequency in expected.items():
                assert _bits(measure.frequency(attribute, value)) == _bits(
                    frequency
                ), (attribute, value)
            assert measure.frequency(attribute, "unseen") == 0.0

    @given(pools(), _UNIT)
    @STANDARD_SETTINGS
    def test_augmented_matrix_matches_bits_oracle(self, pool, mix):
        profiles, measure, ceiling = pool
        augmented = VisibilityAugmentedSimilarity(measure, mix=mix)
        with _ceiling(ceiling):
            assert_bitwise_equal(
                augmented.pairwise_matrix(profiles),
                augmented_bits_oracle(augmented, profiles),
            )


    @given(pools(), _UNIT)
    @STANDARD_SETTINGS
    def test_pairwise_matrices_are_exactly_symmetric_and_non_negative(
        self, pool, mix
    ):
        """``SimilarityGraph.from_profiles`` adopts these matrices
        without a symmetry or sign scan: both measures must return them
        exactly symmetric and non-negative."""
        profiles, measure, ceiling = pool
        augmented = VisibilityAugmentedSimilarity(measure, mix=mix)
        with _ceiling(ceiling):
            for matrix in (
                measure.pairwise_matrix(profiles),
                augmented.pairwise_matrix(profiles),
            ):
                assert_bitwise_equal(matrix, matrix.T)
                assert not (matrix < 0).any()
                assert not np.signbit(matrix).any()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def benefit_cases(draw):
    """A graph of strangers, a stranger subset and an owner's model."""
    profiles = draw(profile_lists(first_id=1, max_size=10))
    owner = Profile(0, {}, {})
    graph = SocialGraph.from_edges([owner, *profiles], [])
    strangers = frozenset(
        draw(st.lists(st.sampled_from([p.user_id for p in profiles])))
        if profiles
        else []
    )
    if draw(st.booleans()):
        thetas = ThetaWeights.uniform(0.0)
    else:
        thetas = ThetaWeights({item: draw(_UNIT) for item in BenefitItem})
    items = draw(
        st.none()
        | st.permutations(list(BenefitItem)).flatmap(
            lambda order: st.integers(1, len(order)).map(
                lambda count: tuple(order[:count])
            )
        )
    )
    return graph, strangers, BenefitModel(thetas, items)


class TestBenefits:
    @given(benefit_cases())
    @THOROUGH_SETTINGS
    def test_for_strangers_matches_oracle(self, case):
        graph, strangers, model = case
        batch = model.for_strangers(graph, 0, strangers)
        expected = benefits_oracle(model, graph, 0, strangers)
        assert list(batch) == list(expected)
        for stranger, value in expected.items():
            assert type(batch[stranger]) is float
            assert _bits(batch[stranger]) == _bits(value), stranger


class TestFloatOrderCases:
    """Fixed cases whose bits change if an operation leaves its order:
    the per-attribute sums and the benefit sum (terms that add
    non-associatively: summed in reverse they round differently) and the
    mismatch clipping (a ceiling that binds once ``scale`` is applied)."""

    def _pool(self):
        attributes = list(ProfileAttribute)
        left = Profile(1, {attribute: "a" for attribute in attributes})
        right = Profile(
            2,
            {
                attribute: "b" if position < 3 else "a"
                for position, attribute in enumerate(attributes)
            },
        )
        weights = dict(zip(attributes, [0.3, 0.3, 1.0, 0.2, 1.0, 0.1, 1.0]))
        return [left, right], weights

    def test_weighted_sums_in_attribute_order(self):
        profiles, weights = self._pool()
        measure = ProfileSimilarity(profiles, weights=weights)
        assert_bitwise_equal(
            measure.pairwise_matrix(profiles), ps_matrix_oracle(measure, profiles)
        )

    def test_ceiling_after_scale(self):
        profiles, weights = self._pool()
        measure = ProfileSimilarity(
            profiles,
            weights=weights,
            config=ProfileSimilarityConfig(mismatch_scale=0.35),
        )
        with _ceiling(0.05):
            assert_bitwise_equal(
                measure.pairwise_matrix(profiles),
                ps_matrix_oracle(measure, profiles),
            )

    def test_benefit_sum_in_item_order(self):
        stranger = Profile(
            1, {}, {item: VisibilityLevel.PUBLIC for item in BenefitItem}
        )
        graph = SocialGraph.from_edges([Profile(0), stranger], [])
        thetas = dict(zip(BenefitItem, [0.35, 0.7, 1.0, 0.1, 1.0, 0.1, 0.2]))
        model = BenefitModel(ThetaWeights(thetas))
        batch = model.for_strangers(graph, 0, frozenset({1}))
        expected = benefits_oracle(model, graph, 0, frozenset({1}))
        assert _bits(batch[1]) == _bits(expected[1])


class TestFilledPatterns:
    """Fixed pools for the per-pattern weight total: every one of the
    128 filled patterns of seven attributes, an attribute no profile
    filled, zero weights and a single attribute."""

    #: Coarse, unequal weights: a total summed out of attribute order
    #: shows in the last bit.
    WEIGHTS = dict(zip(_ATTRIBUTES, [0.3, 0.1, 0.2, 1.0, 0.7, 0.1, 0.35]))

    @staticmethod
    def every_pattern():
        """Profile ``i`` fills attribute ``b`` when bit ``b`` of ``i`` is
        set; the values cycle so matches and mismatches both occur."""
        return [
            Profile(
                index,
                {
                    attribute: "abc"[(index >> bit) % 3]
                    for bit, attribute in enumerate(_ATTRIBUTES)
                    if index >> bit & 1
                },
            )
            for index in range(1 << len(_ATTRIBUTES))
        ]

    def assert_matches(self, profiles, measure):
        assert_bitwise_equal(
            measure.pairwise_matrix(profiles), ps_matrix_oracle(measure, profiles)
        )

    def test_all_seven_attributes_every_pattern(self):
        profiles = self.every_pattern()
        self.assert_matches(
            profiles, ProfileSimilarity(profiles, weights=self.WEIGHTS)
        )

    def test_attribute_empty_in_the_whole_pool(self):
        empty = _ATTRIBUTES[2]
        profiles = [
            Profile(
                profile.user_id,
                {
                    attribute: value
                    for attribute, value in profile.attributes.items()
                    if attribute is not empty
                },
            )
            for profile in self.every_pattern()
        ]
        self.assert_matches(
            profiles, ProfileSimilarity(profiles, weights=self.WEIGHTS)
        )

    def test_zero_weights(self):
        """Pairs that share only zero-weight attributes have a zero
        weight total and score 0, as the scalar measure does."""
        weights = dict(self.WEIGHTS)
        weights[_ATTRIBUTES[0]] = weights[_ATTRIBUTES[4]] = 0.0
        profiles = self.every_pattern()
        self.assert_matches(profiles, ProfileSimilarity(profiles, weights=weights))

    def test_single_attribute(self):
        profiles = self.every_pattern()[:12]
        measure = ProfileSimilarity(
            profiles,
            attributes=(_ATTRIBUTES[1],),
            config=ProfileSimilarityConfig(mismatch_scale=0.7),
        )
        self.assert_matches(profiles, measure)


def test_negative_weight_rejected():
    """A negative weight with a positive total used to pass, and then the
    scalar measure and the matrix disagreed: for two profiles that filled
    only gender, ``PS(p, p)`` was 1.0 and ``PS(p, q)`` 0.5 while the matrix
    zeroed both cells (its weight total there is negative)."""
    left = Profile(1, {ProfileAttribute.GENDER: "a"})
    right = Profile(2, {ProfileAttribute.GENDER: "b"})
    weights = {attribute: 0.0 for attribute in ProfileAttribute}
    weights[ProfileAttribute.GENDER] = -1.0
    weights[ProfileAttribute.LOCALE] = 2.0
    with pytest.raises(ValueError, match="non-negative"):
        ProfileSimilarity([left, right], weights=weights)
