"""Scalar paths kept as oracles for the array-form pool graph and benefits.

* :func:`value_frequencies` counts one attribute's values with a
  generator ``Counter`` — the relative frequencies
  ``ProfileSimilarity`` looks its mismatch terms up in.
* :func:`ps_matrix_oracle` calls ``ProfileSimilarity.__call__`` on every
  ordered pair — the definition ``pairwise_matrix`` must reproduce.
* :func:`similarity_graph_oracle` is the per-pair graph build that
  ``SimilarityGraph.from_profiles`` once used for measures without
  ``pairwise_matrix``: the scalar measure on every unordered pair, weights
  at or below ``min_edge_weight`` zeroed, then ``sharpening``.
* :func:`augmented_bits_oracle` resolves the visibility bits with
  ``Profile.is_visible`` per item per profile.
* :func:`benefits_oracle` evaluates ``BenefitModel.__call__`` stranger by
  stranger.

The production paths must agree with these bit for bit
(:func:`assert_bitwise_equal`), so every session digest is unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.benefits.model import BenefitModel
from repro.classifier.graphs import SimilarityGraph
from repro.graph.profile import Profile
from repro.graph.social_graph import SocialGraph
from repro.graph.visibility import STRANGER_DISTANCE
from repro.similarity.augmented import VisibilityAugmentedSimilarity
from repro.similarity.profile import ProfileSimilarity
from repro.types import BenefitItem, ProfileAttribute, UserId


def value_frequencies(
    profiles: Mapping[UserId, Profile] | Sequence[Profile],
    attribute: ProfileAttribute,
) -> dict[str, float]:
    """Relative frequency of each value of ``attribute`` in a population.

    Users who left the attribute blank do not contribute.
    """
    population = profiles.values() if isinstance(profiles, Mapping) else profiles
    counts = Counter(
        value
        for value in (profile.attributes.get(attribute) for profile in population)
        if value is not None
    )
    filled = sum(counts.values())
    return {value: count / filled for value, count in counts.items()}


def ps_matrix_oracle(
    measure: ProfileSimilarity, profiles: Sequence[Profile]
) -> np.ndarray:
    """``PS(p, q)`` for every ordered pair, diagonal included."""
    size = len(profiles)
    matrix = np.zeros((size, size))
    for row in range(size):
        for column in range(size):
            matrix[row, column] = measure(profiles[row], profiles[column])
    return matrix


def similarity_graph_oracle(
    profiles: Sequence[Profile],
    similarity: Callable[[Profile, Profile], float],
    min_edge_weight: float = 0.0,
    sharpening: float = 1.0,
) -> SimilarityGraph:
    """The graph built from one scalar similarity call per pair."""
    size = len(profiles)
    weights = np.zeros((size, size), dtype=float)
    for row in range(size):
        for column in range(row + 1, size):
            weight = float(similarity(profiles[row], profiles[column]))
            if weight <= min_edge_weight:
                weight = 0.0
            weights[row, column] = weight
            weights[column, row] = weight
    if sharpening != 1.0:
        weights = np.power(weights, sharpening)
    return SimilarityGraph([profile.user_id for profile in profiles], weights)


def augmented_bits_oracle(
    measure: VisibilityAugmentedSimilarity, profiles: Sequence[Profile]
) -> np.ndarray:
    """The augmented matrix with bits from ``Profile.is_visible``."""
    base = measure._profile_similarity.pairwise_matrix(profiles)
    items = BenefitItem.all_items()
    bits = np.array(
        [
            [
                1.0 if profile.is_visible(item, STRANGER_DISTANCE) else 0.0
                for item in items
            ]
            for profile in profiles
        ]
    ).reshape(len(profiles), len(items))
    same = bits @ bits.T + (1.0 - bits) @ (1.0 - bits).T
    agreement = same / len(items)
    return (1.0 - measure.mix) * base + measure.mix * agreement


def benefits_oracle(
    model: BenefitModel,
    graph: SocialGraph,
    owner: UserId,
    strangers: frozenset[UserId] | set[UserId],
) -> dict[UserId, float]:
    """``B(owner, s)`` one stranger at a time."""
    return {stranger: model(graph, owner, stranger) for stranger in strangers}


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape, dtype and bytes — ``-0.0`` and ``0.0`` differ."""
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes(), np.argwhere(actual != expected)
