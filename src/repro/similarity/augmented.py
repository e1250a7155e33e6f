"""Visibility-augmented profile similarity (extension, not in the paper).

Diagnosing the pipeline on the synthetic substrate exposes a structural
gap the paper inherits: owners' judgments depend in part on *what a
stranger makes visible* (Table II mines exactly that dependence), yet the
classifier's edge weights see only categorical profile attributes — the
visibility signal is irreducible noise to the learner.

This module closes the gap as an opt-in extension: edge weights become a
mix of the paper's ``PS()`` and the agreement between the two strangers'
distance-2 visibility vectors.  Strangers who expose the same items are
more likely to receive the same judgment, so propagating labels along
visibility agreement is exactly the harmonic classifier's smoothness
assumption applied to the benefit dimension.

The ablation benchmark (E14) measures what the extension buys.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimilarityError
from ..graph.profile import DEFAULT_VISIBILITY, Profile
from ..graph.visibility import STRANGER_DISTANCE, level_bits
from ..types import BenefitItem
from .profile import ProfileSimilarity


def visibility_agreement(left: Profile, right: Profile) -> float:
    """Fraction of benefit items with identical distance-2 visibility."""
    items = BenefitItem.all_items()
    matches = sum(
        1
        for item in items
        if left.is_visible(item, STRANGER_DISTANCE)
        == right.is_visible(item, STRANGER_DISTANCE)
    )
    return matches / len(items)


class VisibilityAugmentedSimilarity:
    """``(1 - mix) * PS(p, q) + mix * visibility_agreement(p, q)``.

    Parameters
    ----------
    profile_similarity:
        The underlying ``PS()`` measure (built on the pool's profiles).
    mix:
        Weight of the visibility term in [0, 1]; 0 reduces to the paper's
        edge weights exactly.
    """

    def __init__(
        self, profile_similarity: ProfileSimilarity, mix: float = 0.3
    ) -> None:
        if not 0.0 <= mix <= 1.0:
            raise SimilarityError(f"mix must lie in [0, 1], got {mix}")
        self._profile_similarity = profile_similarity
        self._mix = mix

    @property
    def mix(self) -> float:
        """Weight of the visibility term."""
        return self._mix

    def __call__(self, left: Profile, right: Profile) -> float:
        """Combined similarity in [0, 1]."""
        base = self._profile_similarity(left, right)
        agreement = visibility_agreement(left, right)
        return (1.0 - self._mix) * base + self._mix * agreement

    def pairwise_matrix(self, profiles: Sequence[Profile]) -> np.ndarray:
        """Vectorized all-pairs combined similarity.

        Same contract as
        :meth:`~repro.similarity.profile.ProfileSimilarity.pairwise_matrix`,
        so :class:`~repro.classifier.graphs.SimilarityGraph` construction
        stays O(attributes * n^2) in numpy.
        """
        base = self._profile_similarity.pairwise_matrix(profiles)
        items = BenefitItem.all_items()
        bit = level_bits()
        bits = np.array(
            [
                [bit[privacy.get(item, DEFAULT_VISIBILITY)] for item in items]
                for privacy in (profile.privacy for profile in profiles)
            ]
        )
        # agreement = fraction of items where the bits coincide
        same = bits @ bits.T + (1.0 - bits) @ (1.0 - bits).T
        agreement = same / len(items)
        return (1.0 - self._mix) * base + self._mix * agreement
