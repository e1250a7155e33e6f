"""Profile similarity ``PS(p, q)`` — reconstruction of ref [9].

What the ICDE paper states about ``PS()`` (Section III-C):

* it takes two profiles as input;
* "for each attribute, if values are identical on both profiles the
  attribute similarity is set to 1";
* "if they are non-identical, a non-zero value is computed by considering
  the frequency of the item values in the data set (i.e., the profiles in
  the considered pool)".

The reconstruction makes the frequency dependence explicit: mismatching on
two *common* values (two popular last names, say) is weak evidence of
dissimilarity, whereas mismatching on rare values is strong evidence.  The
per-attribute mismatch similarity is therefore the geometric mean of the
two value frequencies in the reference population, scaled by
``mismatch_scale`` and kept strictly below 1 so identical values always
dominate.  Attribute similarities are combined by a weighted average over
the attributes both profiles filled in.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..config import ProfileSimilarityConfig
from ..graph.profile import Profile, value_frequencies
from ..types import ProfileAttribute

#: Mismatch similarity is clipped here so that identical values (1.0) are
#: always strictly more similar than any mismatch.
_MISMATCH_CEILING = 0.99


def attribute_coverage(
    profiles: Sequence[Profile],
    attributes: tuple[ProfileAttribute, ...] = tuple(ProfileAttribute),
) -> float:
    """Fraction of ``(profile, attribute)`` cells that are filled in.

    The coverage accounting used when fault injection drops attributes:
    a pool's similarity graph is only as trustworthy as the evidence it
    was built on.  An empty profile list has coverage 1 (nothing asked,
    nothing missing).
    """
    if not profiles or not attributes:
        return 1.0
    filled = sum(
        1
        for profile in profiles
        for attribute in attributes
        if profile.attribute(attribute) is not None
    )
    return filled / (len(profiles) * len(attributes))


class ProfileSimilarity:
    """Callable computing ``PS(p, q)`` from population value frequencies.

    Parameters
    ----------
    population:
        Profiles defining the value-frequency reference (the paper uses the
        profiles of the considered pool).
    attributes:
        Attributes to compare; defaults to every known attribute.
    weights:
        Optional per-attribute weights (normalized internally); defaults to
        uniform.
    config:
        Mismatch-scale configuration.
    """

    def __init__(
        self,
        population: Iterable[Profile],
        attributes: tuple[ProfileAttribute, ...] = tuple(ProfileAttribute),
        weights: Mapping[ProfileAttribute, float] | None = None,
        config: ProfileSimilarityConfig | None = None,
    ) -> None:
        if not attributes:
            raise ValueError("at least one attribute is required")
        self._attributes = attributes
        self._config = config or ProfileSimilarityConfig()
        population_list = list(population)
        self._frequencies: dict[ProfileAttribute, dict[str, float]] = {
            attribute: value_frequencies(population_list, attribute)
            for attribute in attributes
        }
        self._weights = self._normalize_weights(weights)

    @property
    def attributes(self) -> tuple[ProfileAttribute, ...]:
        """Attributes this measure compares."""
        return self._attributes

    def frequency(self, attribute: ProfileAttribute, value: str) -> float:
        """Relative frequency of ``value`` for ``attribute`` (0 if unseen)."""
        return self._frequencies.get(attribute, {}).get(value, 0.0)

    def attribute_similarity(
        self, attribute: ProfileAttribute, left: str | None, right: str | None
    ) -> float | None:
        """Similarity contribution of one attribute, or ``None`` to skip.

        ``None`` (attribute missing on either profile) means the attribute
        carries no evidence either way and is excluded from the average.
        """
        if left is None or right is None:
            return None
        if left == right:
            return 1.0
        freq_left = self.frequency(attribute, left)
        freq_right = self.frequency(attribute, right)
        raw = math.sqrt(freq_left * freq_right) * self._config.mismatch_scale
        return min(raw, _MISMATCH_CEILING)

    def __call__(self, left: Profile, right: Profile) -> float:
        """Compute ``PS(left, right)`` in [0, 1].

        Profiles with no commonly-filled attribute score 0: with nothing to
        compare there is no evidence of similarity.
        """
        weighted_sum = 0.0
        weight_total = 0.0
        for attribute in self._attributes:
            similarity = self.attribute_similarity(
                attribute,
                left.attribute(attribute),
                right.attribute(attribute),
            )
            if similarity is None:
                continue
            weight = self._weights[attribute]
            weighted_sum += weight * similarity
            weight_total += weight
        if weight_total == 0.0:
            return 0.0
        return weighted_sum / weight_total

    def pairwise_matrix(self, profiles: Sequence[Profile]) -> np.ndarray:
        """All-pairs ``PS`` values, bit for bit the measure on every pair.

        Per attribute, the pool's ``k`` values are coded once (``k`` marks
        a missing one) and a ``(k+1) x (k+1)`` table of ``weight *
        similarity`` (0 in the missing row and column) is gathered to n x
        n with ``table[codes][:, codes]``, and the weight total likewise;
        both add their terms in attribute order, the same floats in the
        same order as :meth:`__call__`.
        """
        size = len(profiles)
        weighted_sum = np.zeros((size, size))
        weight_total = np.zeros((size, size))
        for attribute in self._attributes:
            values = [profile.attributes.get(attribute) for profile in profiles]
            vocabulary = sorted({value for value in values if value is not None})
            if not vocabulary:
                continue
            missing = len(vocabulary)
            code_of = {value: code for code, value in enumerate(vocabulary)}
            codes = np.array([code_of.get(value, missing) for value in values])
            frequencies = np.array(
                [self.frequency(attribute, value) for value in vocabulary]
            )
            similarity = np.minimum(
                np.sqrt(np.outer(frequencies, frequencies))
                * self._config.mismatch_scale,
                _MISMATCH_CEILING,
            )
            np.fill_diagonal(similarity, 1.0)
            weight = self._weights[attribute]
            table = np.zeros((missing + 1, missing + 1))
            table[:missing, :missing] = weight * similarity
            weighted_sum += table[codes][:, codes]
            table[:missing, :missing] = weight
            weight_total += table[codes][:, codes]
        return np.divide(
            weighted_sum,
            weight_total,
            out=np.zeros((size, size)),
            where=weight_total > 0,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _normalize_weights(
        self, weights: Mapping[ProfileAttribute, float] | None
    ) -> dict[ProfileAttribute, float]:
        if weights is None:
            uniform = 1.0 / len(self._attributes)
            return {attribute: uniform for attribute in self._attributes}
        missing = [a for a in self._attributes if a not in weights]
        if missing:
            raise ValueError(f"weights missing for attributes: {missing}")
        negative = [a for a in self._attributes if weights[a] < 0]
        if negative:
            raise ValueError(f"attribute weights must be non-negative: {negative}")
        total = float(sum(weights[a] for a in self._attributes))
        if total <= 0:
            raise ValueError("attribute weights must sum to a positive value")
        return {a: weights[a] / total for a in self._attributes}
