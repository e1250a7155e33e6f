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
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..config import ProfileSimilarityConfig
from ..graph.profile import Profile
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
        self._frequencies: dict[ProfileAttribute, dict[str, float]] = {}
        for attribute in attributes:
            # relative frequency among the profiles that filled it in
            counts = Counter(
                [profile.attributes.get(attribute) for profile in population_list]
            )
            filled = len(population_list) - counts.pop(None, 0)
            self._frequencies[attribute] = {
                value: count / filled for value, count in counts.items()
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

        Per attribute, the pool's ``k`` values are coded in one pass
        (``-1``, the table's last row, marks a missing one) and a ``(k+1)
        x (k+1)`` table of ``weight * similarity`` (0 in the missing row
        and column) is gathered to n x n.  A pair's weight total depends
        only on the attributes both filled in: bit ``b`` of a node's mask
        is set when it filled attribute ``b``, and ``totals[mask_i &
        mask_j]`` is gathered from the sum of every filled pattern.  Both
        sums add the same floats in attribute order as :meth:`__call__`;
        where it skips an attribute not both filled, the table gather
        adds 0.0, which moves no partial sum (none is ever -0.0).
        """
        size = len(profiles)
        weighted_sum = np.zeros((size, size))
        masks = np.zeros(
            size, dtype=np.min_scalar_type((1 << len(self._attributes)) - 1)
        )
        totals = [0.0]
        for bit, attribute in enumerate(self._attributes):
            weight = self._weights[attribute]
            # patterns with bit ``bit`` set extend those without it
            totals += [total + weight for total in totals]
            code_of: dict[str | None, int] = {None: -1}
            codes = np.array(
                [
                    code_of.setdefault(
                        profile.attributes.get(attribute), len(code_of) - 1
                    )
                    for profile in profiles
                ],
                dtype=np.intp,
            )
            missing = len(code_of) - 1
            if not missing:
                continue
            masks[codes >= 0] |= 1 << bit
            frequencies = np.array(
                [self.frequency(attribute, value) for value in list(code_of)[1:]]
            )
            similarity = np.minimum(
                np.sqrt(np.outer(frequencies, frequencies))
                * self._config.mismatch_scale,
                _MISMATCH_CEILING,
            )
            np.fill_diagonal(similarity, 1.0)
            table = np.zeros((missing + 1, missing + 1))
            table[:missing, :missing] = weight * similarity
            weighted_sum += table.take(codes, axis=0).take(codes, axis=1)
        # an intp index takes numpy's fast gather, a uint8 one does not;
        # dropping the n x n index before the divide keeps the peak down
        weight_total = np.array(totals)[(masks[:, None] & masks).astype(np.intp)]
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
