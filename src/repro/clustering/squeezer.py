"""The Squeezer categorical clustering algorithm (He, Xu & Deng 2002).

Squeezer makes a single pass over the data: the first tuple founds the
first cluster; every later tuple is compared against each existing cluster
and joins the most similar one if that similarity reaches the threshold,
otherwise it founds a new cluster.  One pass keeps the cost linear in the
number of strangers, which the paper needs because "there are thousands of
strangers in a network similarity group".

The similarity is the paper's adaptation to profiles (Definition 2):

.. math::

    Sim(s, c) = \\sum_{i \\in |PA|} w_i
        \\frac{Sup(s.pa_i)}{\\sum_{x \\in VAL_{pa_i}(c)} Sup(x)}

where ``Sup(x)`` counts cluster members sharing value ``x`` for attribute
``pa_i``.  The denominator equals the cluster size (every member has some
value, with "missing" modeled as its own category), so per attribute the
term is the fraction of the cluster agreeing with the candidate; weights
``w_i`` (normalized to sum 1) keep the total in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ClusteringError
from ..graph.profile import Profile
from ..types import ProfileAttribute, UserId

#: Sentinel category for profiles that left an attribute blank.  Making the
#: absence itself a value keeps Definition 2's denominator equal to the
#: cluster size and lets blank-heavy profiles cluster together.
MISSING = "<missing>"


@dataclass
class SqueezerCluster:
    """A cluster under construction: members plus per-attribute supports."""

    attributes: tuple[ProfileAttribute, ...]
    members: list[UserId] = field(default_factory=list)
    supports: dict[ProfileAttribute, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attribute in self.attributes:
            self.supports.setdefault(attribute, {})

    def __len__(self) -> int:
        return len(self.members)

    def add(self, user_id: UserId, values: Mapping[ProfileAttribute, str]) -> None:
        """Add a member and update the value supports."""
        self.members.append(user_id)
        for attribute in self.attributes:
            value = values[attribute]
            table = self.supports[attribute]
            table[value] = table.get(value, 0) + 1

    def support(self, attribute: ProfileAttribute, value: str) -> int:
        """``Sup(value)``: members sharing ``value`` for ``attribute``."""
        return self.supports[attribute].get(value, 0)


def _attribute_values(
    profile: Profile, attributes: tuple[ProfileAttribute, ...]
) -> dict[ProfileAttribute, str]:
    return {
        attribute: profile.attribute(attribute) or MISSING
        for attribute in attributes
    }


def cluster_similarity(
    cluster: SqueezerCluster,
    values: Mapping[ProfileAttribute, str],
    weights: Mapping[ProfileAttribute, float],
) -> float:
    """``Sim(s, c)`` of Definition 2 for candidate values against a cluster."""
    if len(cluster) == 0:
        raise ClusteringError("similarity against an empty cluster is undefined")
    # Definition 2's denominator sums the supports of every value present
    # in the cluster — but every member carries exactly one value per
    # attribute (missing is its own category), so the sum is the cluster
    # size.  Using the size directly makes a comparison O(|PA|) instead
    # of O(distinct values).
    denominator = len(cluster)
    total = 0.0
    for attribute in cluster.attributes:
        support = cluster.support(attribute, values[attribute])
        total += weights[attribute] * (support / denominator)
    return total


#: Cluster count below which a pass scans clusters with the scalar
#: :func:`cluster_similarity` loop — with only a few clusters, numpy's
#: per-call overhead costs more than the comparisons it replaces.
_VECTOR_CUTOFF = 32


def squeezer(
    profiles: Sequence[Profile],
    threshold: float,
    attributes: tuple[ProfileAttribute, ...] | None = None,
    weights: Mapping[ProfileAttribute, float] | None = None,
    order: Iterable[UserId] | None = None,
) -> list[SqueezerCluster]:
    """Cluster ``profiles`` with one Squeezer pass.

    Parameters
    ----------
    profiles:
        The profiles to cluster (e.g. the strangers of one network
        similarity group).
    threshold:
        ``beta``: a candidate joins its best cluster only when the
        similarity reaches this value, otherwise it founds a new cluster.
    attributes:
        Attributes to cluster on; defaults to the paper's trio
        (gender, locale, last name).
    weights:
        Per-attribute weights, normalized internally; defaults to uniform.
    order:
        Optional explicit processing order (user ids).  Squeezer is
        order-sensitive by design; experiments that need determinism pass a
        fixed order, and the default is the given sequence order.

    Returns
    -------
    list[SqueezerCluster]
        Disjoint clusters covering every input profile.

    Notes
    -----
    Below ``_VECTOR_CUTOFF`` clusters each candidate is compared with a
    scalar :func:`cluster_similarity` scan.  Once the cluster count
    crosses it, every attribute value is integer-coded into a single
    global column space and a ``(clusters, codes)`` support matrix makes
    ``Sim(s, c)`` against *every* cluster one column gather plus a
    weighted divide.  Each attribute contributes ``w_a * (Sup / size)`` in
    declaration order — exactly the scalar scan's operations on the same
    binary64 values — and ``argmax`` picks the first maximum just like a
    strictly-greater scan, so the clusters (members, order, supports) are
    those of the textbook one-pass loop for identical input order.
    """
    if not 0.0 < threshold <= 1.0:
        raise ClusteringError(f"threshold must lie in (0, 1], got {threshold}")
    attrs = attributes or ProfileAttribute.clustering_attributes()
    normalized = _normalize_weights(attrs, weights)

    by_id = {profile.user_id: profile for profile in profiles}
    if order is None:
        ordered_ids = [profile.user_id for profile in profiles]
    else:
        ordered_ids = list(order)
        unknown = [user_id for user_id in ordered_ids if user_id not in by_id]
        if unknown:
            raise ClusteringError(f"order references unknown users: {unknown[:5]}")

    # Pre-scan the attribute values once; integer coding happens lazily at
    # the vectorization crossover below.
    values_list = [
        _attribute_values(by_id[user_id], attrs) for user_id in ordered_ids
    ]

    weight_of = [normalized[attribute] for attribute in attrs]
    clusters: list[SqueezerCluster] = []
    # The support matrices only exist above the crossover: the arrays (and
    # the coded candidate matrix) are built once when the cluster count
    # first reaches _VECTOR_CUTOFF, so runs that stay small pay nothing
    # beyond the pre-scan.
    supports: np.ndarray | None = None
    sizes: np.ndarray | None = None
    coded: np.ndarray | None = None
    capacity = 0
    for row, user_id in enumerate(ordered_ids):
        count = len(clusters)
        if count:
            if supports is None:
                # Below the crossover a handful of scalar comparisons beat
                # numpy call overhead.
                best = 0
                best_similarity = -1.0
                for position, cluster in enumerate(clusters):
                    candidate = cluster_similarity(
                        cluster, values_list[row], normalized
                    )
                    if candidate > best_similarity:
                        best_similarity = candidate
                        best = position
            else:
                # terms[c, a] = Sup(value_a) / |c| for every cluster at
                # once; the weighted sum runs in attribute order so the
                # floats match the scalar accumulation bit for bit,
                # and argmax picks the same first maximum.
                terms = supports[:count, coded[row]] / sizes[:count]
                similarity = weight_of[0] * terms[:, 0]
                for col in range(1, len(weight_of)):
                    similarity += weight_of[col] * terms[:, col]
                best = int(np.argmax(similarity))
                best_similarity = float(similarity[best])
            if best_similarity >= threshold:
                clusters[best].add(user_id, values_list[row])
                if supports is not None:
                    sizes[best, 0] += 1
                    supports[best, coded[row]] += 1
                continue
        fresh = SqueezerCluster(attributes=attrs)
        fresh.add(user_id, values_list[row])
        clusters.append(fresh)
        if supports is not None:
            if len(clusters) > capacity:
                capacity *= 2
                sizes = np.concatenate([sizes, np.zeros_like(sizes)])
                supports = np.concatenate([supports, np.zeros_like(supports)])
            sizes[count, 0] = 1
            supports[count, coded[row]] += 1
        elif len(clusters) >= _VECTOR_CUTOFF:
            # Crossover: integer-code every (attribute, value) pair into a
            # single global column space, so from here on one
            # advanced-indexing gather per candidate fetches all of its
            # supports at once.  The one-time cost only hits runs that
            # actually produce many clusters.
            code_tables: list[dict[str, int]] = [{} for _ in attrs]
            for values in values_list:
                for table, attribute in zip(code_tables, attrs):
                    table.setdefault(values[attribute], len(table))
            offsets = [0]
            for table in code_tables[:-1]:
                offsets.append(offsets[-1] + len(table))
            total_codes = offsets[-1] + len(code_tables[-1])
            coded = np.asarray(
                [
                    [
                        base + table[values[attribute]]
                        for base, table, attribute in zip(
                            offsets, code_tables, attrs
                        )
                    ]
                    for values in values_list
                ],
                dtype=np.int64,
            )
            capacity = 2 * _VECTOR_CUTOFF
            supports = np.zeros((capacity, total_codes), dtype=np.int64)
            sizes = np.zeros((capacity, 1), dtype=np.int64)
            for position, cluster in enumerate(clusters):
                sizes[position, 0] = len(cluster)
                for base, table, attribute in zip(offsets, code_tables, attrs):
                    for value, support in cluster.supports[attribute].items():
                        supports[position, base + table[value]] = support
    return clusters


def _normalize_weights(
    attributes: tuple[ProfileAttribute, ...],
    weights: Mapping[ProfileAttribute, float] | None,
) -> dict[ProfileAttribute, float]:
    if weights is None:
        uniform = 1.0 / len(attributes)
        return {attribute: uniform for attribute in attributes}
    missing = [a for a in attributes if a not in weights]
    if missing:
        raise ClusteringError(f"weights missing for attributes: {missing}")
    total = float(sum(weights[a] for a in attributes))
    if total <= 0:
        raise ClusteringError("attribute weights must sum to a positive value")
    return {a: weights[a] / total for a in attributes}
