"""The textbook Squeezer pass, kept as the oracle for the vectorized one.

One scalar :func:`~repro.clustering.squeezer.cluster_similarity` scan per
candidate over every existing cluster: the candidate joins the first
most-similar cluster when that similarity reaches the threshold,
otherwise it founds a new cluster.  The production
:func:`~repro.clustering.squeezer.squeezer` must return identical
clusters (members, order, supports) for identical input.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.clustering.squeezer import (
    SqueezerCluster,
    _attribute_values,
    _normalize_weights,
    cluster_similarity,
)
from repro.graph.profile import Profile
from repro.types import ProfileAttribute, UserId


def reference_squeezer(
    profiles: Sequence[Profile],
    threshold: float,
    attributes: tuple[ProfileAttribute, ...] | None = None,
    weights: Mapping[ProfileAttribute, float] | None = None,
    order: Iterable[UserId] | None = None,
) -> list[SqueezerCluster]:
    """Same signature and contract as the production ``squeezer()``."""
    attrs = attributes or ProfileAttribute.clustering_attributes()
    normalized = _normalize_weights(attrs, weights)
    by_id = {profile.user_id: profile for profile in profiles}
    if order is None:
        ordered_ids = [profile.user_id for profile in profiles]
    else:
        ordered_ids = list(order)

    clusters: list[SqueezerCluster] = []
    for user_id in ordered_ids:
        values = _attribute_values(by_id[user_id], attrs)
        best_cluster: SqueezerCluster | None = None
        best_similarity = -1.0
        for cluster in clusters:
            similarity = cluster_similarity(cluster, values, normalized)
            if similarity > best_similarity:
                best_similarity = similarity
                best_cluster = cluster
        if best_cluster is not None and best_similarity >= threshold:
            best_cluster.add(user_id, values)
        else:
            fresh = SqueezerCluster(attributes=attrs)
            fresh.add(user_id, values)
            clusters.append(fresh)
    return clusters
