"""Network-and-profile based stranger pools ``Pst`` (Definition 3).

The pools are the sampling unit of the active learner: each pool runs its
own labeling/prediction loop.  Two constructions are provided:

* :func:`build_pools` — the paper's NPP pools: ``alpha`` network similarity
  groups, each sub-clustered by Squeezer with threshold ``beta``;
* :func:`build_network_only_pools` — the NSP baseline of Section IV-C,
  which stops at the network similarity groups.

Both return the same :class:`StrangerPool` type so the learner is agnostic
to the pooling strategy — exactly what the Figure 5/6 comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..config import PoolingConfig
from ..errors import ClusteringError
from ..graph.profile import Profile
from ..types import UserId
from .nsg import NetworkSimilarityGroup, network_similarity_groups
from .squeezer import squeezer


@dataclass(frozen=True)
class StrangerPool:
    """One pool ``P`` of Definition 3.

    Attributes
    ----------
    pool_id:
        Stable identifier, unique within one owner's pool set.
    nsg_index:
        1-based index of the parent network similarity group.
    cluster_index:
        0-based index of the Squeezer cluster within the group (0 for NSP
        pools, which have no profile sub-clustering).
    members:
        Stranger ids, sorted for determinism.
    """

    pool_id: str
    nsg_index: int
    cluster_index: int
    members: tuple[UserId, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ClusteringError(f"pool {self.pool_id} has no members")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, user_id: UserId) -> bool:
        return user_id in set(self.members)


def _check_partition(
    pools: list[StrangerPool], similarities: Mapping[UserId, float]
) -> None:
    covered: set[UserId] = set()
    for pool in pools:
        member_set = set(pool.members)
        overlap = covered & member_set
        if overlap:
            raise ClusteringError(
                f"pools overlap on strangers {sorted(overlap)[:5]}"
            )
        covered.update(member_set)
    expected = set(similarities)
    if covered != expected:
        missing = expected - covered
        raise ClusteringError(
            f"pools do not cover strangers {sorted(missing)[:5]}"
        )


def build_network_only_pools(
    similarities: Mapping[UserId, float],
    config: PoolingConfig | None = None,
) -> list[StrangerPool]:
    """NSP pools: one pool per non-empty network similarity group."""
    cfg = config or PoolingConfig()
    groups = network_similarity_groups(similarities, cfg.alpha)
    pools = [
        StrangerPool(
            pool_id=f"nsg{group.index}",
            nsg_index=group.index,
            cluster_index=0,
            members=group.members,
        )
        for group in groups
        if group.members
    ]
    _check_partition(pools, similarities)
    return pools


def build_pools(
    similarities: Mapping[UserId, float],
    profiles: Mapping[UserId, Profile],
    config: PoolingConfig | None = None,
) -> list[StrangerPool]:
    """NPP pools of Definition 3.

    Strangers are first grouped by network similarity (Definition 1); each
    non-empty group is then clustered by Squeezer on profile attributes
    with threshold ``beta`` (Definition 2).  Clusters smaller than
    ``config.min_pool_size`` are merged into the largest cluster of their
    group — a tiny pool cannot sustain a learning loop.

    The result is a partition of the stranger set, which is verified before
    returning (and property-tested in the suite).
    """
    pools, _, _ = build_pools_cached(similarities, profiles, config, None)
    return pools


@dataclass(frozen=True)
class PooledGroup:
    """One NS group's Squeezer outcome, keyed by its exact inputs.

    Squeezer is deterministic in its inputs: the group's member list (in
    sorted order) and their profiles, plus the (fixed) pooling config.
    A cached :class:`PooledGroup` whose ``members``/``profiles`` equal
    the current group's can therefore replay its ``pools`` verbatim —
    the incremental warm path's way of re-running Squeezer only in
    groups a mutation actually perturbed.
    """

    members: tuple[UserId, ...]
    profiles: tuple[Profile, ...]
    pools: tuple[StrangerPool, ...]


def build_pools_cached(
    similarities: Mapping[UserId, float],
    profiles: Mapping[UserId, Profile],
    config: PoolingConfig | None = None,
    cache: Mapping[int, PooledGroup] | None = None,
) -> tuple[list[StrangerPool], dict[int, PooledGroup], int]:
    """NPP pools with per-group Squeezer reuse.

    Identical partition to :func:`build_pools` — binning is always
    recomputed (cheap), but a group whose membership and member profiles
    match a ``cache`` entry reuses that entry's clusters instead of
    re-running Squeezer.  Returns ``(pools, new_cache, groups_reused)``;
    the partition check always runs on the final pool list.
    """
    cfg = config or PoolingConfig()
    groups = network_similarity_groups(similarities, cfg.alpha)
    weights = cfg.normalized_weights()
    pools: list[StrangerPool] = []
    new_cache: dict[int, PooledGroup] = {}
    reused = 0
    for group in groups:
        if not group.members:
            continue
        member_profiles = tuple(profiles[user_id] for user_id in group.members)
        prior = cache.get(group.index) if cache else None
        if (
            prior is not None
            and prior.members == group.members
            and prior.profiles == member_profiles
        ):
            group_pools = prior.pools
            reused += 1
        else:
            group_pools = tuple(_pools_for_group(group, profiles, cfg, weights))
        new_cache[group.index] = PooledGroup(
            members=group.members,
            profiles=member_profiles,
            pools=group_pools,
        )
        pools.extend(group_pools)
    _check_partition(pools, similarities)
    return pools, new_cache, reused


def _pools_for_group(
    group: NetworkSimilarityGroup,
    profiles: Mapping[UserId, Profile],
    cfg: PoolingConfig,
    weights: Mapping,
) -> list[StrangerPool]:
    member_profiles = [profiles[user_id] for user_id in group.members]
    clusters = squeezer(
        member_profiles,
        threshold=cfg.beta,
        attributes=cfg.attributes,
        weights=dict(weights),
    )
    memberships: list[list[UserId]] = [list(cluster.members) for cluster in clusters]
    memberships = _merge_small(memberships, cfg.min_pool_size)
    return [
        StrangerPool(
            pool_id=f"nsg{group.index}.c{cluster_index}",
            nsg_index=group.index,
            cluster_index=cluster_index,
            members=tuple(sorted(members)),
        )
        for cluster_index, members in enumerate(memberships)
    ]


def _merge_small(
    memberships: list[list[UserId]], min_size: int
) -> list[list[UserId]]:
    """Merge clusters below ``min_size`` into the group's largest cluster."""
    if min_size <= 1 or len(memberships) <= 1:
        return memberships
    large = [members for members in memberships if len(members) >= min_size]
    small = [members for members in memberships if len(members) < min_size]
    if not large:
        merged: list[UserId] = []
        for members in small:
            merged.extend(members)
        return [merged]
    sink = max(large, key=len)
    for members in small:
        sink.extend(members)
    return large
