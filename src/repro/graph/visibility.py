"""Resolution of the visibility bit ``V_s(i, o)`` (Section II).

The benefit measure needs, for every benefit item ``i`` of a stranger
``s``, whether the owner ``o`` can currently see it.  In the paper this is
observed directly through the Facebook API; here it is derived from the
stranger's privacy settings and the owner/stranger graph distance (always 2
for strangers, but the functions accept any pair so the same machinery
serves friends and unrelated users in the examples).
"""

from __future__ import annotations

from ..types import BenefitItem, UserId, VisibilityLevel
from .social_graph import SocialGraph

#: Strangers are 2-hop contacts by definition, so visibility checks that do
#: not need an exact distance can assume this.
STRANGER_DISTANCE = 2


def item_visibility(
    graph: SocialGraph,
    viewer: UserId,
    holder: UserId,
    item: BenefitItem,
) -> bool:
    """Whether ``viewer`` can see ``item`` on ``holder``'s profile.

    The graph distance is computed with a cutoff of 3; pairs farther apart
    (or disconnected) only see :class:`~repro.types.VisibilityLevel.PUBLIC`
    items.
    """
    distance = graph.distance(viewer, holder, cutoff=3)
    if distance is None:
        distance = 4  # effectively "unrelated": only PUBLIC passes
    return graph.profile(holder).is_visible(item, distance)


def visible_items(
    graph: SocialGraph,
    viewer: UserId,
    holder: UserId,
) -> tuple[BenefitItem, ...]:
    """Every benefit item of ``holder`` visible to ``viewer``."""
    distance = graph.distance(viewer, holder, cutoff=3)
    if distance is None:
        distance = 4
    return graph.profile(holder).visible_items(distance)


def stranger_visibility_vector(
    graph: SocialGraph,
    owner: UserId,
    stranger: UserId,
) -> dict[BenefitItem, bool]:
    """The full ``V_s(i, o)`` vector for an owner/stranger pair.

    Uses the stranger distance of 2 directly (the pair is assumed to be a
    valid owner/stranger pair; :class:`~repro.graph.ego.EgoNetwork`
    guarantees that).  Avoiding a BFS per item keeps the benefit
    computation O(items) per stranger.
    """
    profile = graph.profile(stranger)
    del owner  # distance is fixed by the stranger relationship
    return {
        item: profile.is_visible(item, STRANGER_DISTANCE)
        for item in BenefitItem
    }


def level_bits(distance: int = STRANGER_DISTANCE) -> dict[VisibilityLevel, float]:
    """``V_s(i, o)`` as 1.0/0.0 per privacy level for a viewer at ``distance``.

    Batch callers look it up per cell by the item's level
    (``privacy.get(item, DEFAULT_VISIBILITY)``) instead of calling
    :meth:`~repro.graph.profile.Profile.is_visible`.
    """
    return {
        level: 1.0 if level.visible_at_distance(distance) else 0.0
        for level in VisibilityLevel
    }
