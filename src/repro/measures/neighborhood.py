"""Neighborhood uniqueness: de-anonymization risk from graph structure.

Follows Romanini et al. ("Privacy losses in network publishing",
arXiv:2009.09973): even a fully anonymized graph re-identifies a user
whose *neighborhood structure* is unique.  The measure builds the
owner's neighborhood signature at radius 1 and radius 2 and counts how
many cohort members share it — the owner's **anonymity set**.  The
uniqueness at each radius is ``1 / |anonymity set|``: 1.0 means the
structure pins the owner exactly, ``1/n`` means the owner hides among
``n`` structural twins.

Signatures (all invariant under node relabeling, i.e. exactly what an
attacker keeps after anonymization):

* radius 1 — ``(degree, sorted multiset of friend degrees)``;
* radius 2 — the radius-1 signature plus the 2-hop neighborhood size.

The cohort is **every user of the graph**, not just registered owners:
shard workers hold a full copy of the graph while registering only
their own owners, so a graph-wide cohort is what keeps sharded digests
byte-identical to the unsharded deployment.  For the same reason the
measure is *not* ``remote_safe``: a worker job only ships the owner's
universe subgraph, which would shrink the cohort and change the
anonymity sets — the engine computes this measure inline on the full
graph.

Deterministic by construction: no oracle, no RNG.  Caveat (documented
in docs/service.md): the engine's cache keys on the *owner's* version,
so mutations entirely outside the owner's universe can drift the cohort
without invalidating a cached neighborhood score until the owner is
touched.
"""

from __future__ import annotations

from typing import Any

from ..graph.social_graph import SocialGraph
from ..types import UserId
from .base import MeasureRequest, MeasureScore, RiskMeasure, canonical_digest
from .registry import register_measure

Signature = tuple


def _radius_one_signature(graph: SocialGraph, user: UserId) -> Signature:
    return (
        graph.degree(user),
        tuple(sorted(graph.degree(friend) for friend in graph.friends(user))),
    )


def _radius_two_signature(
    graph: SocialGraph, user: UserId, radius_one: Signature
) -> Signature:
    return radius_one + (len(graph.two_hop_neighbors(user)),)


@register_measure("neighborhood")
class NeighborhoodUniquenessMeasure(RiskMeasure):
    """How identifying the owner's 1/2-hop neighborhood is in the cohort."""

    description = (
        "De-anonymization risk: uniqueness of the owner's 1/2-hop "
        "neighborhood signature against the whole-graph cohort "
        "(Romanini et al., arXiv:2009.09973)"
    )
    #: Needs the whole-graph cohort; a worker's universe subgraph would
    #: shrink the anonymity sets.
    remote_safe = False

    def compute(self, request: MeasureRequest) -> MeasureScore:
        """Count the owner's radius-1/2 structural twins in the cohort."""
        graph = request.graph
        owner_id = request.owner.user_id
        cohort = sorted(graph.users())

        owner_r1 = _radius_one_signature(graph, owner_id)
        owner_r2 = _radius_two_signature(graph, owner_id, owner_r1)
        # One pass over the cohort; the radius-2 extension (a 2-hop
        # neighborhood per user) is only computed for radius-1 twins,
        # since distinct radius-1 signatures can never collide at 2.
        anonymity_r1 = 0
        anonymity_r2 = 0
        for user in cohort:
            r1 = _radius_one_signature(graph, user)
            if r1 != owner_r1:
                continue
            anonymity_r1 += 1
            if _radius_two_signature(graph, user, r1) == owner_r2:
                anonymity_r2 += 1

        result = {
            "owner": owner_id,
            "cohort_size": len(cohort),
            "degree": owner_r1[0],
            "two_hop_size": owner_r2[-1],
            "radius_1": {
                "anonymity_set": anonymity_r1,
                "uniqueness": 1.0 / anonymity_r1,
            },
            "radius_2": {
                "anonymity_set": anonymity_r2,
                "uniqueness": 1.0 / anonymity_r2,
            },
            # The attacker gets the stronger signature; radius-2
            # uniqueness is the headline de-anonymization risk.
            "risk_score": 1.0 / anonymity_r2,
        }
        return MeasureScore(result=result, digest=self.digest(result))

    def digest(self, result: dict[str, Any]) -> str:
        """Canonical sha256 of the anonymity-set result payload."""
        return canonical_digest(result)

    def describe(self, result: dict[str, Any]) -> dict[str, Any]:
        """JSON block served under the ``neighborhood`` key."""
        return {"neighborhood": result}


__all__ = ["NeighborhoodUniquenessMeasure"]
