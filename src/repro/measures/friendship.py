"""Friendship risk: rank candidate friends by induced disclosure.

Follows the framing of Akcora et al. ("Risks of friendships on social
networks", arXiv:1210.3234): the risky act is *accepting a friend
request*, because friendship moves the requester from distance 2 to
distance 1 and thereby flips every friends-only profile item from
hidden to visible.  Candidates are the owner's 2-hop contacts — the
users who can actually reach the owner through a mutual friend, the
same stranger set the default measure scores.

Per candidate ``s`` the measure combines the two signals the paper's
owners combine:

``exposure_gain(s)``
    the normalized-theta mass of the owner's profile items that are
    hidden at distance 2 but would become visible at distance 1 —
    what accepting ``s`` newly discloses, weighted by how much the
    owner values each item (Table III's thetas);

``NS(o, s)``
    the community-aware network similarity of the ICDE pipeline, batch
    path and all — a candidate embedded in a dense community around the
    owner is familiar, so homophily discounts the risk (the direction
    Figure 7 measures).

``risk(s) = exposure_gain(s) * (1 - NS(o, s))`` in ``[0, 1]``, and
candidates are pooled into the same ``alpha`` equal-width NS bins as
Definition 1, so the report mirrors the pipeline's pooling view.

Everything consulted — mutual friends, their edges, the owner's own
profile — lies inside the owner's universe subgraph, and the measure is
deterministic: no oracle, no RNG, digest equal on every shard.
"""

from __future__ import annotations

from typing import Any

from ..config import PipelineConfig
from ..graph.ego import EgoNetwork
from ..similarity.network import NetworkSimilarity
from ..types import BenefitItem
from .base import MeasureRequest, MeasureScore, RiskMeasure, canonical_digest
from .registry import register_measure


@register_measure("friendship")
class FriendshipRiskMeasure(RiskMeasure):
    """Induced-disclosure risk of promoting each 2-hop contact to friend."""

    description = (
        "Rank candidate friends (2-hop contacts) by induced disclosure "
        "risk: theta-weighted items newly exposed at distance 1, "
        "discounted by NS homophily (Akcora et al., arXiv:1210.3234)"
    )
    def compute(self, request: MeasureRequest) -> MeasureScore:
        """Score every 2-hop candidate's induced disclosure for the owner."""
        graph = request.graph
        owner_id = request.owner.user_id
        config = request.config or PipelineConfig()
        ego = EgoNetwork(graph, owner_id)
        candidates = sorted(ego.strangers)
        similarities = NetworkSimilarity(config.network_similarity).for_strangers(
            graph, owner_id, frozenset(candidates)
        )

        # What friendship would newly expose: the owner's items hidden
        # from a friend-of-friend (distance 2) but visible to a friend
        # (distance 1), weighted by the owner's normalized thetas.
        owner_profile = graph.profile(owner_id)
        thetas = request.owner.thetas.normalized()
        exposure_gain = sum(
            thetas[item]
            for item in BenefitItem
            if owner_profile.is_visible(item, 1)
            and not owner_profile.is_visible(item, 2)
        )

        alpha = config.pooling.alpha
        rows = []
        for candidate in candidates:
            ns = similarities[candidate]
            risk = exposure_gain * (1.0 - ns)
            rows.append(
                {
                    "user": candidate,
                    "ns": ns,
                    "mutual_friends": len(ego.mutual_friends(candidate)),
                    "exposure_gain": exposure_gain,
                    "risk": risk,
                    "pool": min(int(ns * alpha), alpha - 1),
                }
            )
        rows.sort(key=lambda row: (-row["risk"], row["user"]))

        pools: dict[int, list[float]] = {}
        for row in rows:
            pools.setdefault(row["pool"], []).append(row["risk"])
        result = {
            "owner": owner_id,
            "candidates": rows,
            "pools": [
                {
                    "pool": pool,
                    "ns_low": pool / alpha,
                    "count": len(risks),
                    "mean_risk": sum(risks) / len(risks),
                }
                for pool, risks in sorted(pools.items())
            ],
            "summary": {
                "candidates": len(rows),
                "exposure_gain": exposure_gain,
                "mean_risk": (
                    sum(row["risk"] for row in rows) / len(rows)
                    if rows
                    else 0.0
                ),
                "max_risk": max((row["risk"] for row in rows), default=0.0),
            },
        }
        return MeasureScore(result=result, digest=self.digest(result))

    def digest(self, result: dict[str, Any]) -> str:
        """Canonical sha256 of the ranked-candidate result payload."""
        return canonical_digest(result)

    def describe(self, result: dict[str, Any]) -> dict[str, Any]:
        """JSON block served under the ``friendship`` key."""
        return {"friendship": result}


__all__ = ["FriendshipRiskMeasure"]
