"""The benefit measure of Section II.

Heterophily motivates interacting with dissimilar users because they offer
*benefits*: new information the owner may access.  The paper quantifies
this as

.. math::

    B(o, s) = \\frac{1}{|M|} \\sum_{i \\in M} \\theta_i \\cdot V_s(i, o)

where ``M`` is the set of benefit items on the stranger's profile,
``theta_i`` the owner-chosen importance of being able to see item ``i``,
and ``V_s(i, o)`` the visibility bit (1 when the owner can currently see
the item).  With ``theta_i`` in [0, 1] the measure lands in [0, 1]; the
Sight UI shows it to owners scaled to ``y/100``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigError
from ..graph.profile import DEFAULT_VISIBILITY
from ..graph.social_graph import SocialGraph
from ..graph.visibility import level_bits, stranger_visibility_vector
from ..types import BenefitItem, UserId


def _default_thetas() -> dict[BenefitItem, float]:
    """Cohort-average theta weights from Table III of the paper.

    These are the values owners actually assigned in the study; they serve
    as sensible defaults when a caller does not elicit their own weights.
    """
    return {
        BenefitItem.HOMETOWN: 0.155,
        BenefitItem.FRIEND: 0.149,
        BenefitItem.PHOTO: 0.147,
        BenefitItem.LOCATION: 0.143,
        BenefitItem.EDUCATION: 0.1393,
        BenefitItem.WALL: 0.1328,
        BenefitItem.WORK: 0.1321,
    }


@dataclass(frozen=True)
class ThetaWeights:
    """Owner-assigned importance coefficients ``theta_i`` (Section II).

    Each weight must lie in [0, 1].  :meth:`normalized` rescales them to
    sum to 1, which is the form Table III reports.
    """

    weights: dict[BenefitItem, float] = field(default_factory=_default_thetas)

    def __post_init__(self) -> None:
        for item in BenefitItem:
            if item not in self.weights:
                raise ConfigError(f"theta weight missing for item {item.value!r}")
        for item, weight in self.weights.items():
            if not 0.0 <= weight <= 1.0:
                raise ConfigError(
                    f"theta weight for {item.value!r} must lie in [0, 1], "
                    f"got {weight}"
                )

    def __getitem__(self, item: BenefitItem) -> float:
        return self.weights[item]

    def normalized(self) -> dict[BenefitItem, float]:
        """Weights rescaled to sum to 1 (all-zero weights stay zero).

        Summation runs in :class:`BenefitItem` declaration order, not
        dict insertion order: a serialization round-trip (WAL snapshot,
        migration slice) rebuilds the dict sorted by item name, and an
        order-dependent float sum would shift every normalized weight
        by an ULP — enough to break byte-identical score digests.
        """
        total = sum(self.weights[item] for item in BenefitItem)
        if total == 0.0:
            return {item: 0.0 for item in BenefitItem}
        return {item: self.weights[item] / total for item in BenefitItem}

    @classmethod
    def uniform(cls, value: float = 0.5) -> "ThetaWeights":
        """Equal importance ``value`` for every item."""
        return cls({item: value for item in BenefitItem})


class BenefitModel:
    """Computes ``B(o, s)`` over a social graph.

    Parameters
    ----------
    thetas:
        The owner's importance coefficients; defaults to the cohort
        averages of Table III.
    items:
        The benefit items to consider (``M``); defaults to all seven.
    """

    def __init__(
        self,
        thetas: ThetaWeights | None = None,
        items: tuple[BenefitItem, ...] | None = None,
    ) -> None:
        self._thetas = thetas or ThetaWeights()
        self._items = BenefitItem.all_items() if items is None else tuple(items)
        if not self._items:
            raise ConfigError("at least one benefit item is required")

    @property
    def thetas(self) -> ThetaWeights:
        """The owner's theta weights."""
        return self._thetas

    @property
    def items(self) -> tuple[BenefitItem, ...]:
        """The benefit items considered (``M``)."""
        return self._items

    def from_visibility(self, visibility: Mapping[BenefitItem, bool]) -> float:
        """``B`` from a precomputed visibility vector.

        This is the formula of Section II verbatim; useful when visibility
        bits were gathered once (as the Sight crawler does).
        """
        total = sum(
            self._thetas[item] * (1.0 if visibility.get(item, False) else 0.0)
            for item in self._items
        )
        return total / len(self._items)

    def __call__(self, graph: SocialGraph, owner: UserId, stranger: UserId) -> float:
        """``B(owner, stranger)`` for an owner/stranger pair in the graph."""
        visibility = stranger_visibility_vector(graph, owner, stranger)
        return self.from_visibility(visibility)

    def for_strangers(
        self,
        graph: SocialGraph,
        owner: UserId,
        strangers: frozenset[UserId] | set[UserId],
    ) -> dict[UserId, float]:
        """``B(owner, s)`` for every stranger ``s``, bit for bit :meth:`__call__`."""
        del owner  # strangers sit at distance 2 by definition
        bit = level_bits()
        thetas = [(item, self._thetas[item]) for item in self._items]
        benefits = {}
        for stranger in strangers:
            privacy = graph.profile(stranger).privacy
            total = 0
            for item, theta in thetas:
                total += theta * bit[privacy.get(item, DEFAULT_VISIBILITY)]
            benefits[stranger] = total / len(thetas)
        return benefits

    def maximum(self) -> float:
        """The largest achievable benefit (every item visible)."""
        return sum(self._thetas[item] for item in self._items) / len(self._items)
