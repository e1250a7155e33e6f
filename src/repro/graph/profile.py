"""User profiles: categorical attributes and per-item privacy settings.

A profile carries two kinds of information the pipeline consumes:

* **attributes** — categorical values (gender, locale, last name, ...) used
  by the similarity measures and by Squeezer clustering;
* **privacy settings** — one :class:`~repro.types.VisibilityLevel` per
  benefit item, from which the visibility bit ``V_s(i, o)`` of the benefit
  measure (Section II) and the visibility tables (IV, V) are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ProfileError
from ..types import BenefitItem, ProfileAttribute, UserId, VisibilityLevel

#: Privacy settings used when a profile does not specify one for an item.
#: Facebook's 2011-era defaults were famously permissive (Section I cites
#: [5], [6]); "friends of friends" is the recommended-default audience the
#: paper calls out for most profile parts.
DEFAULT_VISIBILITY = VisibilityLevel.FRIENDS_OF_FRIENDS


@dataclass
class Profile:
    """A single user's profile.

    Parameters
    ----------
    user_id:
        Identifier of the profile holder.
    attributes:
        Mapping from :class:`ProfileAttribute` to its categorical value.
        Missing attributes are treated as unknown (similarity measures skip
        them; Squeezer treats absence itself as a category).
    privacy:
        Mapping from :class:`BenefitItem` to the audience that may see it.
        Items absent from the mapping fall back to
        :data:`DEFAULT_VISIBILITY`.
    """

    user_id: UserId
    attributes: dict[ProfileAttribute, str] = field(default_factory=dict)
    privacy: dict[BenefitItem, VisibilityLevel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attribute, value in self.attributes.items():
            if not isinstance(attribute, ProfileAttribute):
                raise ProfileError(
                    f"attribute keys must be ProfileAttribute, got {attribute!r}"
                )
            if not isinstance(value, str) or not value:
                raise ProfileError(
                    f"attribute {attribute.value} must be a non-empty string, "
                    f"got {value!r}"
                )
        for item, level in self.privacy.items():
            if not isinstance(item, BenefitItem):
                raise ProfileError(
                    f"privacy keys must be BenefitItem, got {item!r}"
                )
            if not isinstance(level, VisibilityLevel):
                raise ProfileError(
                    f"privacy values must be VisibilityLevel, got {level!r}"
                )

    def attribute(self, attribute: ProfileAttribute) -> str | None:
        """Value of ``attribute``, or ``None`` when the user left it blank."""
        return self.attributes.get(attribute)

    def has_attribute(self, attribute: ProfileAttribute) -> bool:
        """Whether the user filled in ``attribute``."""
        return attribute in self.attributes

    def privacy_level(self, item: BenefitItem) -> VisibilityLevel:
        """Privacy setting of ``item`` (defaulting per Facebook-era norms)."""
        return self.privacy.get(item, DEFAULT_VISIBILITY)

    def is_visible(self, item: BenefitItem, distance: int) -> bool:
        """The visibility bit ``V_s(i, o)`` for a viewer at ``distance``.

        For the paper's setting the viewer is always the owner, a
        friend-of-friend, i.e. ``distance == 2``.
        """
        return self.privacy_level(item).visible_at_distance(distance)

    def visible_items(self, distance: int) -> tuple[BenefitItem, ...]:
        """All benefit items visible to a viewer at ``distance``."""
        return tuple(
            item for item in BenefitItem if self.is_visible(item, distance)
        )

    def attribute_vector(
        self, attributes: tuple[ProfileAttribute, ...]
    ) -> tuple[str | None, ...]:
        """Values of the requested attributes, preserving order.

        Squeezer and the profile-similarity measure operate on fixed
        attribute tuples; unknown attributes surface as ``None`` so callers
        decide how to treat them.
        """
        return tuple(self.attributes.get(attribute) for attribute in attributes)

    def copy(self) -> "Profile":
        """Deep-enough copy (the value types are immutable)."""
        return Profile(
            user_id=self.user_id,
            attributes=dict(self.attributes),
            privacy=dict(self.privacy),
        )
