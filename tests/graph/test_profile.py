"""Tests for profiles and the value-frequency oracle."""

import pytest

from repro.errors import ProfileError
from repro.graph.profile import DEFAULT_VISIBILITY, Profile
from repro.types import BenefitItem, ProfileAttribute, VisibilityLevel

from ..conftest import make_profile
from ..similarity.pool_oracle import value_frequencies


class TestProfileConstruction:
    def test_minimal_profile(self):
        profile = Profile(user_id=1)
        assert profile.user_id == 1
        assert profile.attribute(ProfileAttribute.GENDER) is None

    def test_attribute_lookup(self):
        profile = make_profile(1, gender="female")
        assert profile.attribute(ProfileAttribute.GENDER) == "female"
        assert profile.has_attribute(ProfileAttribute.GENDER)

    def test_invalid_attribute_key_rejected(self):
        with pytest.raises(ProfileError):
            Profile(user_id=1, attributes={"gender": "male"})

    def test_empty_attribute_value_rejected(self):
        with pytest.raises(ProfileError):
            Profile(user_id=1, attributes={ProfileAttribute.GENDER: ""})

    def test_non_string_attribute_value_rejected(self):
        with pytest.raises(ProfileError):
            Profile(user_id=1, attributes={ProfileAttribute.GENDER: 42})

    def test_invalid_privacy_key_rejected(self):
        with pytest.raises(ProfileError):
            Profile(user_id=1, privacy={"wall": VisibilityLevel.PUBLIC})

    def test_invalid_privacy_value_rejected(self):
        with pytest.raises(ProfileError):
            Profile(user_id=1, privacy={BenefitItem.WALL: 2})


class TestVisibility:
    def test_default_visibility_is_friends_of_friends(self):
        profile = Profile(user_id=1)
        assert profile.privacy_level(BenefitItem.WALL) is DEFAULT_VISIBILITY
        assert profile.is_visible(BenefitItem.WALL, 2)

    def test_private_item_hidden_from_strangers(self):
        profile = Profile(
            user_id=1, privacy={BenefitItem.PHOTO: VisibilityLevel.PRIVATE}
        )
        assert not profile.is_visible(BenefitItem.PHOTO, 2)
        assert profile.is_visible(BenefitItem.PHOTO, 0)

    def test_visible_items_lists_only_visible(self):
        profile = make_profile(1, visible=(BenefitItem.PHOTO,))
        assert profile.visible_items(2) == (BenefitItem.PHOTO,)

    def test_visible_items_at_distance_one(self):
        profile = make_profile(1, visible=())
        # the factory sets everything else to FRIENDS
        assert set(profile.visible_items(1)) == set(BenefitItem)


class TestAttributeVector:
    def test_vector_preserves_order_and_missing(self):
        profile = make_profile(1, gender="male", locale="TR")
        vector = profile.attribute_vector(
            (ProfileAttribute.LOCALE, ProfileAttribute.HOMETOWN)
        )
        assert vector == ("TR", None)

    def test_copy_is_independent(self):
        profile = make_profile(1)
        clone = profile.copy()
        clone.attributes[ProfileAttribute.GENDER] = "female"
        assert profile.attribute(ProfileAttribute.GENDER) == "male"


class TestValueFrequencies:
    def test_frequencies_sum_to_one(self):
        profiles = [
            make_profile(1, locale="US"),
            make_profile(2, locale="US"),
            make_profile(3, locale="TR"),
            make_profile(4, locale="IT"),
        ]
        freqs = value_frequencies(profiles, ProfileAttribute.LOCALE)
        assert sum(freqs.values()) == pytest.approx(1.0)
        assert freqs["US"] == pytest.approx(0.5)

    def test_missing_values_do_not_contribute(self):
        profiles = [make_profile(1, locale="US"), Profile(user_id=2)]
        freqs = value_frequencies(profiles, ProfileAttribute.LOCALE)
        assert freqs == {"US": 1.0}

    def test_empty_population(self):
        assert value_frequencies([], ProfileAttribute.GENDER) == {}

    def test_accepts_mapping(self):
        profiles = {1: make_profile(1, gender="male")}
        freqs = value_frequencies(profiles, ProfileAttribute.GENDER)
        assert freqs == {"male": 1.0}
