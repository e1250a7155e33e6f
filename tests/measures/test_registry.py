"""Tests for the risk-measure registry: lookup, catalog, registration."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, UnknownMeasureError
from repro.measures import (
    DEFAULT_MEASURE,
    MeasureScore,
    RiskMeasure,
    available_measures,
    get_measure,
    measure_catalog,
    register_measure,
)
from repro.measures.registry import _REGISTRY

from ..property_settings import STANDARD_SETTINGS

BUILTINS = ("friendship", "neighborhood", "stranger")


class TestRegistry:
    def test_builtins_are_registered(self):
        assert available_measures() == BUILTINS

    def test_default_measure_is_registered(self):
        assert DEFAULT_MEASURE in available_measures()
        assert get_measure(DEFAULT_MEASURE).name == DEFAULT_MEASURE

    def test_lookup_returns_the_singleton(self):
        for name in available_measures():
            assert get_measure(name) is get_measure(name)
            assert get_measure(name).name == name

    def test_unknown_measure_carries_the_menu(self):
        with pytest.raises(UnknownMeasureError) as excinfo:
            get_measure("palmistry")
        assert excinfo.value.name == "palmistry"
        assert excinfo.value.available == BUILTINS
        assert "palmistry" in str(excinfo.value)

    def test_double_registration_is_an_error(self):
        with pytest.raises(ConfigError):

            @register_measure("stranger")
            class Impostor(RiskMeasure):  # pragma: no cover - never used
                def compute(self, request):
                    return MeasureScore(result=None, digest="")

                def digest(self, result):
                    return ""

                def describe(self, result):
                    return {}

        # the failed registration must not have clobbered the original
        assert type(get_measure("stranger")).__name__ == "StrangerRiskMeasure"

    def test_catalog_is_json_ready_and_flags_the_default(self):
        catalog = measure_catalog()
        assert [row["name"] for row in catalog] == list(available_measures())
        for row in catalog:
            assert set(row) == {
                "name", "description", "default", "remote_safe"
            }
            assert isinstance(row["description"], str) and row["description"]
            assert isinstance(row["remote_safe"], bool)
        defaults = [row["name"] for row in catalog if row["default"]]
        assert defaults == [DEFAULT_MEASURE]

    def test_neighborhood_is_not_remote_safe(self):
        # cohort-relative: a worker's universe subgraph would shrink the
        # anonymity cohort and change the digest
        assert get_measure("neighborhood").remote_safe is False
        assert get_measure("stranger").remote_safe is True
        assert get_measure("friendship").remote_safe is True


class TestRegistryProperties:
    @given(name=st.text(max_size=30))
    @STANDARD_SETTINGS
    def test_lookup_is_total_and_deterministic(self, name):
        """Every string either resolves to its registered singleton or
        raises :class:`UnknownMeasureError` listing the full menu —
        never a bare ``KeyError``, never a partial menu."""
        if name in available_measures():
            assert get_measure(name) is _REGISTRY[name]
            assert get_measure(name).name == name
        else:
            with pytest.raises(UnknownMeasureError) as excinfo:
                get_measure(name)
            assert excinfo.value.available == available_measures()
            # a second lookup fails identically (no state was mutated)
            with pytest.raises(UnknownMeasureError):
                get_measure(name)

    @given(data=st.data())
    @STANDARD_SETTINGS
    def test_registered_lookups_agree_with_the_catalog(self, data):
        name = data.draw(st.sampled_from(available_measures()))
        measure = get_measure(name)
        row = next(r for r in measure_catalog() if r["name"] == name)
        assert row["description"] == measure.description
        assert row["remote_safe"] == measure.remote_safe
        assert row["default"] == (name == DEFAULT_MEASURE)
