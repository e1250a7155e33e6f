"""Tests for JSON serialization."""

import json

import pytest

from repro.errors import SerializationError
from repro.io.serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    profile_from_dict,
    profile_to_dict,
    save_graph,
    session_result_to_dict,
)
from repro.types import BenefitItem, ProfileAttribute, VisibilityLevel

from ..conftest import make_ego_graph, make_profile


class TestProfileRoundTrip:
    def test_round_trip_preserves_everything(self):
        profile = make_profile(7, gender="female", locale="TR", last_name="kaya")
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.user_id == profile.user_id
        assert restored.attributes == profile.attributes
        assert restored.privacy == profile.privacy

    def test_empty_profile_round_trip(self):
        from repro.graph.profile import Profile

        profile = Profile(user_id=1)
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.attributes == {}
        assert restored.privacy == {}

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SerializationError):
            profile_from_dict({"id": 1, "attributes": {"shoe_size": "42"}})

    def test_unknown_visibility_level_rejected(self):
        with pytest.raises(SerializationError):
            profile_from_dict(
                {"id": 1, "privacy": {"wall": "EVERYONE_AND_DOG"}}
            )

    def test_missing_id_rejected(self):
        with pytest.raises(SerializationError):
            profile_from_dict({"attributes": {}})


class TestGraphRoundTrip:
    def test_round_trip_preserves_structure(self):
        graph, _ = make_ego_graph(num_friends=4, num_strangers=8, seed=3)
        restored = graph_from_json(graph_to_json(graph))
        assert restored.num_users == graph.num_users
        assert restored.num_friendships == graph.num_friendships
        assert sorted(restored.edges()) == sorted(graph.edges())
        for user in graph.users():
            assert (
                restored.profile(user).attributes
                == graph.profile(user).attributes
            )

    def test_dict_is_the_parsed_json_document(self):
        graph, _ = make_ego_graph(num_friends=4, num_strangers=8, seed=3)
        document = json.loads(graph_to_json(graph))
        assert graph_to_dict(graph) == document
        lazy = graph_to_dict(graph, lazy=True)
        lazy["users"], lazy["edges"] = list(lazy["users"]), list(lazy["edges"])
        assert lazy == document
        restored = graph_from_dict(document)
        assert graph_to_json(restored) == graph_to_json(graph)

    def test_file_round_trip(self, tmp_path):
        graph, _ = make_ego_graph(seed=4)
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.num_users == graph.num_users

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json('{"version": 99, "users": [], "edges": []}')

    def test_malformed_edges_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_json(
                '{"version": 1, "users": [], "edges": [["a", null]]}'
            )


class TestResultExport:
    def test_session_result_export(self, npp_study):
        document = session_result_to_dict(npp_study.runs[0].result)
        assert document["num_pools"] >= 1
        assert document["labels_requested"] > 0
        assert len(document["pools"]) == document["num_pools"]
        first_pool = document["pools"][0]
        assert set(first_pool) >= {
            "pool_id",
            "rounds",
            "stop_reason",
            "final_labels",
        }

    def test_export_is_json_serializable(self, npp_study):
        import json

        document = session_result_to_dict(npp_study.runs[0].result)
        json.dumps(document)
