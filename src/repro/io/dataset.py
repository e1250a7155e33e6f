"""Serialization of full study populations (datasets).

A serialized population captures everything needed to re-run the
experiments bit-for-bit on another machine *without* regenerating: the
graph, each owner's profile/attitude/thetas/confidence, the ground-truth
labels, and the ego-net handles.  This is the repository's substitute for
publishing the (unpublishable) Facebook dataset: a reproducible synthetic
one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..benefits.model import ThetaWeights
from ..errors import SerializationError
from ..graph.social_graph import SocialGraph
from ..synth.graphs import EgoNetConfig, EgoNetHandle
from ..synth.owners import RiskAttitude, SimulatedOwner
from ..synth.population import StudyConfig, StudyPopulation
from ..types import BenefitItem, Gender, Locale, RiskLabel
from .serialization import graph_from_dict, graph_to_dict, profile_from_dict, profile_to_dict

_FORMAT_VERSION = 1


def _attitude_to_dict(attitude: RiskAttitude) -> dict[str, Any]:
    return {
        "owner_locale": attitude.owner_locale.value,
        "risky_gender": attitude.risky_gender.value,
        "network_weight": attitude.network_weight,
        "gender_weight": attitude.gender_weight,
        "locale_weight": attitude.locale_weight,
        "lastname_weight": attitude.lastname_weight,
        "familiar_lastnames": sorted(attitude.familiar_lastnames),
        "item_sensitivities": {
            item.value: value
            for item, value in sorted(attitude.item_sensitivities.items())
        },
        "noise_sd": attitude.noise_sd,
        "threshold_risky": attitude.threshold_risky,
        "threshold_very_risky": attitude.threshold_very_risky,
    }


def _attitude_from_dict(document: dict[str, Any]) -> RiskAttitude:
    try:
        return RiskAttitude(
            owner_locale=Locale(document["owner_locale"]),
            risky_gender=Gender(document["risky_gender"]),
            network_weight=float(document["network_weight"]),
            gender_weight=float(document["gender_weight"]),
            locale_weight=float(document["locale_weight"]),
            lastname_weight=float(document["lastname_weight"]),
            familiar_lastnames=frozenset(document["familiar_lastnames"]),
            item_sensitivities={
                BenefitItem(name): float(value)
                for name, value in document["item_sensitivities"].items()
            },
            noise_sd=float(document["noise_sd"]),
            threshold_risky=float(document["threshold_risky"]),
            threshold_very_risky=float(document["threshold_very_risky"]),
        )
    except (KeyError, ValueError) as error:
        raise SerializationError(f"malformed attitude document: {error}") from error


def _owner_to_dict(owner: SimulatedOwner) -> dict[str, Any]:
    return {
        "user_id": owner.user_id,
        "profile": profile_to_dict(owner.profile),
        "attitude": _attitude_to_dict(owner.attitude),
        "thetas": {
            item.value: weight
            for item, weight in sorted(owner.thetas.weights.items())
        },
        "confidence": owner.confidence,
        "ground_truth": {
            str(stranger): int(label)
            for stranger, label in sorted(owner.ground_truth.items())
        },
    }


def _owner_from_dict(document: dict[str, Any]) -> SimulatedOwner:
    try:
        return SimulatedOwner(
            user_id=int(document["user_id"]),
            profile=profile_from_dict(document["profile"]),
            attitude=_attitude_from_dict(document["attitude"]),
            thetas=ThetaWeights(
                {
                    BenefitItem(name): float(weight)
                    for name, weight in document["thetas"].items()
                }
            ),
            confidence=float(document["confidence"]),
            ground_truth={
                int(stranger): RiskLabel(int(label))
                for stranger, label in document["ground_truth"].items()
            },
        )
    except (KeyError, ValueError) as error:
        raise SerializationError(f"malformed owner document: {error}") from error


def owner_to_dict(owner: SimulatedOwner) -> dict[str, Any]:
    """Serialize one simulated owner with full fidelity.

    Public entry point used by the service WAL snapshots; the dataset
    format embeds the same document per owner.
    """
    return _owner_to_dict(owner)


def owner_from_dict(document: dict[str, Any]) -> SimulatedOwner:
    """Rebuild an owner; inverse of :func:`owner_to_dict`."""
    return _owner_from_dict(document)


def _handle_to_dict(handle: EgoNetHandle) -> dict[str, Any]:
    return {
        "owner": handle.owner,
        "friends": list(handle.friends),
        "strangers": list(handle.strangers),
        "communities": [list(members) for members in handle.communities],
    }


def _handle_from_dict(document: dict[str, Any]) -> EgoNetHandle:
    try:
        return EgoNetHandle(
            owner=int(document["owner"]),
            friends=tuple(int(friend) for friend in document["friends"]),
            strangers=tuple(int(s) for s in document["strangers"]),
            communities=tuple(
                tuple(int(member) for member in members)
                for members in document["communities"]
            ),
        )
    except (KeyError, ValueError, TypeError) as error:
        raise SerializationError(f"malformed handle document: {error}") from error


def population_to_json(population: StudyPopulation) -> str:
    """Serialize a full study population to a JSON string."""
    document = {
        "version": _FORMAT_VERSION,
        "graph": graph_to_dict(population.graph),
        "owners": [_owner_to_dict(owner) for owner in population.owners],
        "handles": [
            _handle_to_dict(handle)
            for handle in population.handles.values()
        ],
        "config": {
            "num_owners": population.config.num_owners,
            "seed": population.config.seed,
            "topology": population.config.topology,
            "archetype": population.config.archetype,
            "ego": {
                "num_friends": population.config.ego.num_friends,
                "num_strangers": population.config.ego.num_strangers,
                "num_communities": population.config.ego.num_communities,
                "friend_density": population.config.ego.friend_density,
                "owner_locale_affinity": population.config.ego.owner_locale_affinity,
                "stranger_stranger_density": population.config.ego.stranger_stranger_density,
            },
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)


def population_from_json(text: str) -> StudyPopulation:
    """Deserialize a population written by :func:`population_to_json`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    if document.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported dataset format version: {document.get('version')!r}"
        )
    graph: SocialGraph = graph_from_dict(document["graph"])
    owners = tuple(
        _owner_from_dict(entry) for entry in document.get("owners", [])
    )
    handles = {
        handle.owner: handle
        for handle in (
            _handle_from_dict(entry) for entry in document.get("handles", [])
        )
    }
    config_doc = document.get("config", {})
    ego_doc = config_doc.get("ego", {})
    config = StudyConfig(
        num_owners=int(config_doc.get("num_owners", len(owners))),
        ego=EgoNetConfig(**ego_doc) if ego_doc else EgoNetConfig(),
        seed=int(config_doc.get("seed", 0)),
        topology=config_doc.get("topology", "communities"),
        archetype=config_doc.get("archetype", "balanced"),
    )
    return StudyPopulation(
        graph=graph, owners=owners, handles=handles, config=config
    )


def save_population(population: StudyPopulation, path: str | Path) -> None:
    """Write a population dataset to ``path``."""
    Path(path).write_text(population_to_json(population), encoding="utf-8")


def load_population(path: str | Path) -> StudyPopulation:
    """Read a dataset written by :func:`save_population`."""
    return population_from_json(Path(path).read_text(encoding="utf-8"))
