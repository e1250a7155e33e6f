"""JSON round-trips for the library's value types.

The format is deliberately plain: a graph document carries a ``users``
list (id, attributes, privacy) and an ``edges`` list, so datasets can be
produced and consumed by other tools.  Results serialize one-way (to
dicts) for logging and EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..errors import SerializationError
from ..graph.profile import Profile
from ..graph.social_graph import SocialGraph
from ..learning.results import SessionResult
from ..types import BenefitItem, ProfileAttribute, VisibilityLevel

_FORMAT_VERSION = 1


def profile_to_dict(profile: Profile) -> dict[str, Any]:
    """Serialize one profile."""
    return {
        "id": profile.user_id,
        "attributes": {
            attribute.value: value
            for attribute, value in sorted(profile.attributes.items())
        },
        "privacy": {
            item.value: level.name
            for item, level in sorted(profile.privacy.items())
        },
    }


def profile_from_dict(document: dict[str, Any]) -> Profile:
    """Deserialize one profile.

    Raises
    ------
    SerializationError
        On unknown attribute names, benefit items, or visibility levels.
    """
    try:
        attributes = {
            ProfileAttribute(name): value
            for name, value in document.get("attributes", {}).items()
        }
        privacy = {
            BenefitItem(name): VisibilityLevel[level]
            for name, level in document.get("privacy", {}).items()
        }
        return Profile(
            user_id=int(document["id"]),
            attributes=attributes,
            privacy=privacy,
        )
    except (KeyError, ValueError) as error:
        raise SerializationError(f"malformed profile document: {error}") from error


def graph_to_dict(graph: SocialGraph, *, lazy: bool = False) -> dict[str, Any]:
    """A social graph (profiles + edges) as a JSON-ready document.

    With ``lazy`` the ``users`` and ``edges`` lists are generators, so a
    streaming writer (:meth:`repro.io.checkpoint.CheckpointStore.save`)
    encodes one row at a time instead of holding the whole document.
    """
    users = (
        profile_to_dict(graph.profile(user_id))
        for user_id in sorted(graph.users())
    )
    edges = ([a, b] for a, b in sorted(graph.edges()))
    return {
        "version": _FORMAT_VERSION,
        "users": users if lazy else list(users),
        "edges": edges if lazy else list(edges),
    }


def graph_from_dict(document: dict[str, Any]) -> SocialGraph:
    """Rebuild a social graph; inverse of :func:`graph_to_dict`."""
    if document.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported graph format version: {document.get('version')!r}"
        )
    profiles = [profile_from_dict(entry) for entry in document.get("users", [])]
    try:
        edges = [(int(a), int(b)) for a, b in document.get("edges", [])]
    except (TypeError, ValueError) as error:
        raise SerializationError(f"malformed edge list: {error}") from error
    return SocialGraph.from_edges(profiles, edges)


def graph_to_json(graph: SocialGraph) -> str:
    """Serialize a social graph (profiles + edges) to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=True)


def graph_from_json(text: str) -> SocialGraph:
    """Deserialize a social graph from a JSON string."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return graph_from_dict(document)


def save_graph(graph: SocialGraph, path: str | Path) -> None:
    """Write a graph to ``path`` as JSON."""
    Path(path).write_text(graph_to_json(graph), encoding="utf-8")


def load_graph(path: str | Path) -> SocialGraph:
    """Read a graph written by :func:`save_graph`."""
    return graph_from_json(Path(path).read_text(encoding="utf-8"))


def result_digest(result: SessionResult) -> str:
    """Canonical SHA-256 digest of a session result.

    Two results digest equal iff their exported documents are
    byte-identical — the check the serving layer uses to prove a cached
    or warm re-score still matches a batch study run.
    """
    document = session_result_to_dict(result)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def session_result_to_dict(result: SessionResult) -> dict[str, Any]:
    """One-way export of a session result for logging."""
    return {
        "owner": result.owner,
        "confidence": result.confidence,
        "num_pools": result.num_pools,
        "num_strangers": result.num_strangers,
        "labels_requested": result.labels_requested,
        "exact_match_accuracy": result.exact_match_accuracy,
        "validation_rmse": result.validation_rmse,
        "mean_rounds_to_stop": result.mean_rounds_to_stop,
        "converged_fraction": result.converged_fraction,
        "pools": [
            {
                "pool_id": pool.pool_id,
                "nsg_index": pool.nsg_index,
                "rounds": pool.num_rounds,
                "labels_requested": pool.labels_requested,
                "stop_reason": pool.stop_reason.value,
                "final_labels": {
                    str(stranger): int(label)
                    for stranger, label in sorted(pool.final_labels.items())
                },
            }
            for pool in result.pool_results
        ],
    }
