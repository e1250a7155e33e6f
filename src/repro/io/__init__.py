"""Serialization of graphs, profiles, datasets, and results to JSON."""

from .anonymize import anonymize_graph, pseudonym
from .checkpoint import (
    CheckpointStore,
    SessionCheckpointer,
    pool_result_from_dict,
    pool_result_to_dict,
)
from .study_io import save_study, study_result_to_dict
from .dataset import (
    load_population,
    owner_from_dict,
    owner_to_dict,
    population_from_json,
    population_to_json,
    save_population,
)
from .serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    profile_from_dict,
    profile_to_dict,
    result_digest,
    save_graph,
    session_result_to_dict,
)

__all__ = [
    "CheckpointStore",
    "SessionCheckpointer",
    "anonymize_graph",
    "graph_from_dict",
    "graph_from_json",
    "pool_result_from_dict",
    "pool_result_to_dict",
    "graph_to_dict",
    "graph_to_json",
    "load_graph",
    "load_population",
    "owner_from_dict",
    "owner_to_dict",
    "population_from_json",
    "population_to_json",
    "profile_from_dict",
    "pseudonym",
    "profile_to_dict",
    "result_digest",
    "save_graph",
    "save_population",
    "save_study",
    "session_result_to_dict",
    "study_result_to_dict",
]
