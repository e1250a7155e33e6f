"""Similarity-graph construction for the pool classifiers.

Zhu's classifier represents "both labeled and unlabeled strangers ... as
nodes in a graph, where each pair of nodes is connected by a weighted
edge".  The original paper uses Euclidean (RBF) weights; because OSN
profiles are categorical, the ICDE paper substitutes edge weights from the
profile-similarity function ``PS()`` — which is what
:meth:`SimilarityGraph.from_profiles` builds.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

from ..errors import ClassifierError
from ..graph.profile import Profile
from ..types import UserId


class PairwiseSimilarity(Protocol):
    """An edge-weight measure yielding its symmetric all-pairs matrix."""

    def pairwise_matrix(self, profiles: Sequence[Profile]) -> np.ndarray:
        """Similarity of every pair of ``profiles``, as a new square
        matrix: exactly symmetric and non-negative."""


class SimilarityGraph:
    """A complete weighted graph over one pool's strangers.

    Weights are symmetric with a zero diagonal.  The node order is fixed at
    construction and is the canonical index space for the classifiers.
    """

    def __init__(self, nodes: Sequence[UserId], weights: np.ndarray) -> None:
        self._adopt(nodes, weights.copy())
        if not (np.array_equal(weights, weights.T) or np.allclose(weights, weights.T)):
            raise ClassifierError("weight matrix must be symmetric")
        if np.any(weights < 0):
            raise ClassifierError("weights must be non-negative")

    def _adopt(self, nodes: Sequence[UserId], weights: np.ndarray) -> None:
        """Index ``nodes`` and take ``weights`` as the graph's own matrix,
        diagonal zeroed; checks the ids and the shape, not the values."""
        node_tuple = tuple(nodes)
        if len(set(node_tuple)) != len(node_tuple):
            raise ClassifierError("duplicate nodes in similarity graph")
        size = len(node_tuple)
        if weights.shape != (size, size):
            raise ClassifierError(
                f"weight matrix shape {weights.shape} does not match "
                f"{size} nodes"
            )
        self._nodes = node_tuple
        self._index = {node: position for position, node in enumerate(node_tuple)}
        self._weights = weights
        np.fill_diagonal(self._weights, 0.0)

    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[Profile],
        similarity: PairwiseSimilarity,
        min_edge_weight: float = 0.0,
        sharpening: float = 1.0,
    ) -> "SimilarityGraph":
        """Build the graph with ``PS()`` edge weights.

        Parameters
        ----------
        profiles:
            Pool members; node ids are the profile user ids.
        similarity:
            The pairwise profile similarity (typically a
            :class:`~repro.similarity.profile.ProfileSimilarity` built on
            the pool's own profiles, per Section III-C); its
            ``pairwise_matrix`` supplies every edge weight.  That matrix
            is fresh, exactly symmetric and non-negative (the measures'
            contract), so the graph takes it as it is: no copy, no
            symmetry or sign scan.
        min_edge_weight:
            Weights at or below this value are zeroed, sparsifying the
            graph.
        sharpening:
            Exponent applied to every weight; > 1 amplifies the contrast
            between similar and dissimilar pairs (the role the RBF
            bandwidth plays in Zhu et al.'s Euclidean setting).
        """
        nodes = [profile.user_id for profile in profiles]
        weights = np.asarray(similarity.pairwise_matrix(profiles), dtype=float)
        weights[weights <= min_edge_weight] = 0.0
        if sharpening != 1.0:
            weights = np.power(weights, sharpening)
        graph = cls.__new__(cls)
        graph._adopt(nodes, weights)
        return graph

    @property
    def nodes(self) -> tuple[UserId, ...]:
        """Node ids in canonical order."""
        return self._nodes

    @property
    def weights(self) -> np.ndarray:
        """Read-only view of the symmetric weight matrix."""
        view = self._weights.view()
        view.setflags(write=False)
        return view

    def __len__(self) -> int:
        return len(self._nodes)

    def index_of(self, node: UserId) -> int:
        """Canonical index of ``node``."""
        return self.indices_of((node,))[0]

    def indices_of(self, nodes: Iterable[UserId]) -> list[int]:
        """Canonical indices of ``nodes``, in their order."""
        try:
            return list(map(self._index.__getitem__, nodes))
        except KeyError as error:
            raise ClassifierError(
                f"node {error.args[0]} not in similarity graph"
            ) from None

    def weight(self, a: UserId, b: UserId) -> float:
        """Edge weight between two nodes."""
        return float(self._weights[self.index_of(a), self.index_of(b)])

    def degree_vector(self) -> np.ndarray:
        """Row sums of the weight matrix (the diagonal of ``D``)."""
        return self._weights.sum(axis=1)
