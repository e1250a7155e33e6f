"""The undirected friendship graph with attached profiles.

:class:`SocialGraph` is the substrate every other package builds on.  It is
a thin, fast adjacency-set structure with no graph-library dependency: the
pipeline's hot loops (mutual-friend queries during pool construction, 2-hop
expansion per owner) only need set intersections, and keeping storage
explicit makes serialization and property-based testing straightforward.
Batched kernels read a cached :class:`AdjacencyIndex`, plain int64 CSR
arrays over the same adjacency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import GraphError, UnknownUserError
from ..types import UserId
from .profile import Profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class AdjacencyIndex:
    """An immutable CSR snapshot of a graph's adjacency.

    The index fixes a canonical node order (graph insertion order) and
    holds the adjacency as two int64 arrays: the neighbors of the node at
    position ``p`` are ``indices[indptr[p]:indptr[p + 1]]``, sorted.
    Snapshots never track the live graph: :meth:`SocialGraph.adjacency_index`
    hands out a cached instance and drops it on any mutation, so a stale
    snapshot can only be reached through a reference taken before the
    mutation.
    """

    __slots__ = ("_nodes", "_positions", "_indptr", "_indices")

    def __init__(self, adjacency: dict[UserId, set[UserId]]) -> None:
        import numpy as np

        nodes = tuple(adjacency)
        positions = {user_id: pos for pos, user_id in enumerate(nodes)}
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        rows: list[np.ndarray] = []
        for position, user_id in enumerate(nodes):
            neighbor_positions = np.sort(
                np.fromiter(
                    (positions[n] for n in adjacency[user_id]),
                    dtype=np.int64,
                    count=len(adjacency[user_id]),
                )
            )
            rows.append(neighbor_positions)
            indptr[position + 1] = indptr[position] + len(neighbor_positions)
        self._nodes = nodes
        self._positions = positions
        self._indptr = indptr
        self._indices = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        )

    @property
    def nodes(self) -> tuple[UserId, ...]:
        """User ids in canonical (insertion) order."""
        return self._nodes

    @property
    def indptr(self) -> "np.ndarray":
        """Row offsets into :attr:`indices` (int64, ``len(nodes) + 1``)."""
        return self._indptr

    @property
    def indices(self) -> "np.ndarray":
        """Neighbor positions of every row, concatenated (int64)."""
        return self._indices

    def position_of(self, user_id: UserId) -> int:
        """Canonical row/column of ``user_id``; raises on unknown ids."""
        try:
            return self._positions[user_id]
        except KeyError:
            raise UnknownUserError(user_id) from None

    def positions_of(self, user_ids: Iterable[UserId]) -> "np.ndarray":
        """Canonical positions for many ids at once (int64 array)."""
        import numpy as np

        ids = list(user_ids)
        return np.fromiter(
            (self.position_of(user_id) for user_id in ids),
            dtype=np.int64,
            count=len(ids),
        )

    def neighbor_positions(self, user_id: UserId) -> "np.ndarray":
        """Positions of ``user_id``'s neighbors (sorted int64 array)."""
        position = self.position_of(user_id)
        return self._indices[self._indptr[position] : self._indptr[position + 1]]


class SocialGraph:
    """An undirected social graph whose nodes carry :class:`Profile` data.

    Users must be added before edges referencing them; self-friendships are
    rejected.  All mutating operations keep the adjacency symmetric, which
    the test suite verifies property-based.
    """

    def __init__(self) -> None:
        self._adjacency: dict[UserId, set[UserId]] = {}
        self._profiles: dict[UserId, Profile] = {}
        self._edge_count = 0
        self._adjacency_index: AdjacencyIndex | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_user(self, profile: Profile) -> None:
        """Register a user.  Re-adding an id replaces its profile only."""
        user_id = profile.user_id
        if user_id not in self._adjacency:
            self._adjacency[user_id] = set()
            self._adjacency_index = None
        self._profiles[user_id] = profile

    def add_friendship(self, a: UserId, b: UserId) -> None:
        """Create the undirected edge ``{a, b}``.

        Raises
        ------
        GraphError
            If ``a == b`` (self-friendships are meaningless in OSNs).
        UnknownUserError
            If either endpoint was never added.
        """
        if a == b:
            raise GraphError(f"self-friendship rejected for user {a}")
        self._require_user(a)
        self._require_user(b)
        if b not in self._adjacency[a]:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
            self._edge_count += 1
            self._adjacency_index = None

    def remove_friendship(self, a: UserId, b: UserId) -> None:
        """Remove the edge ``{a, b}`` if present (no-op otherwise)."""
        self._require_user(a)
        self._require_user(b)
        if b in self._adjacency[a]:
            self._adjacency[a].discard(b)
            self._adjacency[b].discard(a)
            self._edge_count -= 1
            self._adjacency_index = None

    @classmethod
    def from_edges(
        cls,
        profiles: Iterable[Profile],
        edges: Iterable[tuple[UserId, UserId]],
    ) -> "SocialGraph":
        """Build a graph from a profile iterable and an edge iterable."""
        graph = cls()
        for profile in profiles:
            graph.add_user(profile)
        for a, b in edges:
            graph.add_friendship(a, b)
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, user_id: UserId) -> bool:
        return user_id in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def users(self) -> Iterator[UserId]:
        """Iterate over every user id."""
        return iter(self._adjacency)

    @property
    def num_users(self) -> int:
        """Number of registered users."""
        return len(self._adjacency)

    @property
    def num_friendships(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def profile(self, user_id: UserId) -> Profile:
        """Profile of ``user_id``; raises :class:`UnknownUserError`."""
        self._require_user(user_id)
        return self._profiles[user_id]

    def profiles(self, user_ids: Iterable[UserId]) -> list[Profile]:
        """Profiles of the given users, preserving order."""
        return [self.profile(user_id) for user_id in user_ids]

    def friends(self, user_id: UserId) -> frozenset[UserId]:
        """The friend set of ``user_id`` as an immutable snapshot."""
        self._require_user(user_id)
        return frozenset(self._adjacency[user_id])

    def degree(self, user_id: UserId) -> int:
        """Number of friends of ``user_id``."""
        self._require_user(user_id)
        return len(self._adjacency[user_id])

    def are_friends(self, a: UserId, b: UserId) -> bool:
        """Whether the edge ``{a, b}`` exists."""
        self._require_user(a)
        self._require_user(b)
        return b in self._adjacency[a]

    def mutual_friends(self, a: UserId, b: UserId) -> frozenset[UserId]:
        """Users friends with both ``a`` and ``b``.

        Mutual friends are the backbone of the network similarity measure:
        both their count and the edges among them matter (Section III-B).
        """
        self._require_user(a)
        self._require_user(b)
        smaller, larger = sorted(
            (self._adjacency[a], self._adjacency[b]), key=len
        )
        return frozenset(smaller & larger)

    def two_hop_neighbors(self, user_id: UserId) -> frozenset[UserId]:
        """Users at graph distance exactly 2 from ``user_id``.

        These are the paper's *strangers*: contacts of friends who are not
        themselves friends (and not the user).
        """
        self._require_user(user_id)
        direct = self._adjacency[user_id]
        second: set[UserId] = set()
        for friend in direct:
            second.update(self._adjacency[friend])
        second.discard(user_id)
        second -= direct
        return frozenset(second)

    def distance(self, a: UserId, b: UserId, cutoff: int = 4) -> int | None:
        """Shortest-path distance between ``a`` and ``b`` up to ``cutoff``.

        Returns ``None`` when the distance exceeds ``cutoff`` (or the users
        are disconnected).  BFS with a cutoff keeps visibility resolution
        cheap — the pipeline only ever needs distances 0..2.
        """
        self._require_user(a)
        self._require_user(b)
        if a == b:
            return 0
        frontier = {a}
        seen = {a}
        for depth in range(1, cutoff + 1):
            next_frontier: set[UserId] = set()
            for node in frontier:
                next_frontier.update(self._adjacency[node])
            next_frontier -= seen
            if b in next_frontier:
                return depth
            if not next_frontier:
                return None
            seen.update(next_frontier)
            frontier = next_frontier
        return None

    def adjacency_index(self) -> AdjacencyIndex:
        """The cached CSR adjacency snapshot (built lazily).

        The batched scoring core (``NetworkSimilarity.for_strangers``)
        works off this index instead of per-stranger set arithmetic.  The
        cache is dropped on every mutation (``add_user`` registering a new
        id, ``add_friendship``, ``remove_friendship``), so a fresh call
        after a mutation always reflects the current graph.
        """
        if self._adjacency_index is None:
            self._adjacency_index = AdjacencyIndex(self._adjacency)
        return self._adjacency_index

    def edges(self) -> Iterator[tuple[UserId, UserId]]:
        """Iterate over undirected edges once each, as ``(min, max)``."""
        for user_id, neighbors in self._adjacency.items():
            for neighbor in neighbors:
                if user_id < neighbor:
                    yield (user_id, neighbor)

    def edges_within(self, nodes: Iterable[UserId]) -> int:
        """Count edges of the subgraph induced by ``nodes``."""
        node_set = set(nodes)
        count = 0
        for node in node_set:
            self._require_user(node)
            count += len(self._adjacency[node] & node_set)
        return count // 2

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_user(self, user_id: UserId) -> None:
        if user_id not in self._adjacency:
            raise UnknownUserError(user_id)
