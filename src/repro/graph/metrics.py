"""Structural helpers over :class:`~repro.graph.social_graph.SocialGraph`.

These are the small graph-theoretic quantities the similarity measures and
the experiment analysis need: induced-subgraph densities (the *cohesion* of
a stranger's mutual-friend community), connected components within a node
subset, and degree statistics for dataset characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..types import UserId
from .social_graph import SocialGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def edge_count_within(graph: SocialGraph, nodes: Iterable[UserId]) -> int:
    """Number of edges in the subgraph induced by ``nodes``."""
    return graph.edges_within(nodes)


def ns_dirty_after_edge_toggle(
    graph: SocialGraph, owner: UserId, a: UserId, b: UserId
) -> frozenset[UserId] | None:
    """Strangers whose ``NS(owner, s)`` the edge toggle ``{a, b}`` moved.

    ``NS(o, s)`` is a function of the mutual-friend set
    ``M = N(o) ∩ N(s)`` and the edges within ``M`` (count factor and
    cohesion factor, :mod:`repro.similarity.network`).  Toggling the
    single edge ``{a, b}`` changes exactly two adjacency rows — ``N(a)``
    gains/loses ``b`` and ``N(b)`` gains/loses ``a`` — so for an owner
    ``o ∉ {a, b}``:

    * ``M(o, s)`` changes only for ``s ∈ {a, b}`` (``N(o)`` and every
      other ``N(s)`` row are untouched);
    * the edge ``{a, b}`` is counted inside ``M(o, s)`` only when both
      endpoints are mutual friends of ``o`` and ``s`` — i.e. when both
      are friends of the owner *and* ``s ∈ N(a) ∩ N(b)``;
    * 2-hop stranger-set membership changes only for ``a`` or ``b``
      (2-hop reach of ``o`` grows/shrinks through its unchanged friend
      rows by at most the far endpoint).

    Hence the exact dirty set is ``{a, b}``, plus ``N(a) ∩ N(b)`` when
    both endpoints are friends of the owner.  (``N(a) ∩ N(b)`` itself is
    invariant under toggling ``{a, b}`` — neither endpoint is its own
    neighbor — so the set is the same computed before or after the
    mutation.)  Returns ``None`` when the owner *is* an endpoint: their
    friend row changed, every stranger's mutual set is suspect, and the
    caller must fall back to a full recompute.
    """
    if owner == a or owner == b:
        return None
    dirty = {a, b}
    friends = graph.friends(owner)
    if a in friends and b in friends:
        dirty |= graph.mutual_friends(a, b)
    return frozenset(dirty)


def induced_density(graph: SocialGraph, nodes: Iterable[UserId]) -> float:
    """Edge density of the subgraph induced by ``nodes``.

    Density is ``edges / possible_edges``; subsets of size < 2 have density
    0 by convention (a lone mutual friend provides no cohesion signal).
    """
    node_list = list(set(nodes))
    size = len(node_list)
    if size < 2:
        return 0.0
    possible = size * (size - 1) / 2
    return edge_count_within(graph, node_list) / possible


def induced_components(
    graph: SocialGraph, nodes: Iterable[UserId]
) -> list[frozenset[UserId]]:
    """Connected components of the subgraph induced by ``nodes``.

    Used to characterize how a stranger's mutual friends cluster around the
    owner — a single large component signals one dense community, many
    singletons signal scattered acquaintances.
    """
    remaining = set(nodes)
    components: list[frozenset[UserId]] = []
    while remaining:
        seed = next(iter(remaining))
        component = {seed}
        frontier = {seed}
        while frontier:
            next_frontier: set[UserId] = set()
            for node in frontier:
                next_frontier.update(graph.friends(node) & remaining)
            next_frontier -= component
            component.update(next_frontier)
            frontier = next_frontier
        components.append(frozenset(component))
        remaining -= component
    components.sort(key=len, reverse=True)
    return components


def batched_mutual_stats(
    graph: SocialGraph, owner: UserId, others: Sequence[UserId]
) -> tuple["np.ndarray", "np.ndarray"]:
    """Mutual-friend counts and mutual-subgraph edge counts, batched.

    For every user ``s`` in ``others`` this returns (aligned int64 arrays)

    * ``counts[i] = |N(owner) ∩ N(s)|`` — the mutual-friend count, and
    * ``edges[i]`` — the number of edges of the subgraph induced by those
      mutual friends (the cohesion numerator of ``NS()``).

    Both come from the graph's cached CSR adjacency index through a
    bitset kernel over the owner's friend set.  One pass over the
    friends' CSR rows scatters ``N(f) ∩ ·`` bits into a per-node mask
    table, after which every quantity is bit arithmetic: the
    mutual-friend count of stranger ``s`` is a ``bincount`` of the
    scattered entries, a friend row of the table *is* the friend-subgraph
    adjacency row, and the induced edge count is the popcount of
    ``mask[f] & mask[s]`` summed over the stranger's mutual friends — no
    per-stranger set objects anywhere.  The table is built
    ``_BLOCK_WORDS`` friend words at a time; popcounts add up across
    blocks, so the results are exactly the integers
    :meth:`SocialGraph.mutual_friends` and :meth:`SocialGraph.edges_within`
    would produce.

    Raises :class:`~repro.errors.UnknownUserError` for ids not in the
    graph.
    """
    import numpy as np

    index = graph.adjacency_index()
    other_positions = index.positions_of(others)
    friend_positions = index.neighbor_positions(owner)
    if len(friend_positions) == 0 or len(other_positions) == 0:
        zeros = np.zeros(len(other_positions), dtype=np.int64)
        return zeros, zeros.copy()
    indptr, indices = index.indptr, index.indices
    num_nodes = len(indptr) - 1
    num_friends = len(friend_positions)

    starts = indptr[friend_positions]
    lengths = indptr[friend_positions + 1] - starts
    # bounds[k] is where friend slot k's entries begin in the flat lists
    bounds = np.zeros(num_friends + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    flat = (
        np.arange(bounds[-1], dtype=np.int64)
        - np.repeat(bounds[:-1], lengths)
        + np.repeat(starts, lengths)
    )
    neighbors = indices[flat]
    friend_slot = np.repeat(np.arange(num_friends, dtype=np.uint64), lengths)

    counts = np.bincount(neighbors, minlength=num_nodes)[other_positions]

    # Each scattered entry is one (mutual friend f, node v) incidence;
    # keeping only entries whose target v is a queried stranger yields
    # exactly the (f ∈ M_s, s) pairs.  popcount(masks[f] & masks[s])
    # counts f's neighbors inside M_s, and summing it per stranger
    # double-counts the induced edges.
    is_target = np.zeros(num_nodes, dtype=bool)
    is_target[other_positions] = True
    is_pair = is_target[neighbors]
    pair_friends = friend_positions[friend_slot[is_pair].astype(np.int64)]
    pair_others = neighbors[is_pair]
    pair_counts = np.zeros(len(pair_others), dtype=np.int64)
    block_bits = 64 * _BLOCK_WORDS
    for first in range(0, num_friends, block_bits):
        last = min(first + block_bits, num_friends)
        # masks[v, w] holds bits of N(v) ∩ friends[first:last] for every
        # node v; friend slots are sorted, so the block's entries are one
        # contiguous slice
        lo, hi = bounds[first], bounds[last]
        slot = friend_slot[lo:hi] - np.uint64(first)
        words = (last - first + 63) // 64
        masks = np.zeros((num_nodes, words), dtype=np.uint64)
        np.bitwise_or.at(
            masks,
            (neighbors[lo:hi], (slot >> np.uint64(6)).astype(np.int64)),
            np.uint64(1) << (slot & np.uint64(63)),
        )
        pair_masks = masks[pair_friends] & masks[pair_others]
        pair_counts += _popcount(pair_masks).sum(axis=1)
    doubled = np.bincount(
        pair_others, weights=pair_counts, minlength=num_nodes
    )[other_positions]
    return counts.astype(np.int64), doubled.astype(np.int64) // 2


#: Friend words (64 friends each) per block of the mask table.  A block
#: holds one row per node and one per (mutual friend, stranger) pair,
#: each this many uint64 words wide, so the tables do not widen with the
#: friend count; an owner with up to 1,024 friends takes one block.
_BLOCK_WORDS = 16


def _popcount(array: "np.ndarray") -> "np.ndarray":
    """Per-element population count of a uint64 array."""
    import numpy as np

    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(array).astype(np.int64)
    table = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)
    as_bytes = array.view(np.uint8).reshape(array.shape + (8,))
    return table[as_bytes].sum(axis=-1)


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's degree distribution."""

    num_users: int
    num_friendships: int
    min_degree: int
    max_degree: int
    mean_degree: float

    @property
    def density(self) -> float:
        """Global edge density of the graph."""
        if self.num_users < 2:
            return 0.0
        possible = self.num_users * (self.num_users - 1) / 2
        return self.num_friendships / possible


def degree_statistics(graph: SocialGraph) -> DegreeStatistics:
    """Compute :class:`DegreeStatistics` for ``graph``.

    An empty graph yields all-zero statistics rather than raising, so
    dataset reports stay total.
    """
    degrees = [graph.degree(user) for user in graph.users()]
    if not degrees:
        return DegreeStatistics(0, 0, 0, 0, 0.0)
    return DegreeStatistics(
        num_users=graph.num_users,
        num_friendships=graph.num_friendships,
        min_degree=min(degrees),
        max_degree=max(degrees),
        mean_degree=sum(degrees) / len(degrees),
    )
