"""Owner-space partitioning: a consistent-hash ring over shard workers.

One HTTP server + one WAL + one scheduler is a single-node
ceiling *and* a single point of failure; scoring millions of owners
needs the owner space partitioned across processes that fail — and
recover — independently.  :class:`ShardMap` is the partition function:
a consistent-hash ring (SHA-1, ``replicas`` virtual nodes per shard)
mapping every owner id to exactly one shard index.

Two properties matter:

* **cross-process determinism** — the ring is built from ``hashlib``
  digests of stable strings, never Python's salted ``hash()``, so the
  router, every shard worker, every test, and every future process agree
  on the owner → shard assignment without coordination;
* **consistency** — when the shard count changes, only the owners whose
  arc of the ring moved are reassigned (≈ ``1/n`` of the owner space),
  instead of rehashing everything the way ``owner % n`` would.

A shard worker is an ordinary ``repro-study serve`` process started with
``--shard-index I --shard-count N``: it builds the same deterministic
cohort, then registers only the owners the map assigns to it — keeping
each owner's **global cohort index**, so the per-owner session seed
(``base_seed + index``) and therefore every served digest is identical
to the unsharded deployment.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Iterable, Sequence

from ..errors import ServiceError
from ..types import UserId

#: Virtual nodes per shard on the ring.  More replicas → smoother owner
#: balance; 64 keeps the worst shard within a few percent of fair share
#: for cohorts in the thousands while the ring stays tiny.
DEFAULT_REPLICAS = 64


def _ring_point(key: str) -> int:
    """A stable 64-bit position on the ring for ``key``.

    SHA-1 via :mod:`hashlib`: unlike builtin ``hash()`` it is identical
    across processes, interpreter versions, and ``PYTHONHASHSEED``.
    """
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


class ShardMap:
    """Deterministic consistent-hash assignment of owners to shards.

    Parameters
    ----------
    num_shards:
        How many shard workers the owner space is split across.
    replicas:
        Virtual nodes per shard on the ring.
    """

    def __init__(
        self, num_shards: int, replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self._num_shards = num_shards
        self._replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(replicas):
                points.append(
                    (_ring_point(f"shard:{shard}:replica:{replica}"), shard)
                )
        points.sort()
        self._ring_points = [point for point, _ in points]
        self._ring_shards = [shard for _, shard in points]

    @property
    def num_shards(self) -> int:
        """How many shards the ring covers."""
        return self._num_shards

    @property
    def replicas(self) -> int:
        """Virtual nodes per shard."""
        return self._replicas

    def shard_of(self, owner_id: UserId) -> int:
        """The shard index owning ``owner_id`` (same in every process)."""
        point = _ring_point(f"owner:{int(owner_id)}")
        index = bisect_right(self._ring_points, point)
        if index == len(self._ring_points):  # wrap past the last node
            index = 0
        return self._ring_shards[index]

    def partition(
        self, owner_ids: Iterable[UserId]
    ) -> dict[int, list[UserId]]:
        """Group ``owner_ids`` by owning shard, preserving input order."""
        groups: dict[int, list[UserId]] = {}
        for owner_id in owner_ids:
            groups.setdefault(self.shard_of(owner_id), []).append(owner_id)
        return groups

    def owners_for_shard(
        self, owner_ids: Sequence[UserId], shard_index: int
    ) -> list[UserId]:
        """The subset of ``owner_ids`` assigned to ``shard_index``."""
        if not 0 <= shard_index < self._num_shards:
            raise ServiceError(
                f"shard_index {shard_index} out of range for "
                f"{self._num_shards} shards"
            )
        return [
            owner_id
            for owner_id in owner_ids
            if self.shard_of(owner_id) == shard_index
        ]

    def resized(self, num_shards: int) -> "ShardMap":
        """A new map with ``num_shards`` shards and the same replicas.

        Because ring points are derived from stable ``shard:I:replica:R``
        strings, growing only *adds* points and shrinking only *removes*
        them — so the set of owners whose assignment changes between
        ``self`` and ``self.resized(n)`` is exactly the consistent-hash
        delta (≈ ``|n - num_shards| / max(n, num_shards)`` of the space).
        """
        return ShardMap(num_shards, replicas=self._replicas)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready description for ``/shards`` and metrics."""
        return {
            "num_shards": self._num_shards,
            "replicas": self._replicas,
            "algorithm": "consistent-hash/sha1",
        }


def moved_owners(
    old_map: ShardMap,
    new_map: ShardMap,
    owner_ids: Iterable[UserId],
) -> dict[tuple[int, int], list[UserId]]:
    """The exact set of owners a resize moves, grouped by migration edge.

    Returns ``{(source_shard, destination_shard): [owner_id, ...]}`` for
    every owner whose assignment differs between ``old_map`` and
    ``new_map``, preserving input order within each group.  Owners whose
    shard is unchanged do not appear — they must see zero disruption
    during a rebalance, and the migration plan is built solely from this
    delta.
    """
    if old_map.replicas != new_map.replicas:
        raise ServiceError(
            "cannot compute a ring delta across replica counts: "
            f"{old_map.replicas} != {new_map.replicas}"
        )
    moves: dict[tuple[int, int], list[UserId]] = {}
    for owner_id in owner_ids:
        source = old_map.shard_of(owner_id)
        destination = new_map.shard_of(owner_id)
        if source != destination:
            moves.setdefault((source, destination), []).append(owner_id)
    return moves


__all__ = ["DEFAULT_REPLICAS", "ShardMap", "moved_owners"]
