"""Dirty-set deltas: what one store mutation actually staled.

Every :class:`~repro.service.store.OwnerStore` mutation bumps the
affected owners' versions — that is the *invalidation* signal the engine
keys its memo on.  But a version bump alone forces the warm path to
treat the whole universe as suspect.  The dirty-set layer records,
alongside each bump, *which strangers the mutation could actually have
touched*:

* ``ns`` — strangers whose network similarity ``NS(o, s)`` may have
  changed (derived exactly from the toggled edge's adjacency rows, see
  :func:`repro.graph.metrics.ns_dirty_after_edge_toggle`);
* ``profiles`` — users whose profile changed (benefit vectors, Squeezer
  attributes, and classifier edge weights may shift for pools containing
  them);
* ``full`` — the conservative everything-changed flag, used for manual
  ``touch`` bumps and for mutations where the owner is an edge endpoint
  (their whole ego view moves).

Deltas are kept in a bounded per-owner :class:`DirtyLog`, one entry per
version.  The engine asks for the merged delta covering the gap between
its cached pipeline state and the current version; a gap the log no
longer covers (evicted, or an entry that predates the log — e.g. a
migrated owner) answers ``None``, which callers must treat as *full*.
A delta is always a conservative superset: listing an untouched stranger
costs a little recomputation, omitting a touched one would break the
byte-identical equivalence gate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from ..types import UserId

#: Default per-owner bound on retained deltas.  A pipeline state that
#: lags more than this many versions behind pays one full recompute —
#: at which point it is caught up, so the bound only matters for owners
#: mutated heavily between scores.
DEFAULT_DIRTY_LOG_LIMIT = 128


@dataclass(frozen=True)
class DirtyDelta:
    """What one version bump may have changed for one owner."""

    ns: frozenset[UserId] = frozenset()
    profiles: frozenset[UserId] = frozenset()
    full: bool = False

    def stales_ns(self, user: UserId) -> bool:
        """Whether ``NS(o, user)`` may have changed."""
        return self.full or user in self.ns

    def stales_profile(self, user: UserId) -> bool:
        """Whether ``user``'s profile may have changed."""
        return self.full or user in self.profiles

    def merge(self, other: "DirtyDelta") -> "DirtyDelta":
        """The union of two deltas (``full`` dominates)."""
        if self.full or other.full:
            return FULL_DELTA
        return DirtyDelta(
            ns=self.ns | other.ns,
            profiles=self.profiles | other.profiles,
        )

    @staticmethod
    def union(deltas: Iterable["DirtyDelta"]) -> "DirtyDelta":
        """Merge any number of deltas."""
        merged = EMPTY_DELTA
        for delta in deltas:
            merged = merged.merge(delta)
            if merged.full:
                return merged
        return merged

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view (diagnostics)."""
        return {
            "full": self.full,
            "ns": sorted(self.ns),
            "profiles": sorted(self.profiles),
        }


#: The no-op delta (``add_user`` of an edgeless user: nothing an owner
#: can currently see changed).
EMPTY_DELTA = DirtyDelta()

#: The everything-changed delta.
FULL_DELTA = DirtyDelta(full=True)


@dataclass
class DirtyLog:
    """Bounded per-owner history of ``version -> DirtyDelta``.

    Versions are recorded contiguously (every bump appends exactly one
    entry), so coverage of a range is a pure length check.  Not
    thread-safe on its own — the owning store's lock serializes access.
    """

    limit: int = DEFAULT_DIRTY_LOG_LIMIT
    _entries: deque = field(default_factory=deque, repr=False)

    def record(self, version: int, delta: DirtyDelta) -> None:
        """Append the delta that produced ``version``."""
        self._entries.append((version, delta))
        while len(self._entries) > self.limit:
            self._entries.popleft()

    def between(self, since: int, current: int) -> DirtyDelta | None:
        """Merged delta covering ``(since, current]``, or ``None``.

        ``None`` means the log cannot vouch for the whole range — some
        bump's delta was evicted or never recorded (an attached
        migrated entry starts with an empty log) — and the caller must
        fall back to a full recompute.
        """
        if current == since:
            return EMPTY_DELTA
        if current < since:
            return None
        relevant = [
            delta for version, delta in self._entries if since < version <= current
        ]
        if len(relevant) != current - since:
            return None
        return DirtyDelta.union(relevant)

    def clear(self) -> None:
        """Forget everything (wholesale graph replacement)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


__all__ = [
    "DEFAULT_DIRTY_LOG_LIMIT",
    "DirtyDelta",
    "DirtyLog",
    "EMPTY_DELTA",
    "FULL_DELTA",
]
