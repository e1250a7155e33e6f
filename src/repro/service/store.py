"""Versioned owner registry backing the risk-scoring service.

The batch harness (:func:`repro.experiments.run_study`) treats the graph
as a frozen snapshot; a serving deployment cannot — friendships arrive,
profiles change, new strangers appear while scores are being consumed.
:class:`OwnerStore` is the mutation boundary that makes this safe: every
graph or profile delta goes through the store, which maps the touched
users to the owners whose 2-hop world they belong to and bumps those
owners' *graph versions*.  The engine keys its caches on
``(owner, version)``, so a bump is exactly a cache invalidation — and
only for the affected owners.

Ego networks in a generated cohort are disjoint, so each user starts out
in exactly one owner's universe; edges added later may join universes,
and the store widens membership accordingly (an endpoint of a new edge
becomes 2-hop-visible to the other endpoint's owners).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from typing import Mapping

from ..errors import UnknownOwnerError
from ..graph.metrics import ns_dirty_after_edge_toggle
from ..graph.profile import Profile
from ..graph.social_graph import SocialGraph
from ..synth.owners import SimulatedOwner
from ..synth.population import StudyPopulation
from ..types import RiskLabel, UserId
from .dirty import EMPTY_DELTA, FULL_DELTA, DirtyDelta, DirtyLog


@dataclass
class OwnerEntry:
    """One registered owner: identity, cohort position, and freshness.

    ``index`` is the owner's position in the registration order; it
    drives the per-owner session seed (``base_seed + index``), mirroring
    :func:`repro.experiments.run_study`'s enumeration so served scores
    reproduce the batch study.  ``version`` counts the deltas that have
    touched this owner's universe since registration; ``dirty`` records
    *what* each of those bumps could have changed (bounded, see
    :class:`~repro.service.dirty.DirtyLog`).
    """

    owner: SimulatedOwner
    index: int
    version: int = 0
    universe: set[UserId] = field(default_factory=set)
    labels: dict[UserId, RiskLabel] = field(default_factory=dict)
    dirty: DirtyLog = field(default_factory=DirtyLog)


class OwnerStore:
    """Thread-safe registry of owners over one shared social graph.

    All mutations of the underlying graph must go through the store so
    that owner versions stay truthful.  Reads of the graph itself are
    lock-free (scoring holds no store lock while it computes).
    """

    def __init__(self, graph: SocialGraph) -> None:
        self._graph = graph
        self._entries: dict[UserId, OwnerEntry] = {}
        self._user_owners: dict[UserId, set[UserId]] = {}
        self._lock = threading.RLock()
        self._mutation_listeners: list = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_population(
        cls,
        population: StudyPopulation,
        shard_map=None,
        shard_index: int | None = None,
    ) -> "OwnerStore":
        """Register every owner of a generated cohort.

        Each owner's universe is seeded from the generator's handle:
        the owner, their friends, and their strangers.

        With ``shard_map``/``shard_index`` (a
        :class:`~repro.service.sharding.ShardMap` and this worker's shard
        number) only the owners the map assigns to this shard are
        registered — but each keeps its **global** cohort index, so the
        per-owner session seed (``base_seed + index``) and every served
        digest match the unsharded deployment exactly.
        """
        store = cls(population.graph)
        store._register_cohort(population, shard_map, shard_index)
        return store

    def _register_cohort(self, population, shard_map, shard_index) -> None:
        # the base register, so a durable store seeds itself unlogged
        if (shard_map is None) != (shard_index is None):
            raise ValueError(
                "shard_map and shard_index must be given together"
            )
        for global_index, owner in enumerate(population.owners):
            if (
                shard_map is not None
                and shard_map.shard_of(owner.user_id) != shard_index
            ):
                continue
            handle = population.handles[owner.user_id]
            universe = {owner.user_id, *handle.friends, *handle.strangers}
            OwnerStore.register(
                self, owner, universe=universe, index=global_index
            )

    def register(
        self,
        owner: SimulatedOwner,
        universe: set[UserId] | frozenset[UserId] | None = None,
        index: int | None = None,
    ) -> OwnerEntry:
        """Register one owner.

        ``index`` is the owner's cohort position, which derives the
        per-owner session seed; it defaults to the registration order.
        Sharded stores pass the owner's *global* cohort index explicitly
        so a shard's scores match the unsharded deployment.
        """
        with self._lock:
            entry = OwnerEntry(
                owner=owner,
                index=len(self._entries) if index is None else int(index),
                universe=set(universe or {owner.user_id}),
            )
            self._entries[owner.user_id] = entry
            for user in entry.universe:
                self._user_owners.setdefault(user, set()).add(owner.user_id)
            return entry

    # ------------------------------------------------------------------
    # migration (live rebalancing moves whole entries between shards)
    # ------------------------------------------------------------------
    def attach_entry(self, entry: OwnerEntry) -> OwnerEntry:
        """Adopt a fully-formed entry migrated from another shard.

        Unlike :meth:`register`, nothing is derived here: the entry's
        cohort ``index``, ``version``, ``universe``, ``labels``, and the
        owner's accumulated ground truth arrive exactly as they were on
        the source shard, so the per-owner session seed and every digest
        survive the move.  Idempotent: re-attaching an owner replaces the
        previous entry (migration replays must converge, not error).
        """
        with self._lock:
            self._detach_locked(entry.owner.user_id)
            self._entries[entry.owner.user_id] = entry
            for user in entry.universe:
                self._user_owners.setdefault(user, set()).add(
                    entry.owner.user_id
                )
            return entry

    def detach_owner(self, owner_id: UserId) -> bool:
        """Drop one owner's entry (it now lives on another shard).

        Returns whether the owner was present — a no-op ``False`` rather
        than an error when absent, again so migration replays converge.
        The shared graph is untouched: every shard keeps the full graph,
        only ownership moves.
        """
        with self._lock:
            return self._detach_locked(owner_id)

    def _detach_locked(self, owner_id: UserId) -> bool:
        entry = self._entries.pop(owner_id, None)
        if entry is None:
            return False
        for user in entry.universe:
            owners = self._user_owners.get(user)
            if owners is not None:
                owners.discard(owner_id)
                if not owners:
                    del self._user_owners[user]
        return True

    def replace_graph(self, graph: SocialGraph) -> None:
        """Swap in a replacement graph (migration graph adoption).

        A shard joining mid-life booted from the seed cohort and missed
        every broadcast mutation since; importing a slice hands it the
        source's current graph wholesale.  Callers must ensure no entry's
        universe refers to users absent from ``graph``.

        Every owner's dirty log is cleared: deltas recorded against the
        old graph say nothing about the new one, and an empty log makes
        ``dirty_between`` answer ``None`` (full-recompute fallback).
        """
        with self._lock:
            self._graph = graph
            for entry in self._entries.values():
                entry.dirty.clear()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SocialGraph:
        """The shared social graph (mutate only via the store)."""
        return self._graph

    def owner_ids(self) -> tuple[UserId, ...]:
        """Registered owner ids in registration order."""
        with self._lock:
            return tuple(self._entries)

    def get(self, owner_id: UserId) -> OwnerEntry:
        """The entry for ``owner_id``; raises :class:`UnknownOwnerError`."""
        with self._lock:
            try:
                return self._entries[owner_id]
            except KeyError:
                raise UnknownOwnerError(owner_id) from None

    def version(self, owner_id: UserId) -> int:
        """Current graph version of one owner."""
        return self.get(owner_id).version

    def owners_of(self, user_id: UserId) -> frozenset[UserId]:
        """Owners whose universe contains ``user_id``."""
        with self._lock:
            return frozenset(self._user_owners.get(user_id, ()))

    # ------------------------------------------------------------------
    # mutations (each bumps the affected owners' versions)
    # ------------------------------------------------------------------
    def add_user(self, profile: Profile, owner_id: UserId) -> None:
        """Add a new user to the graph, inside one owner's universe.

        The dirty delta is profile-only: an edgeless user is nobody's
        2-hop contact yet, so no stranger's ``NS`` moved.
        """
        with self._lock:
            entry = self.get(owner_id)
            self._graph.add_user(profile)
            entry.universe.add(profile.user_id)
            self._user_owners.setdefault(profile.user_id, set()).add(owner_id)
            delta = DirtyDelta(profiles=frozenset({profile.user_id}))
            self._bump(frozenset({owner_id}), lambda _: delta)
        self._notify(frozenset({owner_id}))

    def update_profile(self, profile: Profile) -> frozenset[UserId]:
        """Replace a user's profile; returns the owners invalidated.

        Profile edits never move ``NS`` (a structural measure), so the
        dirty delta marks only the user's profile: benefits, Squeezer
        clusters, and classifier edge weights of pools containing the
        user are what a warm re-score must refresh.
        """
        with self._lock:
            self._graph.add_user(profile)
            delta = DirtyDelta(profiles=frozenset({profile.user_id}))
            affected = self._bump(
                self.owners_of(profile.user_id), lambda _: delta
            )
        self._notify(affected)
        return affected

    def add_friendship(self, a: UserId, b: UserId) -> frozenset[UserId]:
        """Create the edge ``{a, b}``; returns the owners invalidated.

        Both endpoints join the universe of every affected owner: a new
        edge can pull the far endpoint into 2-hop view.  Every user the
        edge newly pulls into an affected owner's 2-hop world — which on
        a cross-ego edge includes the far endpoint's whole friend list —
        gets a lazily derived ground-truth judgment
        (:meth:`~repro.synth.owners.SimulatedOwner.judge_new_stranger`),
        so the next warm re-score's oracle has an answer instead of
        erroring.  The judgments are per-pair seeded, hence identical
        across shard topologies and WAL replays.

        Each affected owner's dirty delta is the exact NS perturbation
        of the toggled edge
        (:func:`~repro.graph.metrics.ns_dirty_after_edge_toggle`);
        owners who are themselves an endpoint get a full delta.
        """
        with self._lock:
            affected = self.owners_of(a) | self.owners_of(b)
            self._graph.add_friendship(a, b)
            for owner_id in affected:
                entry = self._entries[owner_id]
                for user in (a, b):
                    if user not in entry.universe:
                        entry.universe.add(user)
                        self._user_owners.setdefault(user, set()).add(owner_id)
                self._extend_ground_truth(entry)
            self._bump(affected, self._edge_delta(a, b))
        self._notify(affected)
        return affected

    def _extend_ground_truth(self, entry: OwnerEntry) -> None:
        """Judge (and adopt) strangers newly visible to one owner.

        Sorted iteration keeps the extension order deterministic; the
        judgments themselves are order-free (seeded per pair), so this
        only matters for reproducible ground-truth dict layouts.
        """
        owner = entry.owner
        newly_visible = (
            self._graph.two_hop_neighbors(owner.user_id)
            - owner.ground_truth.keys()
        )
        for stranger in sorted(newly_visible):
            owner.judge_new_stranger(self._graph, stranger)
            if stranger not in entry.universe:
                entry.universe.add(stranger)
                self._user_owners.setdefault(stranger, set()).add(
                    owner.user_id
                )

    def remove_friendship(self, a: UserId, b: UserId) -> frozenset[UserId]:
        """Remove the edge ``{a, b}``; returns the owners invalidated.

        Dirty accounting mirrors :meth:`add_friendship`: the exact NS
        perturbation of the toggled edge (``N(a) ∩ N(b)`` is invariant
        under the toggle, so deriving it after the removal is identical
        to before).
        """
        with self._lock:
            self._graph.remove_friendship(a, b)
            affected = self._bump(
                self.owners_of(a) | self.owners_of(b),
                self._edge_delta(a, b),
            )
        self._notify(affected)
        return affected

    def grant_labels(
        self, owner_id: UserId, labels: Mapping[UserId, int]
    ) -> int:
        """Record oracle-granted owner labels; returns how many were new.

        Labels are the scarcest resource in the paper's loop (3 per
        round), so the store keeps every grant.  Granting does *not*
        bump the owner's version — labels never stale a score, they are
        a by-product of computing one.
        """
        with self._lock:
            entry = self.get(owner_id)
            new = 0
            for stranger, label in sorted(labels.items()):
                value = RiskLabel(int(label))
                if entry.labels.get(int(stranger)) != value:
                    entry.labels[int(stranger)] = value
                    new += 1
            return new

    def touch(self, owner_id: UserId) -> int:
        """Manually invalidate one owner; returns the new version.

        A manual bump carries no delta information, so its dirty entry
        is *full* — the next warm re-score revalidates everything (and
        still reuses any pool whose recomputed inputs come out equal).
        """
        with self._lock:
            entry = self.get(owner_id)
            self._bump(frozenset({owner_id}), lambda _: FULL_DELTA)
            version = entry.version
        self._notify(frozenset({owner_id}))
        return version

    # ------------------------------------------------------------------
    # dirty-set / mutation-listener plumbing
    # ------------------------------------------------------------------
    def dirty_between(
        self, owner_id: UserId, since_version: int
    ) -> DirtyDelta | None:
        """Merged dirty delta covering ``(since_version, current]``.

        ``None`` means the owner's log cannot vouch for the whole range
        (evicted entries, or an entry that predates the log — e.g. a
        freshly migrated owner): the caller must treat the gap as full.
        Raises :class:`UnknownOwnerError` for unknown owners.
        """
        with self._lock:
            entry = self.get(owner_id)
            return entry.dirty.between(since_version, entry.version)

    def add_mutation_listener(self, listener) -> None:
        """Register ``listener(owner_ids)`` to run after each mutation.

        Listeners fire outside the store lock, on the mutating thread,
        with the frozenset of invalidated owners — the hook the
        background refresh scheduler uses to enqueue rescoring work.
        Listeners must not raise; exceptions are swallowed so a broken
        observer can never fail a mutation that already happened.
        """
        with self._lock:
            self._mutation_listeners.append(listener)

    def _notify(self, owner_ids: frozenset[UserId]) -> None:
        if not owner_ids:
            return
        for listener in list(self._mutation_listeners):
            try:
                listener(owner_ids)
            except Exception:  # pragma: no cover - defensive
                pass

    def _edge_delta(self, a: UserId, b: UserId):
        """Per-owner delta factory for an edge toggle (lock held)."""

        def derive(owner_id: UserId) -> DirtyDelta:
            dirty = ns_dirty_after_edge_toggle(self._graph, owner_id, a, b)
            if dirty is None:
                return FULL_DELTA
            return DirtyDelta(ns=dirty)

        return derive

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, object]]:
        """JSON-ready per-owner summary for the ``/owners`` endpoint."""
        with self._lock:
            return [
                {
                    "owner": owner_id,
                    "version": entry.version,
                    "universe_size": len(entry.universe),
                    "labels_granted": len(entry.labels),
                    "confidence": entry.owner.confidence,
                }
                for owner_id, entry in self._entries.items()
            ]

    def _bump(
        self, owner_ids: frozenset[UserId], delta_for=None
    ) -> frozenset[UserId]:
        """Bump versions, recording each bump's dirty delta.

        ``delta_for(owner_id)`` derives the per-owner delta; ``None``
        (unknown provenance) records a conservative full delta.
        """
        for owner_id in owner_ids:
            entry = self._entries[owner_id]
            entry.version += 1
            delta = FULL_DELTA if delta_for is None else delta_for(owner_id)
            entry.dirty.record(entry.version, delta)
        return owner_ids

    def has_owner(self, owner_id: UserId) -> bool:
        """Whether ``owner_id`` is registered on this store."""
        with self._lock:
            return owner_id in self._entries


__all__ = ["OwnerEntry", "OwnerStore"]
