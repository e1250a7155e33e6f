"""Tests for the dirty-set maintenance layer.

Covers the delta algebra (:mod:`repro.service.dirty`), the exact NS
perturbation of an edge toggle
(:func:`repro.graph.metrics.ns_dirty_after_edge_toggle`), and the
store's per-mutation dirty recording — the substrate the incremental
rescoring path (:mod:`repro.learning.replay`) builds on.
"""

from __future__ import annotations

import pytest

from repro.graph.metrics import ns_dirty_after_edge_toggle
from repro.service import OwnerStore
from repro.service.dirty import (
    EMPTY_DELTA,
    FULL_DELTA,
    DirtyDelta,
    DirtyLog,
)
from repro.similarity.network import NetworkSimilarity

from .conftest import make_service_population


class TestDirtyDelta:
    def test_merge_unions_both_sides(self):
        a = DirtyDelta(ns=frozenset({1, 2}), profiles=frozenset({3}))
        b = DirtyDelta(ns=frozenset({2, 4}), profiles=frozenset({5}))
        merged = a.merge(b)
        assert merged.ns == frozenset({1, 2, 4})
        assert merged.profiles == frozenset({3, 5})
        assert not merged.full

    def test_full_absorbs_everything(self):
        detailed = DirtyDelta(ns=frozenset({1}), profiles=frozenset({2}))
        assert detailed.merge(FULL_DELTA).full
        assert FULL_DELTA.merge(detailed).full

    def test_empty_is_the_identity(self):
        delta = DirtyDelta(ns=frozenset({7}))
        assert delta.merge(EMPTY_DELTA) == delta
        assert EMPTY_DELTA.merge(delta) == delta

    def test_to_dict_is_json_shaped(self):
        delta = DirtyDelta(ns=frozenset({2, 1}), profiles=frozenset({3}))
        document = delta.to_dict()
        assert document == {
            "full": False,
            "ns": [1, 2],
            "profiles": [3],
        }


class TestDirtyLog:
    def test_between_merges_the_covered_range(self):
        log = DirtyLog()
        log.record(1, DirtyDelta(ns=frozenset({1})))
        log.record(2, DirtyDelta(ns=frozenset({2})))
        log.record(3, DirtyDelta(profiles=frozenset({9})))
        merged = log.between(0, 3)
        assert merged is not None
        assert merged.ns == frozenset({1, 2})
        assert merged.profiles == frozenset({9})

    def test_between_equal_versions_is_empty(self):
        log = DirtyLog()
        log.record(1, FULL_DELTA)
        assert log.between(1, 1) == EMPTY_DELTA

    def test_partial_coverage_returns_none(self):
        log = DirtyLog(limit=2)
        for version in (1, 2, 3):
            log.record(version, DirtyDelta(ns=frozenset({version})))
        # version 1 was evicted: the range (0, 3] is not covered
        assert log.between(0, 3) is None
        # but the retained suffix still answers
        covered = log.between(1, 3)
        assert covered is not None
        assert covered.ns == frozenset({2, 3})

    def test_empty_log_cannot_vouch(self):
        log = DirtyLog()
        assert log.between(0, 1) is None

    def test_clear_forgets_everything(self):
        log = DirtyLog()
        log.record(1, FULL_DELTA)
        log.clear()
        assert log.between(0, 1) is None


class TestEdgeToggleDirtySet:
    """The derived NS dirty set is *exact* for the structural measure."""

    def test_owner_endpoint_is_full(self):
        population = make_service_population()
        owner = population.owners[0].user_id
        friend = sorted(population.handles[owner].friends)[0]
        assert (
            ns_dirty_after_edge_toggle(population.graph, owner, owner, friend)
            is None
        )

    @pytest.mark.parametrize("kind", ["stranger-stranger", "friend-stranger"])
    def test_dirty_set_is_exact_for_an_added_edge(self, kind):
        population = make_service_population()
        graph = population.graph
        owner = population.owners[0].user_id
        handle = population.handles[owner]
        strangers = sorted(handle.strangers)
        if kind == "stranger-stranger":
            a, b = strangers[0], strangers[1]
        else:
            a, b = sorted(handle.friends)[0], strangers[0]
        measure = NetworkSimilarity()
        before = {s: measure(graph, owner, s) for s in strangers}
        dirty = ns_dirty_after_edge_toggle(graph, owner, a, b)
        graph.add_friendship(a, b)
        after = {s: measure(graph, owner, s) for s in strangers}
        changed = {s for s in strangers if before[s] != after[s]}
        # exact: everything that moved is flagged...
        assert changed <= dirty
        # ...and nothing outside {a, b} is flagged gratuitously (the
        # endpoints are always conservatively included)
        assert dirty <= changed | {a, b} | graph.mutual_friends(a, b)


class TestStoreDirtyRecording:
    def test_edge_add_records_the_exact_delta(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        s1, s2 = sorted(population.handles[owner].strangers)[:2]
        store.add_friendship(s1, s2)
        delta = store.dirty_between(owner, 0)
        assert delta is not None
        assert not delta.full
        assert {s1, s2} <= set(delta.ns)
        assert delta.profiles == frozenset()

    def test_profile_update_records_profiles_only(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        stranger = sorted(population.handles[owner].strangers)[0]
        profile = store.graph.profile(stranger)
        store.update_profile(profile)
        delta = store.dirty_between(owner, 0)
        assert delta is not None
        assert delta.ns == frozenset()
        assert delta.profiles == frozenset({stranger})

    def test_touch_records_a_full_delta(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        store.touch(owner)
        delta = store.dirty_between(owner, 0)
        assert delta is not None and delta.full

    def test_consecutive_mutations_merge(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        strangers = sorted(population.handles[owner].strangers)
        store.add_friendship(strangers[0], strangers[1])
        store.update_profile(store.graph.profile(strangers[2]))
        delta = store.dirty_between(owner, 0)
        assert delta is not None
        assert {strangers[0], strangers[1]} <= set(delta.ns)
        assert strangers[2] in delta.profiles

    def test_replace_graph_clears_the_logs(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        store.touch(owner)
        store.replace_graph(store.graph)
        assert store.dirty_between(owner, 0) is None

    def test_owner_endpoint_edge_is_full(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        owner = population.owners[0].user_id
        stranger = sorted(population.handles[owner].strangers)[0]
        store.add_friendship(owner, stranger)
        delta = store.dirty_between(owner, 0)
        assert delta is not None and delta.full

