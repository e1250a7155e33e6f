"""Tests for the background refresh scheduler.

The refresher subscribes to the store's mutation stream and rescoring-
drains dirty owners while the serving scheduler is idle — ahead-of-
demand work that must never starve demand traffic, lose an owner, or
affect correctness (it is advisory: scores stay versioned either way).
"""

from __future__ import annotations

import threading
import time

from repro.errors import BackpressureError
from repro.service import OwnerStore, RiskEngine, ScoreScheduler
from repro.service.refresh import RefreshScheduler

from .conftest import SERVICE_SEED, make_service_population, wait_until


class _StubScheduler:
    """A scheduler double with a controllable pending count."""

    def __init__(self, pending=0, accepting=True, fail=None):
        self.pending = pending
        self.accepting = accepting
        self.fail = fail
        self.submitted = []

    def submit(self, owner_id, measure=None):
        if self.fail is not None:
            raise self.fail
        self.submitted.append(owner_id)
        future = _StubFuture()
        return future


class _StubFuture:
    def add_done_callback(self, callback):
        callback(self)

    def exception(self):
        return None


class TestDrainBehavior:
    def test_idle_queue_drains_to_the_scheduler(self):
        stub = _StubScheduler(pending=0)
        refresher = RefreshScheduler(stub, interval=0.01)
        try:
            refresher.notify([7, 8])
            assert wait_until(lambda: sorted(stub.submitted) == [7, 8])
            assert refresher.queued == 0
            snapshot = refresher.snapshot()
            assert snapshot["enqueued"] == 2
            assert snapshot["refreshed"] == 2
        finally:
            refresher.shutdown()

    def test_busy_scheduler_defers_the_drain(self):
        stub = _StubScheduler(pending=10)
        refresher = RefreshScheduler(stub, idle_threshold=0, interval=0.01)
        try:
            refresher.notify([7])
            time.sleep(0.1)
            assert stub.submitted == []  # demand traffic wins
            assert refresher.queued == 1
            stub.pending = 0  # queue went idle
            assert wait_until(lambda: stub.submitted == [7])
        finally:
            refresher.shutdown()

    def test_coalescing_one_rescore_for_many_mutations(self):
        stub = _StubScheduler(pending=10)  # hold the drain
        refresher = RefreshScheduler(stub, interval=0.01)
        try:
            for _ in range(10):
                refresher.notify([7])
            assert refresher.queued == 1
            assert refresher.snapshot()["enqueued"] == 1
        finally:
            refresher.shutdown()

    def test_backpressure_requeues_the_owner(self):
        stub = _StubScheduler(
            pending=0, fail=BackpressureError("full", pending=64)
        )
        refresher = RefreshScheduler(stub, interval=0.01)
        try:
            refresher.notify([7])
            assert wait_until(
                lambda: refresher.snapshot()["requeued"] >= 1
            )
            assert refresher.queued == 1  # not lost
            stub.fail = None
            assert wait_until(lambda: stub.submitted == [7])
        finally:
            refresher.shutdown()

    def test_shutdown_is_idempotent_and_stops_intake(self):
        stub = _StubScheduler()
        refresher = RefreshScheduler(stub, interval=0.01)
        refresher.shutdown()
        refresher.shutdown()
        refresher.notify([7])  # ignored after shutdown
        assert refresher.queued == 0
        assert refresher.snapshot()["running"] is False


class TestEndToEnd:
    def test_mutation_is_rescored_ahead_of_demand(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        engine = RiskEngine(store, seed=SERVICE_SEED)
        scheduler = ScoreScheduler(engine, max_workers=2)
        refresher = RefreshScheduler(scheduler, interval=0.01).attach(store)
        try:
            owner = population.owners[0].user_id
            strangers = sorted(population.handles[owner].strangers)
            scheduler.score(owner, timeout=120)
            store.add_friendship(strangers[0], strangers[1])
            assert refresher.drain_wait(timeout=120)
            assert wait_until(
                lambda: refresher.snapshot()["refreshed"] >= 1
            )
            # the background pass already absorbed the delta: the next
            # demand hit is a free cache hit at the new version
            record = engine.score(owner)
            assert record.source == "cache"
            assert record.version == store.version(owner)
        finally:
            refresher.shutdown()
            scheduler.shutdown()

    def test_refresh_failures_are_counted_not_raised(self):
        population = make_service_population()
        store = OwnerStore.from_population(population)
        engine = RiskEngine(store, seed=SERVICE_SEED)
        scheduler = ScoreScheduler(engine, max_workers=1)
        refresher = RefreshScheduler(scheduler, interval=0.01)
        try:
            refresher.notify([999_999])  # unknown owner: the score fails
            assert wait_until(
                lambda: refresher.snapshot()["failed"] >= 1, timeout=30
            )
            assert refresher.queued == 0
        finally:
            refresher.shutdown()
            scheduler.shutdown()
