"""Tests for the bounded, per-owner-serialized score scheduler.

Uses gated fake engines (threading.Event) so concurrency and
backpressure are exercised deterministically, without real scoring cost.
"""

from __future__ import annotations

import json
import threading
from typing import NamedTuple

import pytest

from repro.errors import BackpressureError, ServiceError, UnknownOwnerError
from repro.service import ScoreScheduler

from .conftest import wait_until


class FakeRecord(NamedTuple):
    """Tuple-shaped stand-in for a ScoreRecord (the HTTP layer needs
    ``to_json``; the scheduler tests index it)."""

    owner_id: int
    sequence: int

    def to_dict(self) -> dict[str, int]:
        return {"owner": self.owner_id, "sequence": self.sequence}

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict()).encode("utf-8")


class GatedEngine:
    """Fake engine: every ``score`` blocks until ``gate`` is set."""

    def __init__(self):
        self.gate = threading.Event()
        self._lock = threading.Lock()
        self._counter = 0
        self._in_call: set[int] = set()
        self.overlapped: list[int] = []
        self.calls: list[FakeRecord] = []

    def score(self, owner_id: int) -> FakeRecord:
        with self._lock:
            if owner_id in self._in_call:  # per-owner serialization broken
                self.overlapped.append(owner_id)
            self._in_call.add(owner_id)
        self.gate.wait(timeout=10)
        with self._lock:
            self._counter += 1
            call = FakeRecord(owner_id, self._counter)
            self.calls.append(call)
            self._in_call.discard(owner_id)
        return call

    def running_now(self) -> set[int]:
        with self._lock:
            return set(self._in_call)


class InstantEngine:
    def __init__(self):
        self._lock = threading.Lock()
        self._counter = 0

    def score(self, owner_id: int) -> FakeRecord:
        with self._lock:
            self._counter += 1
            return FakeRecord(owner_id, self._counter)


class FailingEngine:
    def score(self, owner_id: int):
        if owner_id == 404:
            raise UnknownOwnerError(owner_id)
        raise ValueError(f"boom for {owner_id}")


def drain(*futures, timeout=10):
    return [future.result(timeout=timeout) for future in futures]


class TestBackpressure:
    def test_submit_past_the_bound_fails_fast(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=2)
        try:
            first = scheduler.submit(1)
            second = scheduler.submit(2)
            assert scheduler.pending == 2
            with pytest.raises(BackpressureError) as excinfo:
                scheduler.submit(3)
            assert excinfo.value.pending == 2
        finally:
            engine.gate.set()
            drain(first, second)
            scheduler.shutdown()

    def test_capacity_recovers_after_the_queue_drains(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        try:
            first = scheduler.submit(1)
            with pytest.raises(BackpressureError):
                scheduler.submit(1)
            engine.gate.set()
            first.result(timeout=10)
            # the slot frees up once the in-flight request finishes
            wait_until(lambda: not scheduler.pending)
            assert scheduler.score(1, timeout=10)[0] == 1
        finally:
            engine.gate.set()
            scheduler.shutdown()

    def test_snapshot_reports_pending_and_bound(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            futures = [scheduler.submit(1), scheduler.submit(2)]
            snapshot = scheduler.snapshot()
            assert snapshot["pending"] == 2
            assert snapshot["max_pending"] == 8
            assert snapshot["owners_in_flight"] == 2
        finally:
            engine.gate.set()
            drain(*futures)
            scheduler.shutdown()


class TestOrdering:
    def test_same_owner_requests_run_serially_in_fifo_order(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=4, max_pending=16)
        try:
            futures = [scheduler.submit(7) for _ in range(5)]
            engine.gate.set()
            sequences = [future.result(timeout=10)[1] for future in futures]
            assert sequences == sorted(sequences)  # FIFO per owner
            assert engine.overlapped == []  # never two at once
        finally:
            scheduler.shutdown()

    def test_different_owners_score_concurrently(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            futures = [scheduler.submit(1), scheduler.submit(2)]
            # both must be *inside* score() before the gate opens
            wait_until(lambda: len(engine.running_now()) >= 2)
            assert engine.running_now() == {1, 2}
            assert scheduler.snapshot()["owners_in_flight"] == 2
            engine.gate.set()
            assert {result[0] for result in drain(*futures)} == {1, 2}
        finally:
            engine.gate.set()
            scheduler.shutdown()


class TestErrorsAndLifecycle:
    def test_engine_exceptions_propagate_through_the_future(self):
        scheduler = ScoreScheduler(FailingEngine(), max_workers=1)
        try:
            with pytest.raises(ValueError, match="boom for 1"):
                scheduler.score(1, timeout=10)
            with pytest.raises(UnknownOwnerError):
                scheduler.score(404, timeout=10)
        finally:
            scheduler.shutdown()

    def test_blocking_score_returns_the_record(self):
        scheduler = ScoreScheduler(InstantEngine(), max_workers=2)
        try:
            assert scheduler.score(5, timeout=10)[0] == 5
        finally:
            scheduler.shutdown()

    def test_submit_after_shutdown_is_backpressure(self):
        scheduler = ScoreScheduler(InstantEngine(), max_workers=1)
        scheduler.shutdown()
        with pytest.raises(BackpressureError):
            scheduler.submit(1)

    def test_shutdown_fails_the_queued_backlog(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        in_flight = scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1)]
        scheduler.shutdown(wait=False)
        engine.gate.set()
        assert in_flight.result(timeout=10)[0] == 1
        for orphan in queued:
            with pytest.raises(BackpressureError):
                orphan.result(timeout=10)
        wait_until(lambda: not scheduler.pending)
        assert scheduler.pending == 0

    def test_context_manager_shuts_down(self):
        with ScoreScheduler(InstantEngine(), max_workers=1) as scheduler:
            assert scheduler.score(3, timeout=10)[0] == 3
        with pytest.raises(BackpressureError):
            scheduler.submit(3)

    def test_invalid_bounds_are_rejected(self):
        with pytest.raises(ServiceError):
            ScoreScheduler(InstantEngine(), max_workers=0)
        with pytest.raises(ServiceError):
            ScoreScheduler(InstantEngine(), max_pending=0)


class TestDrain:
    def test_drain_completes_the_queued_backlog(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        futures = [scheduler.submit(1) for _ in range(3)]

        release = threading.Timer(0.05, engine.gate.set)
        release.start()
        try:
            summary = scheduler.shutdown(drain=True, timeout=10)
        finally:
            release.cancel()
        # with drain, the queued requests complete instead of failing
        assert summary["drained"] is True
        assert summary["pending_at_signal"] == 3
        assert summary["pending_at_exit"] == 0
        assert [future.result(timeout=10).owner_id for future in futures] == [
            1,
            1,
            1,
        ]

    def test_drain_timeout_gives_up_with_work_pending(self):
        engine = GatedEngine()  # never released: work can't finish
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        scheduler.submit(1)
        scheduler.submit(1)
        summary = scheduler.shutdown(wait=False, drain=True, timeout=0.1)
        assert summary["drained"] is False
        assert summary["pending_at_exit"] > 0
        engine.gate.set()  # unblock the worker so the pool can die

    def test_drain_rejects_new_work_immediately(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1)
        scheduler.submit(1)
        done = threading.Event()

        def drain_then_flag():
            scheduler.shutdown(drain=True, timeout=10)
            done.set()

        draining = threading.Thread(target=drain_then_flag)
        draining.start()
        wait_until(lambda: not scheduler.accepting)
        assert not scheduler.accepting
        with pytest.raises(BackpressureError):
            scheduler.submit(2)
        engine.gate.set()
        draining.join(timeout=10)
        assert done.is_set()

    def test_pending_count_tracks_the_queue(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        assert scheduler.pending == 0
        scheduler.submit(1)
        scheduler.submit(1)
        assert scheduler.pending == 2
        engine.gate.set()
        wait_until(lambda: not scheduler.pending)
        assert scheduler.pending == 0
        scheduler.shutdown()

    def test_shutdown_summary_includes_engine_metrics(self, service_engine):
        scheduler = ScoreScheduler(service_engine, max_workers=1)
        owner_id = service_engine.store.owner_ids()[0]
        scheduler.score(owner_id, timeout=60)
        summary = scheduler.shutdown(drain=True, timeout=10)
        metrics = summary["engine_metrics"]
        assert metrics["requests"] == 1
        assert metrics["cold_scores"] == 1

    def test_fake_engines_emit_no_metrics_block(self):
        scheduler = ScoreScheduler(InstantEngine(), max_workers=1)
        summary = scheduler.shutdown(drain=True, timeout=1)
        assert "engine_metrics" not in summary


class TestExecutorDeath:
    """The executor dying under the scheduler must not strand the queue.

    Regression tests for a leak in ``_finish``: when ``executor.submit``
    raised ``RuntimeError``, only the popped future was failed — the rest
    of that owner's queue stayed counted in ``_pending`` forever, so
    ``shutdown(drain=True)`` hung and ``pending`` never recovered.
    """

    def test_killed_executor_fails_the_whole_owner_queue(self):
        from concurrent.futures import ThreadPoolExecutor

        engine = GatedEngine()
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="kill-test"
        )
        scheduler = ScoreScheduler(engine, max_pending=8, executor=executor)
        in_flight = scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1), scheduler.submit(1)]
        # kill the pool out from under the scheduler, then let the
        # in-flight job finish: _finish's re-submit will raise
        executor.shutdown(wait=False)
        engine.gate.set()
        assert in_flight.result(timeout=10).owner_id == 1
        for orphan in queued:
            with pytest.raises(BackpressureError):
                orphan.result(timeout=10)
        wait_until(lambda: not scheduler.pending)
        assert scheduler.pending == 0

    def test_drain_completes_after_executor_death(self):
        from concurrent.futures import ThreadPoolExecutor

        engine = GatedEngine()
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="kill-drain"
        )
        scheduler = ScoreScheduler(engine, max_pending=8, executor=executor)
        scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1)]
        executor.shutdown(wait=False)
        release = threading.Timer(0.05, engine.gate.set)
        release.start()
        try:
            # must terminate: the orphaned queue is failed, not leaked
            summary = scheduler.shutdown(drain=True, timeout=10)
        finally:
            release.cancel()
        assert summary["drained"] is True
        assert summary["pending_at_exit"] == 0
        for orphan in queued:
            with pytest.raises(BackpressureError):
                orphan.result(timeout=10)


# ---------------------------------------------------------------------------
# request coalescing (single-flight per owner/measure/version)
# ---------------------------------------------------------------------------
class VersionedStore:
    """Store stub exposing just the version map the coalesce key needs."""

    def __init__(self, versions: dict[int, int]):
        self.versions = dict(versions)

    def version(self, owner_id: int) -> int:
        return self.versions[owner_id]


class VersionedGatedEngine(GatedEngine):
    """A gated engine with the store/resolve surface coalescing keys on."""

    def __init__(self, versions: dict[int, int] | None = None):
        super().__init__()
        self.store = VersionedStore(versions or {1: 0})

    def score(self, owner_id: int, measure: str | None = None) -> FakeRecord:
        return super().score(owner_id)

    def resolve_measure(self, measure: str | None = None) -> str:
        return "default" if measure is None else measure


def serve_or_submit(scheduler, owner_id, measure=None):
    """``serve_or_submit`` on a ``peek``-less engine: never a record."""
    record, future, coalesced = scheduler.serve_or_submit(
        owner_id, measure=measure
    )
    assert record is None
    return future, coalesced


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_future(self):
        engine = VersionedGatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            first, coalesced_first = serve_or_submit(scheduler, 1)
            second, coalesced_second = serve_or_submit(scheduler, 1)
            assert not coalesced_first and coalesced_second
            assert second is first  # one engine call, two waiters
            snapshot = scheduler.snapshot()
            assert snapshot["coalesced_hits"] == 1
            assert snapshot["coalesce_inflight"] == 1
            assert snapshot["pending"] == 1  # joining costs no queue slot
            engine.gate.set()
            assert first.result(timeout=10) is second.result(timeout=10)
            assert len(engine.calls) == 1
        finally:
            engine.gate.set()
            scheduler.shutdown()

    def test_completed_flight_is_not_reused(self):
        engine = VersionedGatedEngine()
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            first, _ = serve_or_submit(scheduler, 1)
            first.result(timeout=10)
            second, coalesced = serve_or_submit(scheduler, 1)
            assert not coalesced
            assert second is not first  # a finished future never fans out
            second.result(timeout=10)
            assert len(engine.calls) == 2
        finally:
            scheduler.shutdown()

    def test_version_bump_misses_the_stale_flight(self):
        engine = VersionedGatedEngine({1: 0})
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            stale, _ = serve_or_submit(scheduler, 1)
            engine.store.versions[1] = 1  # a mutation landed mid-coalesce
            fresh, coalesced = serve_or_submit(scheduler, 1)
            assert not coalesced
            assert fresh is not stale  # new version: new engine call
            assert scheduler.snapshot()["coalesced_hits"] == 0
            engine.gate.set()
            assert stale.result(timeout=10) != fresh.result(timeout=10)
            assert len(engine.calls) == 2
        finally:
            engine.gate.set()
            scheduler.shutdown()

    def test_distinct_measures_do_not_coalesce(self):
        engine = VersionedGatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            default, _ = serve_or_submit(scheduler, 1)
            other, coalesced = serve_or_submit(scheduler, 1, measure="other")
            assert not coalesced and other is not default
            engine.gate.set()
            drain(default, other)
        finally:
            engine.gate.set()
            scheduler.shutdown()

    def test_storeless_engines_fall_back_to_plain_submit(self):
        engine = GatedEngine()  # no .store: coalescing cannot key safely
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            first, coalesced_first = serve_or_submit(scheduler, 1)
            second, coalesced_second = serve_or_submit(scheduler, 1)
            assert not coalesced_first and not coalesced_second
            assert second is not first
            assert scheduler.snapshot()["coalesced_hits"] == 0
            engine.gate.set()
            drain(first, second)
        finally:
            engine.gate.set()
            scheduler.shutdown()

    def test_unknown_owner_falls_back_and_errors_per_request(self):
        engine = VersionedGatedEngine({1: 0})  # owner 2 unknown
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            first, coalesced = serve_or_submit(scheduler, 2)
            assert not coalesced  # version lookup failed: plain submit
            first.result(timeout=10)  # the engine itself accepts it
        finally:
            scheduler.shutdown()

    def test_finished_flights_leave_the_inflight_map(self):
        engine = VersionedGatedEngine()
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            future, _ = serve_or_submit(scheduler, 1)
            future.result(timeout=10)
            wait_until(lambda: not scheduler.snapshot()["coalesce_inflight"])
            assert scheduler.snapshot()["coalesce_inflight"] == 0
        finally:
            scheduler.shutdown()
