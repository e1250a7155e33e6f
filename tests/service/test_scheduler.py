"""Tests for the bounded, per-owner-serialized score scheduler.

The scheduler lives on an event loop, so each test runs one on
``asyncio.run``.  Gated fake engines (a ``threading.Event`` their
``score`` waits on) exercise concurrency and backpressure
deterministically, without real scoring cost; they implement the
engine interface the scheduler calls (``store.version``,
``resolve_measure``, ``peek``, ``score(owner, measure)``, ``metrics``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
import types
from typing import NamedTuple

import pytest

from repro.errors import BackpressureError, ServiceError, UnknownOwnerError
from repro.service import ScoreScheduler


class FakeRecord(NamedTuple):
    """Tuple-shaped stand-in for a ScoreRecord (the HTTP layer needs
    ``to_json``; the scheduler tests index it)."""

    owner_id: int
    sequence: int

    def to_dict(self) -> dict[str, int]:
        return {"owner": self.owner_id, "sequence": self.sequence}

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict()).encode("utf-8")


class FakeStore:
    """The store surface the scheduler and the read endpoints use.
    Owners without a version are unknown: their requests are never
    coalesced."""

    def __init__(self, versions: dict[int, int] | None = None):
        self.versions = dict(versions or {})

    def version(self, owner_id: int) -> int:
        try:
            return self.versions[owner_id]
        except KeyError:
            raise UnknownOwnerError(owner_id) from None

    def owner_ids(self) -> tuple[int, ...]:
        return tuple(self.versions)


class FakeEngine:
    """The engine interface without a memo: ``peek`` never hits."""

    def __init__(self, versions: dict[int, int] | None = None):
        self.store = FakeStore(versions)
        self.metrics = types.SimpleNamespace(snapshot=dict)

    def resolve_measure(self, measure: str | None = None) -> str:
        return "default" if measure is None else measure

    def peek(self, owner_id: int, measure: str, version: int) -> None:
        return None


class GatedEngine(FakeEngine):
    """Fake engine: every ``score`` blocks until ``gate`` is set."""

    def __init__(self, versions: dict[int, int] | None = None):
        super().__init__(versions)
        self.gate = threading.Event()
        self._lock = threading.Lock()
        self._counter = 0
        self._in_call: set[int] = set()
        self.overlapped: list[int] = []
        self.calls: list[FakeRecord] = []

    def score(self, owner_id: int, measure: str | None = None) -> FakeRecord:
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


class InstantEngine(FakeEngine):
    def __init__(self):
        super().__init__()
        self._counter = 0

    def score(self, owner_id: int, measure: str | None = None) -> FakeRecord:
        self._counter += 1
        return FakeRecord(owner_id, self._counter)


class FailingEngine(FakeEngine):
    def score(self, owner_id: int, measure: str | None = None):
        if owner_id == 404:
            raise UnknownOwnerError(owner_id)
        raise ValueError(f"boom for {owner_id}")


def on_loop(test):
    """Run an async test on a fresh event loop."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        asyncio.run(test(*args, **kwargs))

    return run


async def until(predicate, timeout: float = 10.0) -> bool:
    """Yield to the loop until ``predicate`` holds or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.005)
    return bool(predicate())


async def drain(*jobs):
    return await asyncio.gather(*jobs)


class TestBackpressure:
    @on_loop
    async def test_submit_past_the_bound_fails_fast(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=2)
        try:
            first = scheduler.submit(1)
            second = scheduler.submit(2)
            assert scheduler.pending == 2
            with pytest.raises(BackpressureError) as excinfo:
                scheduler.submit(3)
            assert excinfo.value.pending == 2
            assert excinfo.value.saturated
        finally:
            engine.gate.set()
            await drain(first, second)
            scheduler.close()

    @on_loop
    async def test_capacity_recovers_after_the_queue_drains(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=1)
        try:
            first = scheduler.submit(1)
            with pytest.raises(BackpressureError):
                scheduler.submit(1)
            engine.gate.set()
            await first
            # the slot frees up once the running request finishes
            assert await until(lambda: not scheduler.pending)
            assert (await scheduler.submit(1))[0] == 1
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_snapshot_reports_pending_and_bound(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            jobs = [scheduler.submit(1), scheduler.submit(2)]
            snapshot = scheduler.snapshot()
            assert snapshot["pending"] == 2
            assert snapshot["max_pending"] == 8
            assert snapshot["owners_in_flight"] == 2
        finally:
            engine.gate.set()
            await drain(*jobs)
            scheduler.close()


class TestOrdering:
    @on_loop
    async def test_same_owner_requests_run_serially_in_fifo_order(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=4, max_pending=16)
        try:
            jobs = [scheduler.submit(7) for _ in range(5)]
            engine.gate.set()
            sequences = [record[1] for record in await drain(*jobs)]
            assert sequences == sorted(sequences)  # FIFO per owner
            assert engine.overlapped == []  # never two at once
            assert scheduler.snapshot()["owners_in_flight"] == 0
        finally:
            scheduler.close()

    @on_loop
    async def test_different_owners_score_concurrently(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            jobs = [scheduler.submit(1), scheduler.submit(2)]
            # both must be *inside* score() before the gate opens
            assert await until(lambda: len(engine.running_now()) >= 2)
            assert engine.running_now() == {1, 2}
            assert scheduler.snapshot()["owners_in_flight"] == 2
            engine.gate.set()
            assert {result[0] for result in await drain(*jobs)} == {1, 2}
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_an_expired_wait_keeps_the_turn_until_the_call_returns(
        self,
    ):
        """A waiter's deadline expiring mid-call cancels its job, but the
        owner's next request starts only once that call has returned,
        and the started job still delivers its record."""
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            first = scheduler.submit(1)
            assert await until(lambda: engine.running_now() == {1})
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(first), 0.01)
            first.cancel()  # what the HTTP layer does on a 504
            second = scheduler.submit(1)
            await asyncio.sleep(0.05)
            # the first call still runs: the second waits for its turn
            assert engine.calls == [] and engine.overlapped == []
            assert scheduler.pending == 2
            engine.gate.set()
            assert await second == FakeRecord(1, 2)
            assert await first == FakeRecord(1, 1)  # started: not dropped
            assert engine.calls == [FakeRecord(1, 1), FakeRecord(1, 2)]
            assert engine.overlapped == []
            assert await until(lambda: not scheduler.pending)
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_cancelling_a_queued_request_drops_it(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            first = scheduler.submit(1)
            queued = scheduler.submit(1)
            assert await until(lambda: engine.running_now() == {1})
            queued.cancel()
            await asyncio.wait({queued})
            assert scheduler.pending == 1  # its slot is free at once
            engine.gate.set()
            await first
            assert engine.calls == [FakeRecord(1, 1)]  # never scored
            assert await until(lambda: not scheduler.pending)
            assert scheduler.snapshot()["owners_in_flight"] == 0
        finally:
            engine.gate.set()
            scheduler.close()


class TestErrorsAndLifecycle:
    @on_loop
    async def test_engine_exceptions_propagate_through_the_future(self):
        scheduler = ScoreScheduler(FailingEngine(), max_workers=1)
        try:
            with pytest.raises(ValueError, match="boom for 1"):
                await scheduler.submit(1)
            with pytest.raises(UnknownOwnerError):
                await scheduler.submit(404)
            assert scheduler.pending == 0
        finally:
            scheduler.close()

    @on_loop
    async def test_awaited_submission_returns_the_record(self):
        scheduler = ScoreScheduler(InstantEngine(), max_workers=2)
        try:
            assert (await scheduler.submit(5))[0] == 5
        finally:
            scheduler.close()

    @on_loop
    async def test_submit_after_shutdown_is_backpressure(self):
        scheduler = ScoreScheduler(InstantEngine(), max_workers=1)
        scheduler.close()
        with pytest.raises(BackpressureError) as excinfo:
            scheduler.submit(1)
        assert not excinfo.value.saturated  # an outage: 503, not 429

    @on_loop
    async def test_shutdown_fails_the_queued_backlog(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        running = scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1)]
        assert await until(lambda: engine.running_now() == {1})
        scheduler.close()
        engine.gate.set()
        assert (await running)[0] == 1
        for orphan in queued:
            with pytest.raises(BackpressureError):
                await orphan
        assert await until(lambda: not scheduler.pending)
        assert scheduler.pending == 0

    def test_invalid_bounds_are_rejected(self):
        with pytest.raises(ServiceError):
            ScoreScheduler(InstantEngine(), max_workers=0)
        with pytest.raises(ServiceError):
            ScoreScheduler(InstantEngine(), max_pending=0)


class TestDrain:
    @on_loop
    async def test_drain_completes_the_queued_backlog(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        jobs = [scheduler.submit(1) for _ in range(3)]
        asyncio.get_running_loop().call_later(0.05, engine.gate.set)
        try:
            summary = await scheduler.drain(timeout=10)
        finally:
            engine.gate.set()
            scheduler.close()
        # with drain, the queued requests complete instead of failing
        assert summary["drained"] is True
        assert summary["pending_at_signal"] == 3
        assert summary["pending_at_exit"] == 0
        assert [record.owner_id for record in await drain(*jobs)] == [1, 1, 1]

    @on_loop
    async def test_drain_timeout_gives_up_with_work_pending(self):
        engine = GatedEngine()  # not released in time: work can't finish
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        running = scheduler.submit(1)
        queued = scheduler.submit(1)
        summary = await scheduler.drain(timeout=0.1)
        assert summary["drained"] is False
        assert summary["pending_at_exit"] > 0
        engine.gate.set()  # unblock the worker so the pool can die
        await running
        with pytest.raises(BackpressureError):
            await queued  # its turn came after the drain gave up
        scheduler.close()

    @on_loop
    async def test_drain_rejects_new_work_immediately(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1)
        scheduler.submit(1)
        draining = asyncio.create_task(scheduler.drain(timeout=10))
        assert await until(lambda: not scheduler.accepting)
        assert scheduler.snapshot()["draining"] is True
        with pytest.raises(BackpressureError):
            scheduler.submit(2)
        engine.gate.set()
        summary = await asyncio.wait_for(draining, 10)
        assert summary["drained"] is True
        assert scheduler.snapshot()["draining"] is False
        scheduler.close()

    @on_loop
    async def test_pending_count_tracks_the_queue(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        assert scheduler.pending == 0
        scheduler.submit(1)
        scheduler.submit(1)
        assert scheduler.pending == 2
        engine.gate.set()
        assert await until(lambda: not scheduler.pending)
        assert scheduler.pending == 0
        scheduler.close()

    @on_loop
    async def test_shutdown_summary_includes_engine_metrics(
        self, service_engine
    ):
        scheduler = ScoreScheduler(service_engine, max_workers=1)
        owner_id = service_engine.store.owner_ids()[0]
        await scheduler.submit(owner_id)
        summary = await scheduler.drain(timeout=10)
        scheduler.close()
        metrics = summary["engine_metrics"]
        assert metrics["requests"] == 1
        assert metrics["cold_scores"] == 1


class TestExecutorDeath:
    """The scoring pool dying under the scheduler must not strand the
    queue: every queued request fails when its turn comes, and
    ``pending`` returns to 0 (so a drain still completes)."""

    @on_loop
    async def test_killed_executor_fails_the_whole_owner_queue(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        running = scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1), scheduler.submit(1)]
        assert await until(lambda: engine.running_now() == {1})
        # kill the pool out from under the scheduler, then let the
        # running call finish: each queued request then meets a dead pool
        scheduler._pool.shutdown(wait=False)
        engine.gate.set()
        assert (await running).owner_id == 1
        for orphan in queued:
            with pytest.raises(BackpressureError):
                await orphan
        assert await until(lambda: not scheduler.pending)
        assert scheduler.pending == 0

    @on_loop
    async def test_drain_completes_after_executor_death(self):
        engine = GatedEngine()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        scheduler.submit(1)
        queued = [scheduler.submit(1), scheduler.submit(1)]
        assert await until(lambda: engine.running_now() == {1})
        scheduler._pool.shutdown(wait=False)
        asyncio.get_running_loop().call_later(0.05, engine.gate.set)
        try:
            # must terminate: the orphaned queue is failed, not leaked
            summary = await scheduler.drain(timeout=10)
        finally:
            engine.gate.set()
        assert summary["drained"] is True
        assert summary["pending_at_exit"] == 0
        for orphan in queued:
            with pytest.raises(BackpressureError):
                await orphan


# ---------------------------------------------------------------------------
# request coalescing (single-flight per owner/measure/version)
# ---------------------------------------------------------------------------
def serve_or_submit(scheduler, owner_id, measure=None):
    """``serve_or_submit`` on a memo-less engine: never a record."""
    record, job, coalesced = scheduler.serve_or_submit(
        owner_id, measure=measure
    )
    assert record is None
    return job, coalesced


class TestCoalescing:
    @on_loop
    async def test_identical_concurrent_requests_share_one_future(self):
        engine = GatedEngine({1: 0})
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
            assert await first is await second
            assert len(engine.calls) == 1
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_completed_flight_is_not_reused(self):
        engine = GatedEngine({1: 0})
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            first, _ = serve_or_submit(scheduler, 1)
            await first
            second, coalesced = serve_or_submit(scheduler, 1)
            assert not coalesced
            assert second is not first  # a finished task never fans out
            await second
            assert len(engine.calls) == 2
        finally:
            scheduler.close()

    @on_loop
    async def test_version_bump_misses_the_stale_flight(self):
        engine = GatedEngine({1: 0})
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            stale, _ = serve_or_submit(scheduler, 1)
            engine.store.versions[1] = 1  # a mutation landed mid-coalesce
            fresh, coalesced = serve_or_submit(scheduler, 1)
            assert not coalesced
            assert fresh is not stale  # new version: new engine call
            assert scheduler.snapshot()["coalesced_hits"] == 0
            engine.gate.set()
            assert await stale != await fresh
            assert len(engine.calls) == 2
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_distinct_measures_do_not_coalesce(self):
        engine = GatedEngine({1: 0})
        scheduler = ScoreScheduler(engine, max_workers=2, max_pending=8)
        try:
            default, _ = serve_or_submit(scheduler, 1)
            other, coalesced = serve_or_submit(scheduler, 1, measure="other")
            assert not coalesced and other is not default
            engine.gate.set()
            await drain(default, other)
        finally:
            engine.gate.set()
            scheduler.close()

    @on_loop
    async def test_unknown_owner_falls_back_and_errors_per_request(self):
        engine = GatedEngine({1: 0})  # owner 2 unknown
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            first, coalesced = serve_or_submit(scheduler, 2)
            assert not coalesced  # version lookup failed: plain submit
            second, coalesced = serve_or_submit(scheduler, 2)
            assert not coalesced and second is not first
            await drain(first, second)  # the engine itself accepts them
            assert scheduler.snapshot()["coalesce_inflight"] == 0
        finally:
            scheduler.close()

    @on_loop
    async def test_finished_flights_leave_the_inflight_map(self):
        engine = GatedEngine({1: 0})
        engine.gate.set()
        scheduler = ScoreScheduler(engine, max_workers=1, max_pending=8)
        try:
            job, _ = serve_or_submit(scheduler, 1)
            await job
            assert await until(
                lambda: not scheduler.snapshot()["coalesce_inflight"]
            )
            assert scheduler.snapshot()["coalesce_inflight"] == 0
        finally:
            scheduler.close()
