"""Multi-owner scoring on the server's event loop, bounded and ordered.

:class:`ScoreScheduler` drives a :class:`~repro.service.RiskEngine`
from the event loop that serves the HTTP requests, under two invariants
a serving deployment needs:

* **per-owner serialization** — requests for the same owner run one at a
  time, in submission order (a warm re-score must see the previous
  score's pipeline state, and two cold runs of one owner would duplicate
  oracle effort).  Each owner with work holds one FIFO
  :class:`asyncio.Lock`, dropped once its last request is done;
* **backpressure** — the number of running plus queued requests is
  bounded; past the bound, :meth:`submit` fails fast with
  :class:`~repro.errors.BackpressureError` instead of queueing without
  limit.  The error's ``saturated`` flag tells the HTTP layer which
  status to speak: queue-full is *429, slow down* while shutdown/drain
  is *503, fail over*.

Every engine call is one ``run_in_executor`` on the scheduler's pool, so
different owners score concurrently up to ``max_workers``.  A request
whose engine call has started ignores cancellation: its thread keeps
scoring, so the owner's turn passes on only when the call returns, and
waiters coalesced onto it still receive the record.

On top of those, :meth:`ScoreScheduler.serve_or_submit` is how a read
decides a score.  It adds **request coalescing** (single-flight):
concurrent requests for the same ``(owner, measure, version)`` share
one running task instead of queueing N engine calls, and every waiter
receives the identical record.  The store *version* is part of the
key, so a mutation that lands mid-coalesce bumps the version and later
requests miss the stale entry — they see the post-mutation score, never
a stale fan-out.  With no flight to join, a memo that is fresh at the
key's version is returned on the event loop, and only a miss is
submitted.

All state lives on the one event loop: no method but :meth:`close` may
be called from another thread.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..errors import BackpressureError, ServiceError, UnknownOwnerError
from ..types import UserId


class _Turn:
    """One owner's FIFO lock and the number of its requests not done."""

    __slots__ = ("lock", "count")

    def __init__(self) -> None:
        self.lock = asyncio.Lock()
        self.count = 0


class ScoreScheduler:
    """Bounded scoring pool serializing work per owner.

    Parameters
    ----------
    engine:
        A :class:`~repro.service.RiskEngine`, or a fake with its
        interface: ``store.version``, ``resolve_measure``, ``peek``,
        ``score(owner, measure)`` and ``metrics``.
    max_workers:
        Concurrent scoring threads.
    max_pending:
        Bound on running plus queued requests (the backpressure knob).
    """

    def __init__(
        self, engine, max_workers: int = 4, max_pending: int = 64
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self._engine = engine
        self._max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="risk-score"
        )
        self._turns: dict[UserId, _Turn] = {}
        self._inflight: dict[tuple[UserId, str, int], asyncio.Task] = {}
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._accepting = True
        self._draining = False
        self._coalesced_hits = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, owner_id: UserId, measure: str | None = None
    ) -> asyncio.Task:
        """Queue one scoring request; returns the task for its record.

        ``measure`` names a registered risk measure; ``None`` keeps the
        engine's default.  Serialization stays per *owner* regardless of
        measure — a warm re-score of any measure must observe the store
        state its predecessor left behind.  Cancelling the task drops a
        request still waiting for its turn; a started request ignores
        the cancel and runs to its end before the owner's next request
        starts.

        Raises
        ------
        BackpressureError
            When the bounded queue is full (``saturated=True``) or the
            scheduler is shut down (``saturated=False``).
        """
        if not self._accepting:
            raise self._shut_down()
        if self._pending >= self._max_pending:
            raise BackpressureError(
                f"scheduler saturated: {self._pending} requests pending "
                f"(bound {self._max_pending})",
                pending=self._pending,
            )
        turn = self._turns.get(owner_id)
        if turn is None:
            turn = self._turns[owner_id] = _Turn()
        turn.count += 1
        self._pending += 1
        self._idle.clear()
        job = asyncio.create_task(self._run(owner_id, measure, turn))
        job.add_done_callback(_retrieve)
        return job

    def serve_or_submit(
        self, owner_id: UserId, measure: str | None = None
    ) -> "tuple[Any, asyncio.Task | None, bool]":
        """Join a running flight, answer from a fresh memo, or submit.

        Returns ``(None, task, True)`` when an identical request — same
        owner, same resolved measure, same store version — is still in
        flight: its task is shared (the one engine result fans out to
        every waiter).  The version in the key is what makes this safe
        against mutations: a mid-coalesce mutation bumps the owner's
        version, so later requests key differently and compute the new
        score.  Callers sharing a coalesced task must not cancel it —
        their neighbors are waiting on it too (the HTTP layer awaits it
        behind :func:`asyncio.shield`).

        Otherwise returns ``(record, None, False)`` when the engine
        holds a memo at the key — no worker thread, no task — and
        ``(None, task, False)`` for a fresh submission.  The flight is
        joined *before* the memo is consulted: the engine memoizes a
        record before its flight's task finishes, and the flight's
        waiters are counted as coalesced.  An unknown owner is
        submitted unkeyed, so its error reaches the request through its
        own task.

        Raises
        ------
        BackpressureError
            Only when a fresh submission is actually attempted; joining
            an in-flight request or reading a memo costs no queue slot.
        """
        engine = self._engine
        try:
            version = engine.store.version(owner_id)
        except UnknownOwnerError:
            return None, self.submit(owner_id, measure), False
        key = (owner_id, engine.resolve_measure(measure), version)
        shared = self._inflight.get(key)
        if shared is not None and not shared.done():
            self._coalesced_hits += 1
            return None, shared, True
        record = engine.peek(*key)
        if record is not None:
            return record, None, False
        job = self.submit(owner_id, measure)
        self._inflight[key] = job
        job.add_done_callback(functools.partial(self._forget, key))
        return None, job, False

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Running plus queued requests right now."""
        return self._pending

    @property
    def max_pending(self) -> int:
        """The backpressure bound."""
        return self._max_pending

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` would currently accept new work."""
        return self._accepting

    def snapshot(self) -> dict[str, int | bool]:
        """JSON-ready scheduler state for the ``/metrics`` endpoint."""
        return {
            "pending": self._pending,
            "max_pending": self._max_pending,
            "owners_in_flight": len(self._turns),
            "accepting": self._accepting,
            "draining": self._draining,
            "coalesced_hits": self._coalesced_hits,
            "coalesce_inflight": len(self._inflight),
        }

    async def drain(self, timeout: float | None = None) -> dict[str, Any]:
        """Stop accepting work and finish what was accepted.

        Queued requests keep getting their turns until every accepted
        request is done — or ``timeout`` seconds pass, after which each
        request still queued fails with
        :class:`~repro.errors.BackpressureError` when its turn comes.
        Returns a JSON-ready summary: whether the drain completed, how
        much work was pending at each boundary, and a final
        engine-metrics snapshot, so callers can emit one last
        accounting line before exit.
        """
        self._accepting = False
        self._draining = True
        pending_at_signal = self._pending
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        finally:
            self._draining = False
        return {
            "drained": drained,
            "pending_at_signal": pending_at_signal,
            "pending_at_exit": self._pending,
            "engine_metrics": self._engine.metrics.snapshot(),
        }

    def close(self) -> None:
        """Stop accepting work and release the pool without waiting.

        Running engine calls finish; each queued request fails with
        :class:`~repro.errors.BackpressureError` when its turn comes.
        """
        self._accepting = False
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shut_down(self) -> BackpressureError:
        return BackpressureError(
            "scheduler is shut down", pending=self._pending, saturated=False
        )

    async def _run(self, owner_id: UserId, measure: str | None, turn: _Turn):
        try:
            async with turn.lock:
                if not (self._accepting or self._draining):
                    raise self._shut_down()
                try:
                    call = asyncio.get_running_loop().run_in_executor(
                        self._pool, self._engine.score, owner_id, measure
                    )
                except RuntimeError as error:  # the pool was released
                    raise self._shut_down() from error
                # A started job runs to its call's end, whoever cancels
                # it: the thread keeps scoring, so the owner's turn must
                # not pass on yet, and coalesced waiters want the record.
                while True:
                    try:
                        return await asyncio.shield(call)
                    except asyncio.CancelledError:
                        pass
        finally:
            self._leave(owner_id, turn)

    def _leave(self, owner_id: UserId, turn: _Turn) -> None:
        turn.count -= 1
        if not turn.count:
            del self._turns[owner_id]
        self._pending -= 1
        if not self._pending:
            self._idle.set()

    def _forget(self, key, job: asyncio.Task) -> None:
        if self._inflight.get(key) is job:
            del self._inflight[key]


def _retrieve(job: asyncio.Task) -> None:
    if not job.cancelled():
        job.exception()  # retrieved here: every waiter may be gone


__all__ = ["ScoreScheduler"]
