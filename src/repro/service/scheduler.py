"""Concurrent multi-owner scoring with bounded, per-owner-ordered work.

:class:`ScoreScheduler` drives an engine from a thread pool under two
invariants a serving deployment needs:

* **per-owner serialization** — requests for the same owner run one at a
  time, in submission order (a warm re-score must see the previous
  score's pipeline state, and two cold runs of one owner would duplicate oracle
  effort);
* **backpressure** — the number of in-flight plus queued requests is
  bounded; past the bound, :meth:`submit` fails fast with
  :class:`~repro.errors.BackpressureError` instead of queueing without
  limit.  The error's ``saturated`` flag tells the HTTP layer which
  status to speak: queue-full is *429, slow down* while shutdown/drain
  is *503, fail over*.

Different owners score concurrently up to ``max_workers``.

On top of those, :meth:`ScoreScheduler.serve_or_submit` is how a read
decides a score.  It adds **request coalescing** (single-flight):
concurrent requests for the same ``(owner, measure, version)`` share
one in-flight future instead of queueing N engine calls, and every
waiter receives the identical record.  The store *version* is part of
the key, so a mutation that lands mid-coalesce bumps the version and
later requests miss the stale entry — they see the post-mutation
score, never a stale fan-out.  With no flight to join, a memo that is
fresh at the key's version is returned on the caller's thread, and
only a miss is submitted.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from ..errors import BackpressureError, ServiceError
from ..types import UserId


class ScoreScheduler:
    """Bounded worker pool serializing work per owner.

    Parameters
    ----------
    engine:
        Anything with ``score(owner_id) -> result``; normally a
        :class:`~repro.service.RiskEngine`.
    max_workers:
        Concurrent scoring threads.
    max_pending:
        Bound on in-flight plus queued requests (the backpressure knob).
    """

    def __init__(
        self,
        engine,
        max_workers: int = 4,
        max_pending: int = 64,
        executor: ThreadPoolExecutor | None = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self._engine = engine
        self._max_pending = max_pending
        self._executor = executor or ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="risk-score"
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pending = 0
        self._queues: dict[UserId, deque[tuple[Future, str | None]]] = {}
        self._busy: set[UserId] = set()
        self._shutdown = False
        self._draining = False
        # single-flight map, guarded by its own lock: done-callbacks can
        # fire synchronously on the submitting thread, and taking the
        # (non-reentrant) scheduler lock there would deadlock
        self._coalesce_lock = threading.Lock()
        self._inflight: dict[tuple[UserId, str | None, int], Future] = {}
        self._coalesced_hits = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, owner_id: UserId, measure: str | None = None
    ) -> "Future[Any]":
        """Enqueue one scoring request; returns a future for its record.

        ``measure`` names a registered risk measure; ``None`` keeps the
        engine's default.  Serialization stays per *owner* regardless of
        measure — a warm re-score of any measure must observe the store
        state its predecessor left behind.

        Raises
        ------
        BackpressureError
            When the bounded queue is full (``saturated=True``) or the
            pool is shut down (``saturated=False``).
        """
        with self._lock:
            if self._shutdown:
                raise BackpressureError(
                    "scheduler is shut down",
                    pending=self._pending,
                    saturated=False,
                )
            if self._pending >= self._max_pending:
                raise BackpressureError(
                    f"scheduler saturated: {self._pending} requests pending "
                    f"(bound {self._max_pending})",
                    pending=self._pending,
                )
            self._pending += 1
            future: Future = Future()
            if owner_id in self._busy:
                self._queues.setdefault(owner_id, deque()).append(
                    (future, measure)
                )
            else:
                self._busy.add(owner_id)
                self._executor.submit(self._run, owner_id, measure, future)
            return future

    def serve_or_submit(
        self, owner_id: UserId, measure: str | None = None
    ) -> "tuple[Any, Future[Any] | None, bool]":
        """Join a running flight, answer from a fresh memo, or submit.

        Returns ``(None, future, True)`` when an identical request —
        same owner, same resolved measure, same store version — is
        still in flight: its future is shared (the one engine result
        fans out to every waiter).  The version in the key is what makes
        this safe against mutations: a mid-coalesce mutation bumps the
        owner's version, so later requests key differently and compute
        the new score.  Callers sharing a coalesced future must not
        cancel it — their neighbors are waiting on it too (the async
        front-end shields it accordingly).

        Otherwise returns ``(record, None, False)`` when the engine
        holds a memo at the key — no worker thread, no future — and
        ``(None, future, False)`` for a fresh submission.  The flight is
        joined *before* the memo is consulted: the engine memoizes a
        record before its flight's future resolves, and the flight's
        waiters are counted as coalesced.  Engines without a
        ``store``/``version`` (duck-typed fakes) are never coalesced,
        and engines without a ``peek`` always take the submit path.

        Raises
        ------
        BackpressureError
            Only when a fresh submission is actually attempted; joining
            an in-flight request or reading a memo costs no queue slot.
        """
        key = self._coalesce_key(owner_id, measure)
        shared = self._join(key)
        if shared is not None:
            return None, shared, True
        peek = getattr(self._engine, "peek", None)
        if key is not None and callable(peek):
            record = peek(*key)
            if record is not None:
                return record, None, False
        return None, self._submit_keyed(key, owner_id, measure), False

    def _join(self, key) -> "Future[Any] | None":
        """The running flight for ``key`` (counted as a coalesced hit)."""
        if key is None:
            return None
        with self._coalesce_lock:
            shared = self._inflight.get(key)
            if shared is not None and not shared.done():
                self._coalesced_hits += 1
                return shared
        return None

    def _submit_keyed(
        self, key, owner_id: UserId, measure: str | None
    ) -> "Future[Any]":
        """:meth:`submit`, registering the future as ``key``'s flight."""
        future = self.submit(owner_id, measure)
        if key is not None:
            with self._coalesce_lock:
                if key not in self._inflight:
                    self._inflight[key] = future
            future.add_done_callback(
                lambda done, key=key: self._uncoalesce(key, done)
            )
        return future

    def _coalesce_key(
        self, owner_id: UserId, measure: str | None
    ) -> tuple[UserId, str | None, int] | None:
        """The single-flight key, or ``None`` when the engine can't
        vouch for one (no store/version → coalescing disabled)."""
        store = getattr(self._engine, "store", None)
        resolve = getattr(self._engine, "resolve_measure", None)
        if store is None:
            return None
        try:
            version = store.version(owner_id)
        except Exception:
            # unknown owner (or a storeless fake): let the plain path
            # deliver the per-request error through its own future
            return None
        name = resolve(measure) if callable(resolve) else measure
        return (owner_id, name, version)

    def _uncoalesce(self, key, done: Future) -> None:
        with self._coalesce_lock:
            if self._inflight.get(key) is done:
                del self._inflight[key]

    def score(
        self,
        owner_id: UserId,
        timeout: float | None = None,
        measure: str | None = None,
    ):
        """Blocking convenience wrapper: submit and wait for the record."""
        return self.submit(owner_id, measure).result(timeout=timeout)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """In-flight plus queued requests right now."""
        with self._lock:
            return self._pending

    @property
    def max_pending(self) -> int:
        """The backpressure bound."""
        return self._max_pending

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` would currently accept new work."""
        with self._lock:
            return not self._shutdown

    def snapshot(self) -> dict[str, int | bool]:
        """JSON-ready scheduler state for the ``/metrics`` endpoint."""
        with self._coalesce_lock:
            coalesced_hits = self._coalesced_hits
            coalesce_inflight = len(self._inflight)
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self._max_pending,
                "owners_in_flight": len(self._busy),
                "accepting": not self._shutdown,
                "draining": self._draining,
                "coalesced_hits": coalesced_hits,
                "coalesce_inflight": coalesce_inflight,
            }

    def shutdown(
        self,
        wait: bool = True,
        *,
        drain: bool = False,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Stop accepting work; returns a JSON-ready shutdown summary.

        With ``drain=False`` (the default, and the historical behavior)
        queued-but-not-started requests are failed with
        :class:`~repro.errors.BackpressureError` and only in-flight work
        is awaited (when ``wait``).  With ``drain=True`` the scheduler
        keeps dispatching the per-owner queues until every accepted
        request has completed — or ``timeout`` seconds pass, after which
        the remaining backlog is failed.

        The summary reports whether the drain completed, how much work
        was pending at each boundary, and — when the engine exposes
        ``metrics`` — a final engine-metrics snapshot, so callers can
        emit one last accounting line before exit.
        """
        with self._idle:
            self._shutdown = True
            self._draining = drain
            pending_at_signal = self._pending
        drained = True
        if drain and pending_at_signal:
            with self._idle:
                drained = self._idle.wait_for(
                    lambda: self._pending == 0, timeout=timeout
                )
        with self._idle:
            self._draining = False
            pending_at_exit = self._pending
        self._executor.shutdown(wait=wait and drained)
        summary: dict[str, Any] = {
            "drained": drained,
            "pending_at_signal": pending_at_signal,
            "pending_at_exit": pending_at_exit,
        }
        metrics = getattr(self._engine, "metrics", None)
        if metrics is not None and hasattr(metrics, "snapshot"):
            summary["engine_metrics"] = metrics.snapshot()
        return summary

    def __enter__(self) -> "ScoreScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run(
        self, owner_id: UserId, measure: str | None, future: Future
    ) -> None:
        if not future.set_running_or_notify_cancel():
            self._finish(owner_id)
            return
        try:
            # The positional call keeps duck-typed engines (test fakes
            # with a plain ``score(owner_id)``) working measure-free.
            if measure is None:
                record = self._engine.score(owner_id)
            else:
                record = self._engine.score(owner_id, measure=measure)
        except BaseException as error:  # delivered via the future
            future.set_exception(error)
        else:
            future.set_result(record)
        finally:
            self._finish(owner_id)

    def _finish(self, owner_id: UserId) -> None:
        with self._lock:
            self._pending -= 1
            queue = self._queues.get(owner_id)
            if queue and (not self._shutdown or self._draining):
                next_future, next_measure = queue.popleft()
                if not queue:
                    del self._queues[owner_id]
                try:
                    self._executor.submit(
                        self._run, owner_id, next_measure, next_future
                    )
                except RuntimeError:
                    # Pool shut down (or killed) under us.  Nothing will
                    # ever run this owner's queue again, so fail *all* of
                    # it — failing only next_future would leave the rest
                    # counted in _pending forever and hang drain waiters.
                    orphans = [next_future]
                    orphans.extend(
                        entry[0] for entry in self._queues.pop(owner_id, ())
                    )
                    self._busy.discard(owner_id)
                    for orphan in orphans:
                        self._pending -= 1
                        orphan.set_exception(
                            BackpressureError(
                                "scheduler is shut down", saturated=False
                            )
                        )
                    if self._pending == 0:
                        self._idle.notify_all()
                return
            if queue:  # shutting down without drain: fail the backlog
                del self._queues[owner_id]
                for orphan, _ in queue:
                    self._pending -= 1
                    orphan.set_exception(
                        BackpressureError(
                            "scheduler is shut down", saturated=False
                        )
                    )
            self._busy.discard(owner_id)
            if self._pending == 0:
                self._idle.notify_all()


__all__ = ["ScoreScheduler"]
