"""The embeddable risk-scoring engine: memoized, versioned, warm-starting.

:class:`RiskEngine` turns the batch pipeline into a servable component.
Scoring dispatches through the pluggable measure registry
(:mod:`repro.measures`); the default measure is the paper's stranger
pipeline.  Scores are memoized per ``(owner, measure, graph_version)``:
an unchanged owner is
served from cache; an owner whose graph changed since the last score is
re-scored *warm* — measures with ``compute_incremental`` replay only what
the store's dirty log says the mutations touched, landing byte-identical
to a cold score, and the rest recompute; an owner never scored before
pays the full cold cost.  Cold
scores are built from the same :class:`~repro.experiments.OwnerSessionPlan`
as :func:`repro.experiments.run_study`, so an engine score of a pristine
owner is byte-identical to the batch study (checked via
:func:`repro.io.result_digest`).

The engine is thread-safe: per-owner locks serialize concurrent scores of
the same owner while different owners score in parallel.  The memo and
the lock table are LRU-bounded (``max_cached_owners``) so a long-running
server's memory stays flat; a lock is never dropped while any thread
holds or waits on it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Literal

from ..config import PipelineConfig
from ..errors import ServiceError, UnknownMeasureError, UnknownOwnerError
from ..measures import DEFAULT_MEASURE, MeasureRequest, get_measure
from ..types import UserId
from .dirty import DirtyDelta, EMPTY_DELTA
from .store import OwnerStore

#: How a score was produced: full pipeline, warm re-score, or memo.
ScoreSource = Literal["cold", "warm", "cache"]


@dataclass(frozen=True)
class ScoreRecord:
    """One served score: the result plus provenance and accounting.

    ``result`` is whatever the record's measure computes — a
    :class:`~repro.learning.results.SessionResult` for the default
    ``stranger`` measure, a JSON-ready report for the others; the
    measure also owns the result-specific blocks of :meth:`to_dict`.
    """

    owner_id: UserId
    version: int
    source: ScoreSource
    result: Any
    digest: str
    reused_labels: int
    new_queries: int
    elapsed_seconds: float
    measure: str = DEFAULT_MEASURE

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view for the ``/score`` endpoint."""
        document: dict[str, Any] = {
            "owner": self.owner_id,
            "version": self.version,
            "source": self.source,
            "measure": self.measure,
            "digest": self.digest,
            "reused_labels": self.reused_labels,
            "new_queries": self.new_queries,
            "elapsed_seconds": self.elapsed_seconds,
        }
        document.update(get_measure(self.measure).describe(self.result))
        return document


class _LatencyAccumulator:
    """Full-run count/mean/max plus a bounded window of recent samples.

    A long-running server records millions of latencies; keeping every
    sample is an unbounded leak.  The accumulator folds each sample into
    running aggregates (count, total, max — exact over the full run) and
    retains only the last ``window`` samples for recency stats.
    """

    __slots__ = ("count", "total", "max_value", "recent")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.recent: deque[float] = deque(maxlen=window)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        self.recent.append(value)

    def stats(self) -> dict[str, float] | None:
        if not self.count:
            return None
        recent = list(self.recent)
        return {
            "count": self.count,
            "mean_seconds": self.total / self.count,
            "max_seconds": self.max_value,
            "recent_mean_seconds": sum(recent) / len(recent),
        }


class EngineMetrics:
    """Thread-safe serving counters for the ``/metrics`` endpoint.

    Latency accounting is bounded: per-source running aggregates stay
    exact over the whole run while only ``latency_window`` recent samples
    are retained (see :class:`_LatencyAccumulator`).
    """

    def __init__(self, latency_window: int = 512) -> None:
        if latency_window < 1:
            raise ServiceError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._lock = threading.Lock()
        self.requests = 0
        self.cache_hits = 0
        self.cold_scores = 0
        self.warm_scores = 0
        self.errors = 0
        self.reused_labels = 0
        self.new_queries = 0
        self.cache_evictions = 0
        self.incremental_scores = 0
        self._incremental_totals: dict[str, int] = {
            "full_runs": 0,
            "ns_reused": 0,
            "ns_recomputed": 0,
            "benefits_reused": 0,
            "benefits_recomputed": 0,
            "groups_reused": 0,
            "pools_reused": 0,
            "pools_rerun": 0,
        }
        self._latency_window = latency_window
        self._latency: dict[str, _LatencyAccumulator] = {
            "cold": _LatencyAccumulator(latency_window),
            "warm": _LatencyAccumulator(latency_window),
        }
        self._measures: dict[str, dict[str, Any]] = {}

    def _measure_block(self, measure: str) -> dict[str, Any]:
        """Per-measure counters, created on first touch (lock held)."""
        block = self._measures.get(measure)
        if block is None:
            block = self._measures[measure] = {
                "requests": 0,
                "cache_hits": 0,
                "cold_scores": 0,
                "warm_scores": 0,
                "errors": 0,
                "latency": {
                    "cold": _LatencyAccumulator(self._latency_window),
                    "warm": _LatencyAccumulator(self._latency_window),
                },
            }
        return block

    def record_hit(self, measure: str = DEFAULT_MEASURE) -> None:
        """Count one request served straight from the memo."""
        with self._lock:
            self.requests += 1
            self.cache_hits += 1
            block = self._measure_block(measure)
            block["requests"] += 1
            block["cache_hits"] += 1

    def record_score(
        self,
        source: str,
        elapsed: float,
        reused: int,
        queries: int,
        measure: str = DEFAULT_MEASURE,
    ) -> None:
        """Count one computed score and its latency/label accounting."""
        with self._lock:
            self.requests += 1
            block = self._measure_block(measure)
            block["requests"] += 1
            if source == "cold":
                self.cold_scores += 1
                block["cold_scores"] += 1
            else:
                self.warm_scores += 1
                block["warm_scores"] += 1
            self._latency[source].add(elapsed)
            block["latency"][source].add(elapsed)
            self.reused_labels += reused
            self.new_queries += queries

    def record_error(self, measure: str | None = DEFAULT_MEASURE) -> None:
        """Count one request that raised instead of scoring.

        ``measure=None`` counts only the global totals — the path for
        :class:`~repro.errors.UnknownMeasureError`, where creating a
        per-measure block keyed by an arbitrary client-supplied name
        would let callers grow the metrics dict without bound.
        """
        with self._lock:
            self.requests += 1
            self.errors += 1
            if measure is None:
                return
            block = self._measure_block(measure)
            block["requests"] += 1
            block["errors"] += 1

    def record_incremental(self, stats: dict[str, Any]) -> None:
        """Fold one incremental score's delta accounting into the totals."""
        with self._lock:
            self.incremental_scores += 1
            if stats.get("full_run"):
                self._incremental_totals["full_runs"] += 1
            for key in self._incremental_totals:
                if key == "full_runs":
                    continue
                self._incremental_totals[key] += int(stats.get(key, 0))

    def record_eviction(self) -> None:
        """Count one memoized record dropped by the LRU bound."""
        with self._lock:
            self.cache_evictions += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served straight from cache."""
        with self._lock:
            if self.requests == 0:
                return 0.0
            return self.cache_hits / self.requests

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every counter."""
        with self._lock:
            requests = self.requests
            return {
                "requests": requests,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": (
                    self.cache_hits / requests if requests else 0.0
                ),
                "cold_scores": self.cold_scores,
                "warm_scores": self.warm_scores,
                "errors": self.errors,
                "reused_labels": self.reused_labels,
                "new_queries": self.new_queries,
                "cache_evictions": self.cache_evictions,
                "incremental": {
                    "scores": self.incremental_scores,
                    **dict(self._incremental_totals),
                },
                "latency_window": self._latency_window,
                "latency": {
                    "cold": self._latency["cold"].stats(),
                    "warm": self._latency["warm"].stats(),
                },
                "measures": {
                    name: {
                        "requests": block["requests"],
                        "cache_hits": block["cache_hits"],
                        "cold_scores": block["cold_scores"],
                        "warm_scores": block["warm_scores"],
                        "errors": block["errors"],
                        "latency": {
                            "cold": block["latency"]["cold"].stats(),
                            "warm": block["latency"]["warm"].stats(),
                        },
                    }
                    for name, block in sorted(self._measures.items())
                },
            }


@dataclass
class _PipelineState:
    """One measure's carry-over state, tagged with its graph version."""

    version: int
    payload: Any


class _CountedLock:
    """A lock plus the number of threads holding or waiting on it.

    The engine's lock table is LRU-pruned; the reference count is what
    makes pruning safe — an entry is only dropped when no thread can
    still serialize on it, so two threads can never score the same owner
    through different lock objects.
    """

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


class RiskEngine:
    """Versioned, memoizing scoring front of the learning pipeline.

    Parameters
    ----------
    store:
        The owner registry; its versions drive cache invalidation.
    pooling, classifier, config, seed, use_owner_confidence:
        Study parameters, with the same meaning (and defaults) as in
        :func:`repro.experiments.run_study`.  A cold engine score with a
        given ``seed`` equals the batch study's result for that owner.
    max_cached_owners:
        LRU bound on memoized records and the per-owner lock table.
        Generous by default; evictions are surfaced in
        :class:`EngineMetrics` as ``cache_evictions``.
    clock:
        Monotonic time source for latency accounting (injectable).
    """

    def __init__(
        self,
        store: OwnerStore,
        pooling: str = "npp",
        classifier: str = "harmonic",
        config: PipelineConfig | None = None,
        seed: int = 0,
        use_owner_confidence: bool = True,
        max_cached_owners: int = 4096,
        clock=time.perf_counter,
    ) -> None:
        if max_cached_owners < 1:
            raise ServiceError(
                f"max_cached_owners must be >= 1, got {max_cached_owners}"
            )
        self._store = store
        self._pooling = pooling
        self._classifier = classifier
        self._config = config
        self._seed = seed
        self._use_owner_confidence = use_owner_confidence
        self._max_cached_owners = max_cached_owners
        self._clock = clock
        self._metrics = EngineMetrics()
        # Memo keyed by (owner, measure): each measure caches, warms,
        # and invalidates independently, but all of an owner's entries
        # share the owner's version (one mutation stales them all).
        self._cache: OrderedDict[tuple[UserId, str], ScoreRecord] = (
            OrderedDict()
        )
        # Incremental pipeline states, keyed like the memo and bounded
        # by the same LRU limit.  A state is advisory: losing one only
        # costs the next warm score a full (state-rebuilding) run.
        self._states: OrderedDict[tuple[UserId, str], _PipelineState] = (
            OrderedDict()
        )
        self._cache_guard = threading.Lock()
        self._owner_locks: dict[UserId, _CountedLock] = {}
        self._locks_guard = threading.Lock()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def store(self) -> OwnerStore:
        """The backing owner store."""
        return self._store

    @property
    def metrics(self) -> EngineMetrics:
        """Serving counters."""
        return self._metrics

    @property
    def max_cached_owners(self) -> int:
        """The LRU bound on memoized records."""
        return self._max_cached_owners

    def cached(
        self, owner_id: UserId, measure: str = DEFAULT_MEASURE
    ) -> ScoreRecord | None:
        """The memoized record for ``(owner_id, measure)``, fresh or stale."""
        with self._cache_guard:
            return self._cache.get((owner_id, measure))

    def owners_overview(self) -> list[dict[str, Any]]:
        """Store snapshot annotated with cache state (``/owners``).

        ``cached_version``/``cache_fresh`` describe the default measure
        (the historical columns); ``cached_measures`` lists every
        measure with a fresh memo for the owner.  The memo is folded
        into an owner→records map in one pass — re-scanning the whole
        cache per owner row made ``/owners`` quadratic on large fleets.
        """
        by_owner: dict[UserId, dict[str, ScoreRecord]] = {}
        with self._cache_guard:
            for (owner_id, measure), record in self._cache.items():
                by_owner.setdefault(owner_id, {})[measure] = record
        overview = []
        for row in self._store.snapshot():
            records = by_owner.get(row["owner"], {})
            cached = records.get(DEFAULT_MEASURE)
            row["cached_version"] = cached.version if cached else None
            row["cache_fresh"] = (
                cached is not None and cached.version == row["version"]
            )
            row["cached_measures"] = sorted(
                measure
                for measure, record in records.items()
                if record.version == row["version"]
            )
            overview.append(row)
        return overview

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def resolve_measure(self, measure: str | None = None) -> str:
        """The canonical measure name a request will be scored under.

        ``None`` resolves to the engine default.  This is the
        normalization the scheduler's request coalescing keys on: a
        ``/score?owner=7`` and a ``/score?owner=7&measure=stranger``
        must collapse into one engine call, so both must map to the
        same ``(owner, measure, version)`` key.  No registry lookup —
        unknown names pass through and fail inside :meth:`score`, where
        the error is delivered per-request.
        """
        return DEFAULT_MEASURE if measure is None else measure

    def score(
        self, owner_id: UserId, measure: str | None = None
    ) -> ScoreRecord:
        """Serve one owner's score, as cheaply as freshness allows.

        Cache hit → the memoized record.  Stale cache → warm re-score
        (a delta replay through the measure's pipeline state when it
        supports incremental scoring, a recompute otherwise).  No cache
        → cold run through the measure.

        Raises
        ------
        UnknownOwnerError
            If ``owner_id`` is not registered with the store.
        UnknownMeasureError
            If ``measure`` names no registered risk measure.
        """
        name = DEFAULT_MEASURE if measure is None else measure
        try:
            risk_measure = get_measure(name)
        except UnknownMeasureError:
            # Global-only accounting: a per-measure block keyed by an
            # arbitrary unknown name would be unbounded.
            self._metrics.record_error(None)
            raise
        with self._owner_lock(owner_id):
            # The entry must be fetched *inside* the owner lock: a
            # concurrent attach_entry (migration) or universe-widening
            # add_friendship swaps/extends the entry, and a pre-lock
            # fetch could compute a stale owner/universe against a
            # freshly bumped version.
            try:
                entry = self._store.get(owner_id)
            except UnknownOwnerError:
                self._metrics.record_error(name)
                raise
            version = entry.version
            cached = self._touch_cache(owner_id, name, version)
            if cached is not None:
                self._metrics.record_hit(name)
                # provenance of *this response*: served from memo, free
                return dataclasses.replace(
                    cached, source="cache", elapsed_seconds=0.0
                )
            stale = self.cached(owner_id, name)
            try:
                record = self._compute(entry, version, stale, risk_measure)
            except Exception:
                self._metrics.record_error(name)
                raise
            self._memoize(owner_id, name, record)
            # persist the oracle's label grants through the store: on a
            # WAL-backed store they survive a crash, which matters because
            # labels are the loop's scarcest resource (3 per round)
            granted = risk_measure.granted_labels(record.result)
            if granted:
                self._store.grant_labels(owner_id, granted)
            self._metrics.record_score(
                record.source,
                record.elapsed_seconds,
                record.reused_labels,
                record.new_queries,
                name,
            )
            return record

    def invalidate(self, owner_id: UserId) -> None:
        """Drop the owner's memoized records (the next scores run cold).

        Pipeline states go with them: ``invalidate`` promises a *cold*
        re-score, and a surviving state would silently serve a delta
        replay instead.
        """
        with self._owner_lock(owner_id):
            with self._cache_guard:
                for key in [
                    key for key in self._cache if key[0] == owner_id
                ]:
                    del self._cache[key]
                for key in [
                    key for key in self._states if key[0] == owner_id
                ]:
                    del self._states[key]

    def invalidate_many(self, owner_ids: Iterable[UserId]) -> None:
        """Drop memoized records for several owners at once.

        Live rebalancing calls this when owners migrate off this shard:
        stale records for detached owners are unreachable (the router no
        longer routes them here) but would pin their graphs in memory.
        """
        for owner_id in owner_ids:
            self.invalidate(owner_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compute(
        self, entry, version: int, cached: ScoreRecord | None, risk_measure
    ) -> ScoreRecord:
        owner_id = entry.owner.user_id
        request = MeasureRequest(
            graph=self._store.graph,
            owner=entry.owner,
            index=entry.index,
            pooling=self._pooling,
            classifier=self._classifier,
            config=self._config,
            seed=self._seed,
            use_owner_confidence=self._use_owner_confidence,
        )
        start = self._clock()
        if risk_measure.supports_incremental:
            score = self._compute_incremental(
                owner_id, request, version, cached, risk_measure
            )
        else:
            score = risk_measure.compute(request)
        elapsed = self._clock() - start
        source: ScoreSource = "warm" if cached is not None else "cold"
        return ScoreRecord(
            owner_id=entry.owner.user_id,
            version=version,
            source=source,
            result=score.result,
            digest=score.digest,
            reused_labels=score.reused_labels,
            new_queries=score.new_queries,
            elapsed_seconds=elapsed,
            measure=risk_measure.name,
        )

    def _compute_incremental(
        self,
        owner_id: UserId,
        request: MeasureRequest,
        version: int,
        cached: ScoreRecord | None,
        risk_measure,
    ):
        """Delta-replay one score through the measure's pipeline state.

        The dirty delta handed to the measure merges every store
        mutation between the state's version and ``version`` (the
        version read under the owner lock at the top of :meth:`score`).
        A ``None`` delta — no state, or the dirty log no longer covers
        the gap — makes the measure run fully and rebuild state, so a
        lost state or evicted log costs time, never correctness.
        """
        with self._cache_guard:
            state = self._states.get((owner_id, risk_measure.name))
            if state is not None:
                self._states.move_to_end((owner_id, risk_measure.name))
        dirty: DirtyDelta | None = None
        payload = None
        if state is not None and cached is not None:
            payload = state.payload
            if state.version == version:
                dirty = EMPTY_DELTA
            else:
                dirty = self._store.dirty_between(owner_id, state.version)
            if dirty is None:
                # Gap not covered by the dirty log (evicted entries or a
                # replaced graph): full rebuild, not a wrong reuse.
                payload = None
        incremental = risk_measure.compute_incremental(
            request, payload, dirty
        )
        if incremental.state is not None:
            with self._cache_guard:
                key = (owner_id, risk_measure.name)
                self._states[key] = _PipelineState(
                    version=version, payload=incremental.state
                )
                self._states.move_to_end(key)
                while len(self._states) > self._max_cached_owners:
                    self._states.popitem(last=False)
        if incremental.stats is not None:
            self._metrics.record_incremental(dict(incremental.stats))
        return incremental.score

    def _touch_cache(
        self, owner_id: UserId, measure: str, version: int
    ) -> ScoreRecord | None:
        """The fresh memoized record, LRU-touched — or ``None``."""
        with self._cache_guard:
            cached = self._cache.get((owner_id, measure))
            if cached is None or cached.version != version:
                return None
            self._cache.move_to_end((owner_id, measure))
            return cached

    def _memoize(
        self, owner_id: UserId, measure: str, record: ScoreRecord
    ) -> None:
        """Store a record, evicting least-recently-served overflow."""
        evicted = 0
        with self._cache_guard:
            self._cache[(owner_id, measure)] = record
            self._cache.move_to_end((owner_id, measure))
            while len(self._cache) > self._max_cached_owners:
                self._cache.popitem(last=False)
                evicted += 1
        for _ in range(evicted):
            self._metrics.record_eviction()

    @contextmanager
    def _owner_lock(self, owner_id: UserId) -> Iterator[None]:
        """Serialize work per owner via a reference-counted lock table.

        Entries whose reference count hits zero are pruned once the table
        exceeds the LRU bound — a held (or waited-on) lock is never
        dropped, so same-owner serialization survives eviction pressure.
        """
        with self._locks_guard:
            entry = self._owner_locks.get(owner_id)
            if entry is None:
                entry = self._owner_locks[owner_id] = _CountedLock()
            entry.refs += 1
        try:
            with entry.lock:
                yield
        finally:
            with self._locks_guard:
                entry.refs -= 1
                if (
                    entry.refs == 0
                    and len(self._owner_locks) > self._max_cached_owners
                ):
                    for candidate in list(self._owner_locks):
                        if len(self._owner_locks) <= self._max_cached_owners:
                            break
                        if self._owner_locks[candidate].refs == 0:
                            del self._owner_locks[candidate]


__all__ = ["EngineMetrics", "RiskEngine", "ScoreRecord", "ScoreSource"]
