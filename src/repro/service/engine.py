"""The embeddable risk-scoring engine: memoized, versioned, warm-starting.

:class:`RiskEngine` turns the batch pipeline into a servable component.
Scoring dispatches through the pluggable measure registry
(:mod:`repro.measures`); the default measure is the paper's stranger
pipeline.  Scores are memoized per ``(owner, measure, graph_version)``:
an unchanged owner is served from cache; any other score is one
``compute_incremental`` call, handed the measure's pipeline state from
its last score and the store's dirty delta since.  An owner whose graph
changed is re-scored *warm*: the stranger measure replays only what the
mutations touched, landing byte-identical to a cold score, and measures
that keep no state recompute.  An owner never scored before pays the
full cold cost.  Stranger scores run the same session driver, built
from the same :class:`~repro.experiments.OwnerSessionPlan`, as
:func:`repro.experiments.run_study`, so an engine score of a pristine
owner is byte-identical to the batch study (checked via
:func:`repro.io.result_digest`).

The engine is thread-safe: per-owner locks serialize concurrent scores of
the same owner while different owners score in parallel.  One LRU table
keyed by owner holds each owner's lock and memos, bounded by
``MAX_CACHED_OWNERS`` owners so a long-running server's memory stays
flat; an entry is never evicted while any thread holds or waits on its
lock.
"""

from __future__ import annotations

import dataclasses
import json
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
from .dirty import DirtyDelta
from .store import OwnerStore

#: How a score was produced: full pipeline, warm re-score, or memo.
ScoreSource = Literal["cold", "warm", "cache"]

#: LRU bound on owners in the engine's table (each with its lock and a
#: memo per measure).  Generous; evicted memos are surfaced in
#: :class:`EngineMetrics` as ``cache_evictions``.
MAX_CACHED_OWNERS = 4096


@dataclass(frozen=True)
class ScoreRecord:
    """One served score: the result plus provenance and accounting.

    ``result`` is whatever the record's measure computes — a
    :class:`~repro.learning.results.SessionResult` for the default
    ``stranger`` measure, a JSON-ready report for the others; the
    measure also owns the result-specific blocks of :meth:`to_dict`.
    A record is served as :meth:`to_json`: the per-response head
    encoded fresh, spliced onto the measure blocks encoded once per
    memo.  Scoring itself never encodes.
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
    #: The measure's blocks of :meth:`to_dict`, built by the first call
    #: and shared with every cache-hit copy of the record, so a memo is
    #: described once rather than once per read.
    described: dict[str, Any] = dataclasses.field(
        default_factory=dict, compare=False, repr=False
    )
    #: One slot: those blocks as JSON bytes (their members, without the
    #: enclosing braces), filled by the first :meth:`to_json` and shared
    #: like ``described``, so a memo is encoded once rather than once
    #: per read.
    encoded: list[bytes] = dataclasses.field(
        default_factory=list, compare=False, repr=False
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view for the ``/score`` endpoint (its measure
        blocks are shared with the record: read, don't mutate)."""
        document = self._head()
        document.update(self._blocks())
        return document

    def to_json(self) -> bytes:
        """The ``/score`` body: byte-identical to
        ``json.dumps(self.to_dict()).encode()``."""
        if not self.encoded:
            # idempotent: racing first reads store equal bytes
            blocks = json.dumps(self._blocks())[1:-1]
            self.encoded[:] = [blocks.encode("utf-8")]
        head = json.dumps(self._head()).encode("utf-8")
        members = self.encoded[0]
        if not members:
            return head
        return b"".join((head[:-1], b", ", members, b"}"))

    def _head(self) -> dict[str, Any]:
        """The per-response fields, in wire order."""
        return {
            "owner": self.owner_id,
            "version": self.version,
            "source": self.source,
            "measure": self.measure,
            "digest": self.digest,
            "reused_labels": self.reused_labels,
            "new_queries": self.new_queries,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def _blocks(self) -> dict[str, Any]:
        if not self.described:
            blocks = get_measure(self.measure).describe(self.result)
            # a block repeating a head field would override it in place,
            # which the spliced encoding of to_json cannot reproduce
            clash = self._head().keys() & blocks.keys()
            if clash:
                raise ServiceError(
                    f"measure {self.measure!r} describes head fields "
                    f"{sorted(clash)}"
                )
            self.described.update(blocks)
        return self.described


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
class _Memo:
    """One ``(owner, measure)`` memo entry: the last record and the
    measure's pipeline state at the record's version (``None`` when the
    measure keeps none).  One entry, so one LRU position: a record and
    its state are served, touched and evicted together."""

    record: ScoreRecord
    state: Any = None


class _Owner:
    """One owner's LRU entry: its lock, the number of threads holding or
    waiting on it, and its memo per measure.

    The reference count is what makes eviction safe — an entry is only
    dropped when no thread can still serialize on it, so two threads
    can never score the same owner through different lock objects.
    """

    __slots__ = ("lock", "refs", "memos")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0
        self.memos: dict[str, _Memo] = {}


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
        clock=time.perf_counter,
    ) -> None:
        self._store = store
        self._pooling = pooling
        self._classifier = classifier
        self._config = config
        self._seed = seed
        self._use_owner_confidence = use_owner_confidence
        self._clock = clock
        self._metrics = EngineMetrics()
        # One LRU entry per owner, with a memo per measure: each measure
        # caches, warms, and invalidates independently, but all of an
        # owner's memos share the owner's version (one mutation stales
        # them all) and its LRU position.
        self._owners: OrderedDict[UserId, _Owner] = OrderedDict()
        self._guard = threading.Lock()

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

    def cached(
        self, owner_id: UserId, measure: str = DEFAULT_MEASURE
    ) -> ScoreRecord | None:
        """The memoized record for ``(owner_id, measure)``, fresh or stale."""
        with self._guard:
            owner = self._owners.get(owner_id)
            memo = None if owner is None else owner.memos.get(measure)
        return None if memo is None else memo.record

    def owners_overview(self) -> list[dict[str, Any]]:
        """Store snapshot annotated with cache state (``/owners``).

        ``cached_version``/``cache_fresh`` describe the default measure
        (the historical columns); ``cached_measures`` lists every
        measure with a fresh memo for the owner.  The memo is folded
        into an owner→records map in one pass — re-scanning the whole
        cache per owner row made ``/owners`` quadratic on large fleets.
        """
        with self._guard:
            by_owner = {
                owner_id: {
                    measure: memo.record
                    for measure, memo in owner.memos.items()
                }
                for owner_id, owner in self._owners.items()
            }
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
        keeps one, a recompute otherwise).  No cache → cold run through
        the measure.

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
        with self._owner_lock(owner_id) as owner:
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
            hit = self._serve_hit(owner_id, name, version)
            if hit is not None:
                return hit
            stale = owner.memos.get(name)
            try:
                memo = self._compute(entry, version, stale, risk_measure)
            except Exception:
                self._metrics.record_error(name)
                raise
            # persist the oracle's label grants through the store: on a
            # WAL-backed store they survive a crash, which matters because
            # labels are the loop's scarcest resource (3 per round).  The
            # grant goes first: once memoized, :meth:`peek` may serve the
            # record without the owner lock.
            record = memo.record
            granted = risk_measure.granted_labels(record.result)
            if granted:
                self._store.grant_labels(owner_id, granted)
            self._memoize(owner_id, owner, name, memo)
            self._metrics.record_score(
                record.source,
                record.elapsed_seconds,
                record.reused_labels,
                record.new_queries,
                name,
            )
            return record

    def peek(
        self, owner_id: UserId, measure: str, version: int
    ) -> ScoreRecord | None:
        """A cache-hit record for ``(owner_id, measure)`` at ``version``,
        or ``None`` — never a computation.

        ``measure`` is a resolved name (:meth:`resolve_measure`).  The
        memo is served only when its version equals both ``version`` and
        the store version read in this call, the same freshness check
        :meth:`score` makes; a hit is counted like one :meth:`score`
        serves.  No owner lock is taken, so a read is never queued
        behind a warm compute of the same owner.
        """
        try:
            current = self._store.version(owner_id)
        except UnknownOwnerError:
            return None
        if current != version:
            return None
        return self._serve_hit(owner_id, measure, version)

    def invalidate(self, owner_id: UserId) -> None:
        """Drop the owner's memo entries (the next scores run cold).

        Pipeline states go with them: ``invalidate`` promises a *cold*
        re-score, and a surviving state would silently serve a delta
        replay instead.
        """
        with self._owner_lock(owner_id) as owner:
            with self._guard:
                owner.memos.clear()

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
        self, entry, version: int, stale: _Memo | None, risk_measure
    ) -> _Memo:
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
        incremental = self._compute_incremental(
            owner_id, request, stale, risk_measure
        )
        elapsed = self._clock() - start
        score = incremental.score
        source: ScoreSource = "warm" if stale is not None else "cold"
        record = ScoreRecord(
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
        return _Memo(record=record, state=incremental.state)

    def _compute_incremental(
        self,
        owner_id: UserId,
        request: MeasureRequest,
        stale: _Memo | None,
        risk_measure,
    ):
        """Delta-replay one score through the stale memo's pipeline state.

        The dirty delta handed to the measure merges every store
        mutation since the stale record's version, the version its state
        was built at.  A ``None`` delta — no state, or the dirty log no
        longer covers the gap — makes the measure run fully and rebuild
        state, so an evicted log costs time, never correctness.
        """
        dirty: DirtyDelta | None = None
        payload = None
        if stale is not None and stale.state is not None:
            dirty = self._store.dirty_between(owner_id, stale.record.version)
            if dirty is not None:
                payload = stale.state
            # else: gap not covered by the dirty log (evicted entries or
            # a replaced graph): full rebuild, not a wrong reuse
        incremental = risk_measure.compute_incremental(
            request, payload, dirty
        )
        if incremental.stats is not None:
            self._metrics.record_incremental(dict(incremental.stats))
        return incremental

    def _serve_hit(
        self, owner_id: UserId, measure: str, version: int
    ) -> ScoreRecord | None:
        """The fresh memo as this response's record (counted), or ``None``."""
        cached = self._touch_cache(owner_id, measure, version)
        if cached is None:
            return None
        self._metrics.record_hit(measure)
        # provenance of *this response*: served from memo, free
        return dataclasses.replace(
            cached, source="cache", elapsed_seconds=0.0
        )

    def _touch_cache(
        self, owner_id: UserId, measure: str, version: int
    ) -> ScoreRecord | None:
        """The fresh memoized record, LRU-touched — or ``None``."""
        with self._guard:
            owner = self._owners.get(owner_id)
            memo = None if owner is None else owner.memos.get(measure)
            if memo is None or memo.record.version != version:
                return None
            self._owners.move_to_end(owner_id)
            return memo.record

    def _memoize(
        self, owner_id: UserId, owner: _Owner, measure: str, memo: _Memo
    ) -> None:
        """Store a memo on the held entry, evicting overflow owners."""
        with self._guard:
            owner.memos[measure] = memo
            self._owners.move_to_end(owner_id)
            evicted = self._evict()
        for _ in range(evicted):
            self._metrics.record_eviction()

    def _evict(self) -> int:
        """Drop least-recently-served owners no thread holds or awaits
        until the table fits its bound; returns the memos dropped.
        Call under the guard."""
        excess = len(self._owners) - MAX_CACHED_OWNERS
        victims = []
        for owner_id, owner in self._owners.items():
            if len(victims) >= excess:
                break
            if not owner.refs:
                victims.append(owner_id)
        return sum(len(self._owners.pop(o).memos) for o in victims)

    @contextmanager
    def _owner_lock(self, owner_id: UserId) -> Iterator[_Owner]:
        """Hold the owner's lock; yields its LRU entry.

        An entry left without memos is dropped when its last holder or
        waiter leaves, and the table is trimmed to its bound then too.
        """
        with self._guard:
            owner = self._owners.get(owner_id)
            if owner is None:
                owner = self._owners[owner_id] = _Owner()
            owner.refs += 1
        try:
            with owner.lock:
                yield owner
        finally:
            evicted = 0
            with self._guard:
                owner.refs -= 1
                if not owner.refs:
                    if not owner.memos:
                        del self._owners[owner_id]
                    evicted = self._evict()
            for _ in range(evicted):
                self._metrics.record_eviction()


__all__ = ["EngineMetrics", "RiskEngine", "ScoreRecord", "ScoreSource"]
