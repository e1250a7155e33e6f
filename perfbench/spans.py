"""Span tracing from outside the program.

:func:`instrument` wraps the public functions of each layer, where the
calling code looks them up, so every call records a span (name, start,
end, parent, op id) plus a few counts read off its arguments or result.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end of
a run.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, time.perf_counter(), parent, op)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    @contextmanager
    def op(self, op_id: int) -> Iterator[Span]:
        """The root span of one benchmark op."""
        index = self.open("op", op_id)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    counts: Callable[[tuple, Any], dict[str, float]] | None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if counts is not None:
            span.counts.update(counts(args, result))
        return result

    return traced


def _replay_counts(args, outcome) -> dict[str, float]:
    stats = outcome.stats
    return {
        "ns_recomputed": stats.ns_recomputed,
        "pools_rerun": stats.pools_rerun,
        "pools_reused": stats.pools_reused,
    }


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner object, attribute, span name, counts)`` for every layer."""
    from repro.benefits import model as benefits_model
    from repro.classifier import harmonic
    from repro.clustering import pools
    from repro.learning import pool_learner, replay
    from repro.measures import stranger
    from repro.service import engine, store, wal
    from repro.similarity import network

    def mutation_counts(args, affected):
        return {"dirty_owners": len(affected) if affected is not None else 1}

    targets = [
        (
            network.NetworkSimilarity,
            "for_strangers",
            "ns",
            lambda args, result: {"strangers": len(args[3])},
        ),
        (benefits_model.BenefitModel, "for_strangers", "benefits", None),
        (
            replay,
            "build_pools_cached",
            "pools.build",
            lambda args, result: {
                "groups_reused": result[2],
                "groups_total": len(result[1]),
            },
        ),
        (pools, "squeezer", "squeezer", None),
        (
            pool_learner.PoolLearner,
            "run",
            "pool.run",
            lambda args, result: {"rounds": result.num_rounds},
        ),
        (harmonic.HarmonicClassifier, "predict", "harmonic.predict", None),
        (stranger, "result_digest", "digest", None),
        (stranger, "replay_session", "replay", _replay_counts),
        (wal.WriteAheadLog, "append", "wal.append", None),
        (wal.WriteAheadLog, "wait_durable", "wal.durable_wait", None),
        (
            engine.RiskEngine,
            "score",
            "engine.score",
            lambda args, record: {"source." + record.source: 1},
        ),
        (store.OwnerStore, "grant_labels", "store.grant", None),
    ]
    for method in (
        "add_friendship",
        "remove_friendship",
        "update_profile",
        "add_user",
        "touch",
    ):
        counts = None if method in ("add_user", "touch") else mutation_counts
        targets.append((store.OwnerStore, method, "store.mutate", counts))
    return targets


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer entry point to record spans; undo on exit."""
    saved = []
    try:
        for owner, attribute, name, counts in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, original, counts))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@dataclass
class LayerTotals:
    """Per-span-name aggregates over the op spans of a traced phase."""

    calls: dict[str, int] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    total_time: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    ops: int = 0
    op_time: float = 0.0

    def self_ms_per_op(self, name: str) -> float:
        return 1e3 * self.self_time.get(name, 0.0) / max(self.ops, 1)

    def per_op(self, value: float) -> float:
        return value / max(self.ops, 1)

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.total_time.get(name, 0.0) / calls if calls else 0.0

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)


def aggregate(spans: list[Span]) -> LayerTotals:
    """Fold closed spans that belong to an op into per-name totals."""
    totals = LayerTotals()
    for span in spans:
        if span.op is None:
            continue
        if span.name == "op":
            totals.ops += 1
            totals.op_time += span.duration
        totals.calls[span.name] = totals.calls.get(span.name, 0) + 1
        totals.self_time[span.name] = (
            totals.self_time.get(span.name, 0.0) + span.self_time
        )
        totals.total_time[span.name] = (
            totals.total_time.get(span.name, 0.0) + span.duration
        )
        for key, value in span.counts.items():
            full = f"{span.name}.{key}"
            totals.counts[full] = totals.counts.get(full, 0.0) + value
    return totals


def score_ms_by_source(spans: list[Span]) -> dict[str, float]:
    """Mean inclusive ``RiskEngine.score`` time per result source."""
    sums: dict[str, list[float]] = {}
    for span in spans:
        if span.name != "engine.score" or span.op is None:
            continue
        for key in span.counts:
            source = key.split(".", 1)[1]
            sums.setdefault(source, []).append(span.duration)
    return {
        source: 1e3 * sum(values) / len(values)
        for source, values in sums.items()
    }
