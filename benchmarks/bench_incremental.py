"""E21 — incremental rescoring: mutation cost is delta-proportional.

Not a paper artifact — the serving-layer argument for the dirty-set
layer.  The paper motivates active learning with *fast-changing*
stranger connections (Section III); a deployment that pays a full
pipeline re-run per mutation cannot keep up.  This bench pins the
incremental layer's acceptance contract on a mutate-heavy workload:
after a **single-edge mutation**, the delta-replay warm path must
rescore at least 5x faster than a cold recompute of the same measure on
the same mutated graph at n >= 1000 strangers — while serving a digest
byte-identical to that cold recompute.

Sweeps ``REPRO_BENCH_INCREMENTAL_SIZES`` (default ``1000,10000``)
strangers for one owner; each size measures:

* ``cold`` — the engine's first score (full pipeline, builds state);
* ``warm_incremental`` — the dirty-set delta replay after one
  stranger-stranger edge add, against ``cold_recompute`` — the measure
  run from scratch on the mutated graph;
* the NS-moving variant (friend-stranger edge): the delta actually
  perturbs similarities, so bins shift and affected pools re-run;
  ``ns_moving_cold`` is its cold recompute.

The committed snapshot lives in
``benchmarks/baselines/BENCH_incremental_baseline.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.measures import MeasureRequest, get_measure
from repro.service import OwnerStore, RiskEngine
from repro.synth import EgoNetConfig, generate_study_population

from .conftest import OUT_DIR, SEED, write_artifact

SIZES = tuple(
    int(value)
    for value in os.environ.get(
        "REPRO_BENCH_INCREMENTAL_SIZES", "1000,10000"
    ).split(",")
    if value.strip()
)


def _fresh_setup(num_strangers: int):
    population = generate_study_population(
        num_owners=1,
        ego_config=EgoNetConfig(num_friends=40, num_strangers=num_strangers),
        seed=SEED,
    )
    store = OwnerStore.from_population(population)
    owner = population.owners[0].user_id
    handle = population.handles[owner]
    return store, owner, sorted(handle.strangers), sorted(handle.friends)


def _timed_score(engine, owner):
    start = time.perf_counter()
    record = engine.score(owner)
    return time.perf_counter() - start, record


def _timed_cold_recompute(store, owner):
    """The stranger measure run from scratch on the store's current graph."""
    entry = store.get(owner)
    request = MeasureRequest(
        graph=store.graph, owner=entry.owner, index=entry.index, seed=SEED
    )
    start = time.perf_counter()
    score = get_measure("stranger").compute(request)
    return time.perf_counter() - start, score


def test_incremental_rescoring_speedup():
    results: dict[str, dict] = {}
    for size in SIZES:
        store, owner, strangers, friends = _fresh_setup(size)
        engine = RiskEngine(store, seed=SEED)
        cold_seconds, cold = _timed_score(engine, owner)
        assert cold.source == "cold"

        store.add_friendship(strangers[0], strangers[1])
        incr_seconds, incr = _timed_score(engine, owner)
        assert incr.source == "warm"
        recompute_seconds, recompute = _timed_cold_recompute(store, owner)
        assert incr.digest == recompute.digest

        store.add_friendship(friends[0], strangers[5])
        moving_seconds, moving = _timed_score(engine, owner)
        assert moving.source == "warm"
        moving_cold_seconds, moving_cold = _timed_cold_recompute(store, owner)
        assert moving.digest == moving_cold.digest

        speedup = recompute_seconds / incr_seconds if incr_seconds else float("inf")
        moving_speedup = (
            moving_cold_seconds / moving_seconds
            if moving_seconds
            else float("inf")
        )
        # acceptance contract: single-edge rescore >= 5x a cold recompute
        if size >= 1000:
            assert speedup >= 5.0, (
                f"incremental rescore only {speedup:.2f}x a cold "
                f"recompute at n={size}"
            )

        stats = engine.metrics.snapshot()["incremental"]
        results[str(size)] = {
            "cold_seconds": round(cold_seconds, 4),
            "cold_recompute_seconds": round(recompute_seconds, 4),
            "warm_incremental_seconds": round(incr_seconds, 5),
            "speedup_vs_cold": round(speedup, 1),
            "ns_moving_cold_seconds": round(moving_cold_seconds, 4),
            "ns_moving_incremental_seconds": round(moving_seconds, 5),
            "ns_moving_speedup": round(moving_speedup, 1),
            "incremental_stats": stats,
        }

    document = {
        "cpu_cores": os.cpu_count() or 1,
        "seed": SEED,
        "sizes": results,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "BENCH_incremental.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    lines = ["E21 incremental rescoring (single-edge mutation, one owner)"]
    for size, row in results.items():
        lines.append(
            f"  n={size:>6}: cold {row['cold_seconds']:>8}s   "
            f"cold recompute {row['cold_recompute_seconds']:>8}s   "
            f"incremental {row['warm_incremental_seconds']:>8}s   "
            f"({row['speedup_vs_cold']}x vs cold recompute; NS-moving "
            f"{row['ns_moving_incremental_seconds']}s, "
            f"{row['ns_moving_speedup']}x)"
        )
    write_artifact("incremental_rescoring", "\n".join(lines))
