"""E19 — serving performance: cold vs cached vs warm scoring throughput.

Not a paper artifact — the serving-layer counterpart of E18.  A
deployment's request cost depends on cache state: the first score of an
owner pays the full pipeline (cold), an unchanged owner is a memo lookup
(cached), and an owner whose graph changed re-learns warm with prior
labels reused.  This bench measures requests/sec for each regime through
the real engine + scheduler stack and pins the service PR's acceptance
contract: serving an unchanged owner is at least 5x faster than cold.

The sharded section boots the real ``serve --shards N`` topology
(router + N worker subprocesses) at 1/2/4 shards, asserts every
topology serves byte-identical digests, and records the cold/cached
throughput sweep (a committed snapshot, stamped with ``cpu_cores``,
lives in ``benchmarks/baselines/BENCH_shard_scaling_baseline.json``).
Clients hold keep-alive sessions (one persistent connection per
thread, via :class:`~benchmarks.conftest.KeepAliveClient`) so the
sweep times the service rather than per-request TCP setup — the
committed baseline was refreshed when this landed, since the old
fresh-connection-per-request numbers understated cached throughput.

The per-measure section sweeps every registered risk measure through
the engine + scheduler stack — cold and cached — asserting digest
determinism across fresh engines, and snapshots the relative cost of
each measure (``benchmarks/baselines/BENCH_measure_throughput_baseline
.json``): ``stranger`` pays the full active-learning pipeline while
``friendship``/``neighborhood`` are orders of magnitude cheaper, which
is exactly why the cache keys on ``(owner, measure, version)``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.service import OwnerStore, RiskEngine, ScoreScheduler

from .conftest import OUT_DIR, SEED, KeepAliveClient, write_artifact

CACHED_ROUNDS = 20

#: Shard counts the scaling section sweeps (always through the router,
#: so the comparison isolates shard parallelism, not proxy overhead).
SHARD_TOPOLOGIES = (1, 2, 4)
#: Cohort for the sharded sweep — its own knobs: each shard worker
#: boots the full population, so this must stay far smaller than the
#: in-process benches' cohort.
SHARD_OWNERS = int(os.environ.get("REPRO_BENCH_SHARD_OWNERS", "8"))
SHARD_STRANGERS = int(os.environ.get("REPRO_BENCH_SHARD_STRANGERS", "60"))


def test_service_throughput(benchmark, population):
    engine = RiskEngine(OwnerStore.from_population(population), seed=SEED)
    owner_ids = engine.store.owner_ids()
    loop = asyncio.new_event_loop()
    scheduler = ScoreScheduler(engine, max_workers=4, max_pending=256)
    try:
        # --- cold: every owner pays the full pipeline, concurrently ---
        start = time.perf_counter()
        cold_records = loop.run_until_complete(
            _score_all(scheduler, owner_ids)
        )
        cold_elapsed = time.perf_counter() - start

        # --- cached: the steady serving state, measured by the harness ---
        def cached_sweep():
            loop.run_until_complete(_score_all(scheduler, owner_ids))

        benchmark.pedantic(cached_sweep, rounds=CACHED_ROUNDS, iterations=1)

        # --- warm: one owner's graph changes, labels are reused ---
        touched = owner_ids[0]
        engine.store.touch(touched)
        start = time.perf_counter()
        (warm_record,) = loop.run_until_complete(
            _score_all(scheduler, [touched])
        )
        warm_elapsed = time.perf_counter() - start
    finally:
        scheduler.close()
        loop.close()

    assert all(record.source == "cold" for record in cold_records)
    assert warm_record.source == "warm"
    assert warm_record.reused_labels > 0

    snapshot = engine.metrics.snapshot()
    cold_mean = snapshot["latency"]["cold"]["mean_seconds"]
    cached_requests = CACHED_ROUNDS * len(owner_ids)
    cached_mean = benchmark.stats.stats.mean / len(owner_ids)

    # acceptance contract: unchanged owners are served >= 5x faster
    assert cached_mean * 5 <= cold_mean

    document = {
        "owners": len(owner_ids),
        "cold": {
            "requests": len(owner_ids),
            "elapsed_seconds": round(cold_elapsed, 4),
            "requests_per_second": round(len(owner_ids) / cold_elapsed, 2),
            "mean_latency_seconds": round(cold_mean, 4),
        },
        "cached": {
            "requests": cached_requests,
            "mean_latency_seconds": round(cached_mean, 6),
            "requests_per_second": round(1.0 / cached_mean, 1),
        },
        "warm": {
            "elapsed_seconds": round(warm_elapsed, 4),
            "reused_labels": warm_record.reused_labels,
            "new_queries": warm_record.new_queries,
        },
        "cache_hit_rate": round(snapshot["cache_hit_rate"], 4),
        "speedup_cached_vs_cold": round(cold_mean / cached_mean, 1),
    }
    assert snapshot["cache_hit_rate"] > 0.5  # the sweeps hit the memo

    write_artifact(
        "service_throughput", json.dumps(document, indent=2, sort_keys=True)
    )


async def _score_all(scheduler, owner_ids, measure=None) -> list:
    """Decide every owner's score the way a served read does: a fresh
    memo is answered on the loop, a miss is submitted (all at once, so
    distinct owners score concurrently)."""
    outcomes = [
        scheduler.serve_or_submit(owner_id, measure) for owner_id in owner_ids
    ]
    return [
        record if job is None else await job for record, job, _ in outcomes
    ]


async def _served_bodies(scheduler, owner_ids, measure) -> list[bytes]:
    """Served reads: each score decided as ``/score`` decides it, then
    encoded as its response body."""
    records = await _score_all(scheduler, owner_ids, measure)
    return [record.to_json() for record in records]


# ---------------------------------------------------------------------------
# E19 per-measure throughput: every registered risk measure, cold + cached
# ---------------------------------------------------------------------------
def test_measure_throughput(population):
    """Cold and cached requests/sec for each registered measure.

    A request is timed as a served read decides and encodes it:
    :meth:`~repro.service.ScoreScheduler.serve_or_submit` on the event
    loop, then ``ScoreRecord.to_json()`` (no HTTP).  The cold response
    encodes a memo's measure blocks, so a cached read pays only the
    head spliced onto them.  Two unconditional contracts ride along
    with the timing: a fresh engine reproduces every digest (measure
    determinism through the serving stack), and cached requests never
    recompute (hit counters rise by exactly one sweep).
    """
    from repro.measures import available_measures

    results: dict[str, dict] = {}
    reference_digests: dict[str, dict[int, str]] = {}
    for measure in available_measures():
        engine = RiskEngine(OwnerStore.from_population(population), seed=SEED)
        owner_ids = engine.store.owner_ids()
        loop = asyncio.new_event_loop()
        scheduler = ScoreScheduler(engine, max_workers=4, max_pending=256)
        try:
            start = time.perf_counter()
            cold_bodies = loop.run_until_complete(
                _served_bodies(scheduler, owner_ids, measure)
            )
            cold_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            cached_bodies = loop.run_until_complete(
                _served_bodies(scheduler, owner_ids, measure)
            )
            cached_elapsed = time.perf_counter() - start
        finally:
            scheduler.close()
            loop.close()
        cold_records = [json.loads(body) for body in cold_bodies]
        assert all(r["source"] == "cold" for r in cold_records)
        assert all(
            json.loads(body)["source"] == "cache" for body in cached_bodies
        )
        reference_digests[measure] = {
            r["owner"]: r["digest"] for r in cold_records
        }
        block = engine.metrics.snapshot()["measures"][measure]
        assert block["cache_hits"] == len(owner_ids)
        assert block["cold_scores"] == len(owner_ids)
        results[measure] = {
            "cold_elapsed_seconds": round(cold_elapsed, 4),
            "cold_requests_per_second": round(
                len(owner_ids) / cold_elapsed, 2
            ),
            "cached_elapsed_seconds": round(cached_elapsed, 4),
            "cached_requests_per_second": round(
                len(owner_ids) / cached_elapsed, 2
            ),
        }

    # determinism contract: a second engine reproduces every digest
    for measure in available_measures():
        engine = RiskEngine(OwnerStore.from_population(population), seed=SEED)
        for owner_id, digest in reference_digests[measure].items():
            assert engine.score(owner_id, measure=measure).digest == digest

    document = {
        "cpu_cores": os.cpu_count() or 1,
        "owners": len(reference_digests[next(iter(results))]),
        "seed": SEED,
        "digest_determinism": True,
        "measures": results,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "BENCH_measure_throughput.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    lines = ["E19 per-measure throughput (engine + scheduler + encoding)"]
    for measure, row in results.items():
        lines.append(
            f"  {measure:>12}: cold {row['cold_requests_per_second']:>9} "
            f"req/s   cached {row['cached_requests_per_second']:>9} req/s"
        )
    write_artifact("service_measure_throughput", "\n".join(lines))


# ---------------------------------------------------------------------------
# E19 sharded scaling: 1/2/4 shard workers behind the failover router
# ---------------------------------------------------------------------------
class _ShardedServe:
    """One ``repro-study serve --shards N`` subprocess (router + workers)."""

    def __init__(self, wal_dir: Path, shards: int):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", str(shards),
             "--owners", str(SHARD_OWNERS),
             "--strangers", str(SHARD_STRANGERS),
             "--friends", "10", "--seed", str(SEED),
             "--wal-dir", str(wal_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = self._await_announcement()
        # keep-alive sessions: the sweep times the service, not TCP
        # connection setup (one persistent connection per client thread)
        self.client = KeepAliveClient(self.url)

    def _await_announcement(self) -> str:
        for _ in range(400):
            line = self.process.stderr.readline()
            if not line and self.process.poll() is not None:
                raise AssertionError(
                    f"serve exited rc={self.process.returncode} "
                    "before announcing"
                )
            # the router's own line, not the per-shard "ready at" relays
            if "serving on " in line:
                return line.split("serving on ", 1)[1].strip()
        raise AssertionError("no 'serving on' announcement")

    def get(self, path: str) -> dict:
        return self.client.get(path)

    def stop(self) -> int:
        self.client.close()
        self.process.send_signal(signal.SIGTERM)
        self.process.stderr.read()
        code = self.process.wait(timeout=120)
        self.process.stderr.close()
        return code

    def cleanup(self) -> None:
        self.client.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=60)


def _timed_sweep(server: _ShardedServe, owner_ids: list[int]):
    """All owners scored concurrently; (elapsed, {owner: digest})."""

    def one(owner_id: int) -> dict:
        return server.get(f"/score?owner={owner_id}")

    with ThreadPoolExecutor(max_workers=len(owner_ids)) as pool:
        start = time.perf_counter()
        records = list(pool.map(one, owner_ids))
        elapsed = time.perf_counter() - start
    return elapsed, {r["owner"]: r["digest"] for r in records}


def test_sharded_scaling_throughput(tmp_path):
    """Cold and cached throughput through the router at 1/2/4 shards.

    Digest equality across topologies is the unconditional contract:
    resharding must never change a score.  The scaling floor (4 shards
    >= 1.3x the 1-shard cold throughput) only asserts on hardware that
    can deliver it — shard workers are processes, so a single-core host
    timeslices them and honestly reports ~1x.

    Each sweep opens one connection per owner at once, so the router's
    listen backlog matters.  With ``socketserver``'s default of 5 a
    burst of eight connects can overflow it: the kernel drops a SYN,
    that client waits out the 1 s retransmit, and the sweep reads ~1 s
    however fast the shards are (a ``ListenOverflows`` increment in
    ``/proc/net/netstat`` marks such a run).  That is where a single
    topology reading ~8 req/s cached against ~380 at its neighbours
    came from; the router listens with ``socket.SOMAXCONN``.
    """
    results: dict[int, dict] = {}
    digests: dict[int, dict[int, str]] = {}
    for shards in SHARD_TOPOLOGIES:
        server = _ShardedServe(tmp_path / f"shards-{shards}", shards)
        try:
            owner_ids = [
                row["owner"] for row in server.get("/owners")["owners"]
            ]
            assert len(owner_ids) == SHARD_OWNERS
            cold_elapsed, cold_digests = _timed_sweep(server, owner_ids)
            cached_elapsed, cached_digests = _timed_sweep(
                server, owner_ids
            )
            assert cached_digests == cold_digests
            code = server.stop()
            assert code == 0
        finally:
            server.cleanup()
        digests[shards] = cold_digests
        results[shards] = {
            "cold_elapsed_seconds": round(cold_elapsed, 4),
            "cold_requests_per_second": round(
                len(owner_ids) / cold_elapsed, 2
            ),
            "cached_elapsed_seconds": round(cached_elapsed, 4),
            "cached_requests_per_second": round(
                len(owner_ids) / cached_elapsed, 2
            ),
        }

    # the contract: every topology serves byte-identical digests
    reference = digests[SHARD_TOPOLOGIES[0]]
    for shards in SHARD_TOPOLOGIES[1:]:
        assert digests[shards] == reference, (
            f"{shards}-shard digests diverge from 1-shard"
        )

    cores = os.cpu_count() or 1
    if cores >= 4:
        floor = 1.3 * results[1]["cold_requests_per_second"]
        assert results[4]["cold_requests_per_second"] >= floor, (
            f"4-shard cold throughput "
            f"{results[4]['cold_requests_per_second']} req/s under the "
            f"{floor:.2f} req/s floor ({cores} cores)"
        )

    document = {
        "cpu_cores": cores,
        "owners": SHARD_OWNERS,
        "strangers": SHARD_STRANGERS,
        "seed": SEED,
        "digest_equality": True,
        "topologies": {
            str(shards): results[shards] for shards in SHARD_TOPOLOGIES
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "BENCH_shard_scaling.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    lines = [
        "E19 sharded scaling (cold /score through the router)",
        f"cores={cores} owners={SHARD_OWNERS} strangers={SHARD_STRANGERS}",
    ]
    for shards in SHARD_TOPOLOGIES:
        row = results[shards]
        lines.append(
            f"  shards={shards}: cold {row['cold_requests_per_second']:>7} "
            f"req/s   cached {row['cached_requests_per_second']:>8} req/s"
        )
    write_artifact("service_shard_scaling", "\n".join(lines))
