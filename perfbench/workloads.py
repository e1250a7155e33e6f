"""The three workloads: cold-score, served-mix and routed-mix.

Each returns a :class:`Outcome`: end-to-end metrics from the untraced
timed phase, per-layer metrics when traced, and the output checks.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (
    COLD_SHAPE,
    MEASURES,
    SERVED_SHAPE,
    Mutate,
    OpScript,
    Read,
    Shape,
    make_population,
    make_script,
)
from repro.io.dataset import load_population, save_population
from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    RiskEngine,
    ShardMap,
    mutate_store,
)
from served import BenchError, Client, Server, drive, parse_score, score_path
from spans import Tracer, aggregate, instrument, score_ms_by_source

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: In-process replay passes of the served script per traced run.
REPLAY_PASSES = 6
#: Cached reads per path in the router-hop probe.
HOP_PROBES = 40
#: Seconds between ``/metrics`` samples of the scheduler queue depth.
POLL_INTERVAL_S = 0.05
#: Per-layer metrics of layers only the served workloads cross.
SERVING_ONLY = (
    "scheduler.coalesced_hits",
    "scheduler.pending_peak",
    "admission.shed",
    "admission.peak",
    "wal.commits",
    "wal.batch_mean",
    "http.overhead_ms",
    "router.hop_ms",
    "router.retries",
)


@dataclass
class Outcome:
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def calibrate() -> float:
    """A fixed pure-Python + numpy kernel, median of three, in ms.

    It does the same work on every run, so it moves only with host
    speed: a diagnostic that tells a slow host from slow code.
    """
    times = []
    matrix = (np.arange(4096, dtype=float).reshape(64, 64) % 13) + 64 * np.eye(64)
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(40000):
            total += (value * value) % 7
        vector = np.linspace(0.0, 1.0, 50000)
        for _ in range(10):
            vector = np.sqrt(vector * vector + 1.0) - 1.0
        for _ in range(20):
            np.linalg.solve(matrix, np.ones(64))
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _latency_metrics(latencies: list[float], wall: float) -> dict[str, float]:
    return {
        "throughput_ops_s": len(latencies) / wall,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
    }


# ----------------------------------------------------------------------
# cold-score
# ----------------------------------------------------------------------
def _cold_op(engine: RiskEngine, owner: int):
    engine.invalidate(owner)
    return engine.score(owner)


def _cold_passes(
    engine: RiskEngine,
    owners: tuple[int, ...],
    expected: dict[int, str],
    seconds: float,
    outcome: Outcome,
    tracer: Tracer | None = None,
) -> tuple[list[float], float, list[float]]:
    latencies: list[float] = []
    calib: list[float] = []
    wall = 0.0
    while wall < seconds:
        start = time.perf_counter()
        for owner in owners:
            begin = time.perf_counter()
            if tracer is None:
                record = _cold_op(engine, owner)
            else:
                with tracer.op(len(latencies)):
                    record = _cold_op(engine, owner)
            latencies.append(time.perf_counter() - begin)
            outcome.attempted += 1
            if record.digest != expected[owner]:
                outcome.mismatches.append(
                    f"cold-score owner {owner}: {record.digest[:12]} != "
                    f"warm-up {expected[owner][:12]}"
                )
        wall += time.perf_counter() - start
        calib.append(calibrate())
    return latencies, wall, calib


def cold_score(
    seed: int, seconds: float, trace: bool, shape: Shape = COLD_SHAPE,
    repeats: int = SETUP_REPEATS,
) -> Outcome:
    """In-process cold computes: ``invalidate`` + ``score``, owners cycled."""
    outcome = Outcome()
    setups = []
    for _ in range(repeats):
        # drop the previous set-up's cohort first, so peak RSS is one
        # warmed engine and its cohort, not one per repeat
        store = engine = None
        gc.collect()
        start = time.perf_counter()
        store = OwnerStore.from_population(make_population(seed, shape))
        engine = RiskEngine(store, seed=seed)
        owners = store.owner_ids()
        expected = {owner: _cold_op(engine, owner).digest for owner in owners}
        setups.append(time.perf_counter() - start)

    run_seconds = seconds / 2 if trace else seconds
    latencies, wall, calib = _cold_passes(
        engine, owners, expected, run_seconds, outcome
    )
    p50 = 1e3 * percentile(latencies, 50)
    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        **_latency_metrics(latencies, wall),
        # the update here is invalidate(): a full cold recompute
        "update_to_score_p50_ms": p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    outcome.per_layer["host.calib_ms"] = statistics.median(calib)
    if trace:
        tracer = Tracer()
        with instrument(tracer):
            traced, traced_wall, _ = _cold_passes(
                engine, owners, expected, run_seconds, outcome, tracer
            )
        outcome.per_layer.update(
            _layer_metrics(tracer, traced, traced_wall, latencies, wall)
        )
        outcome.per_layer.update(_engine_counts(tracer))
        # cold-score bypasses every serving layer
        outcome.per_layer.update(dict.fromkeys(SERVING_ONLY, 0.0))
        outcome.tracer = tracer
    return outcome


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------
def _layer_metrics(
    tracer: Tracer,
    traced: list[float],
    traced_wall: float,
    untraced: list[float],
    untraced_wall: float,
) -> dict[str, float]:
    totals = aggregate(tracer.spans)
    calls = totals.calls
    replays = calls.get("replay", 0)
    reused = totals.count("replay.pools_reused")
    rerun = totals.count("replay.pools_rerun")
    groups_total = totals.count("pools.build.groups_total")
    mutations = calls.get("store.mutate", 0)
    by_source = score_ms_by_source(tracer.spans)
    return {
        "ns.ms": totals.self_ms_per_op("ns"),
        "ns.strangers": totals.per_op(totals.count("ns.strangers")),
        "benefits.ms": totals.self_ms_per_op("benefits"),
        "pools.build_ms": totals.self_ms_per_op("pools.build"),
        "squeezer.ms": totals.self_ms_per_op("squeezer"),
        "squeezer.calls": totals.per_op(calls.get("squeezer", 0)),
        "pools.groups_reused_share": (
            totals.count("pools.build.groups_reused") / groups_total
            if groups_total
            else 0.0
        ),
        "pool.run_ms": totals.self_ms_per_op("pool.run"),
        "pool.runs": totals.per_op(calls.get("pool.run", 0)),
        "pool.rounds": (
            totals.count("pool.run.rounds") / calls["pool.run"]
            if calls.get("pool.run")
            else 0.0
        ),
        "harmonic.predict_ms": totals.self_ms_per_op("harmonic.predict"),
        "harmonic.calls": totals.per_op(calls.get("harmonic.predict", 0)),
        "digest.ms": totals.self_ms_per_op("digest"),
        "replay.ms": totals.self_ms_per_op("replay"),
        "replay.ns_recomputed": (
            totals.count("replay.ns_recomputed") / replays if replays else 0.0
        ),
        "replay.pools_rerun": rerun / replays if replays else 0.0,
        "replay.pools_reused": reused / replays if replays else 0.0,
        "replay.pool_reuse_share": (
            reused / (reused + rerun) if reused + rerun else 0.0
        ),
        "store.mutate_ms": totals.mean_ms("store.mutate"),
        "store.dirty_owners_per_mutation": (
            totals.count("store.mutate.dirty_owners") / mutations
            if mutations
            else 0.0
        ),
        "wal.append_ms": totals.mean_ms("wal.append"),
        "wal.durable_wait_ms": totals.mean_ms("wal.durable_wait"),
        "engine.score_ms.cache": by_source.get("cache", 0.0),
        "engine.score_ms.warm": by_source.get("warm", 0.0),
        "engine.score_ms.cold": by_source.get("cold", 0.0),
        "trace.unattributed_ms": totals.self_ms_per_op("op"),
        "trace.overhead_ms": 1e3
        * (traced_wall / len(traced) - untraced_wall / len(untraced)),
    }


def _engine_counts(tracer: Tracer) -> dict[str, float]:
    """Engine hit/cold/warm per op, from in-process ``engine.score`` spans."""
    totals = aggregate(tracer.spans)
    hits = totals.count("engine.score.source.cache")
    cold = totals.count("engine.score.source.cold")
    warm = totals.count("engine.score.source.warm")
    scores = hits + cold + warm
    return {
        "engine.hit_rate": hits / scores if scores else 0.0,
        "engine.cold": totals.per_op(cold),
        "engine.warm": totals.per_op(warm),
    }


# ----------------------------------------------------------------------
# served-mix / routed-mix
# ----------------------------------------------------------------------
def _reference_digests(dataset: Path, seed: int) -> dict[tuple[int, str], str]:
    """Every pair's digest from a fresh in-process cold compute."""
    store = OwnerStore.from_population(load_population(dataset))
    engine = RiskEngine(store, seed=seed)
    return {
        (owner, measure): engine.score(owner, measure).digest
        for owner in store.owner_ids()
        for measure in MEASURES
    }


def _warm_up(
    url: str, owners: tuple[int, ...], script: OpScript
) -> dict[tuple[int, str], str]:
    """Score every pair, then run the script's first edit and its reverse.

    Returns the pairs' starting digests.  The edit round trip builds the
    mutation path's lazy state (WAL barrier, mutate pool) and leaves the
    graph as it found it.
    """
    client = Client(url)
    digests = {}
    edits = [unit for unit in script.passes[0][0] if isinstance(unit, Mutate)]
    try:
        for owner in owners:
            for measure in MEASURES:
                status, raw = client.request("GET", score_path(owner, measure))
                head = parse_score(raw) if status == 200 else None
                if head is None:
                    raise BenchError(f"warm-up /score {owner}/{measure}: {status}")
                digests[(owner, measure)] = head[2]
        for edit in (edits[0], edits[len(edits) // 2]):
            client.json("POST", "/mutate", edit.body)
            client.json("GET", score_path(edit.owner, "stranger"))
    finally:
        client.close()
    return digests


def _server_counters(document: dict) -> dict[str, float]:
    """Summed serving counters of one node or every shard of a router."""
    nodes = document.get("shards", [document])
    counters = {
        "requests": 0.0, "cache_hits": 0.0, "cold": 0.0, "warm": 0.0,
        "coalesced": 0.0, "shed": 0.0, "admission_peak": 0.0,
        "wal_commits": 0.0, "wal_batched": 0.0, "pending": 0.0,
    }
    for node in nodes:
        engine = node["engine"]
        counters["requests"] += engine["requests"]
        counters["cache_hits"] += engine["cache_hits"]
        counters["cold"] += engine["cold_scores"]
        counters["warm"] += engine["warm_scores"]
        counters["coalesced"] += node["scheduler"]["coalesced_hits"]
        counters["pending"] += node["scheduler"]["pending"]
        counters["shed"] += node["admission"]["shed"]
        counters["admission_peak"] = max(
            counters["admission_peak"], node["admission"]["peak"]
        )
        group = node["wal"]["group"]
        counters["wal_commits"] += group["commits"]
        counters["wal_batched"] += group["commits"] * group["batch_mean"]
    counters["router_scores"] = float(
        document.get("router", {}).get("score", 0)
    )
    return counters


class _PendingPoller:
    """Samples the scheduler queue depth through ``/metrics`` (traced only)."""

    def __init__(self, url: str) -> None:
        self.peak = 0.0
        self._url = url
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _run(self) -> None:
        client = Client(self._url)
        try:
            while not self._stop.wait(POLL_INTERVAL_S):
                counters = _server_counters(client.json("GET", "/metrics"))
                self.peak = max(self.peak, counters["pending"])
        finally:
            client.close()

    def __enter__(self) -> "_PendingPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _router_hop_ms(server: Server, owners: tuple[int, ...]) -> float:
    """Median routed cached read minus the same read sent to its shard."""
    shard_map = ShardMap(len(server.shard_urls))
    router = Client(server.url)
    shards = {index: Client(url) for index, url in server.shard_urls.items()}
    routed, direct = [], []
    try:
        for probe in range(HOP_PROBES):
            owner = owners[probe % len(owners)]
            path = score_path(owner, MEASURES[probe % len(MEASURES)])
            for client, sink in (
                (router, routed),
                (shards[shard_map.shard_of(owner)], direct),
            ):
                start = time.perf_counter()
                status, _ = client.request("GET", path)
                sink.append(time.perf_counter() - start)
                if status != 200:
                    raise BenchError(f"router-hop probe {path}: {status}")
    finally:
        router.close()
        for client in shards.values():
            client.close()
    return 1e3 * (statistics.median(routed) - statistics.median(direct))


def _replay_script(
    dataset: Path, seed: int, script: OpScript, wal_dir: Path, passes: int
) -> tuple[list[float], float, Tracer, list[float], float]:
    """Run the served script in-process, untraced then traced.

    The store is WAL-backed with the served default policy (group
    commit, compaction every 256 mutations), so the traced spans cover
    the same layers a served request crosses below the HTTP front-end.
    """
    store = DurableOwnerStore.open(
        wal_dir, load_population(dataset), fsync="group", compact_every=256
    )
    engine = RiskEngine(store, seed=seed)
    tracer = Tracer()

    def run(count: int, traced: bool) -> tuple[list[float], float]:
        latencies: list[float] = []

        def timed(call):
            begin = time.perf_counter()
            if traced:
                with tracer.op(len(latencies)):
                    result = call()
            else:
                result = call()
            latencies.append(time.perf_counter() - begin)
            return result

        start = time.perf_counter()
        for index in range(count):
            for phase in script.pass_at(index):
                for unit in phase:
                    if isinstance(unit, Read):
                        timed(lambda: engine.score(unit.owner, unit.measure))
                        continue
                    body = json.loads(unit.body)
                    timed(lambda: mutate_store(store, body["op"], body))
                    timed(lambda: engine.score(unit.owner))
        return latencies, time.perf_counter() - start

    try:
        for owner in store.owner_ids():
            for measure in MEASURES:
                engine.score(owner, measure)
        run(1, False)
        untraced, untraced_wall = run(passes, False)
        with instrument(tracer):
            traced, traced_wall = run(passes, True)
    finally:
        store.close()
    return untraced, untraced_wall, tracer, traced, traced_wall


def served(
    root: Path,
    workdir: Path,
    env: dict[str, str],
    seed: int,
    seconds: float,
    trace: bool,
    *,
    shards: int = 0,
    shape: Shape = SERVED_SHAPE,
    repeats: int = SETUP_REPEATS,
) -> Outcome:
    """Closed-loop mixed script against ``serve --async`` (``--shards``)."""
    outcome = Outcome()
    dataset = workdir / "cohort.json"
    setups: list[float] = []
    server: Server | None = None
    try:
        for attempt in range(repeats):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            population = make_population(seed, shape)
            save_population(population, dataset)
            script = make_script(population, seed)
            boot_dir = workdir / f"boot-{attempt}"
            boot_dir.mkdir()
            server = Server(root, boot_dir, dataset, seed, shards, env)
            server.wait_ready()
            owners = tuple(owner.user_id for owner in population.owners)
            baseline = _warm_up(server.url, owners, script)
            setups.append(time.perf_counter() - start)

        # output check: the starting digests against an in-process
        # cold recompute, outside the timed phase
        reference = _reference_digests(dataset, seed)
        _compare(outcome, "warm-up vs in-process cold", baseline, reference)

        metrics_client = Client(server.url)
        before = _server_counters(metrics_client.json("GET", "/metrics"))
        if trace:
            with _PendingPoller(server.url) as poller:
                record = drive(
                    server.url, script, seconds, between_passes=calibrate
                )
        else:
            record = drive(server.url, script, seconds, between_passes=calibrate)
        after = _server_counters(metrics_client.json("GET", "/metrics"))
        metrics_client.close()
        peak_rss = server.peak_rss_mb()
        hop_ms = _router_hop_ms(server, owners) if trace and shards else 0.0
    finally:
        if server is not None:
            server.stop()

    outcome.attempted = record.attempted
    outcome.failed = record.failed
    for index, sweep in enumerate(record.sweeps, start=1):
        _compare(outcome, f"pass {index} vs warm-up", sweep, baseline)
    _compare(outcome, "final pass vs in-process cold", record.sweeps[-1], reference)
    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        **_latency_metrics(record.latencies, record.wall),
        "update_to_score_p50_ms": 1e3 * percentile(record.update_to_score, 50),
        "peak_rss_mb": peak_rss,
    }
    outcome.per_layer["host.calib_ms"] = (
        statistics.median(record.calib_ms) if record.calib_ms else calibrate()
    )
    if not trace:
        return outcome

    delta = {key: after[key] - before[key] for key in after}
    requests = len(record.latencies)
    untraced, untraced_wall, tracer, traced, traced_wall = _replay_script(
        dataset, seed, script, workdir / "replay-wal",
        max(1, min(REPLAY_PASSES, record.passes)),
    )
    outcome.per_layer.update(
        _layer_metrics(tracer, traced, traced_wall, untraced, untraced_wall)
    )
    outcome.per_layer.update(
        {
            "engine.hit_rate": (
                delta["cache_hits"] / delta["requests"]
                if delta["requests"]
                else 0.0
            ),
            "engine.cold": delta["cold"] / requests,
            "engine.warm": delta["warm"] / requests,
            "scheduler.coalesced_hits": delta["coalesced"] / requests,
            "scheduler.pending_peak": poller.peak,
            "admission.shed": delta["shed"],
            "admission.peak": after["admission_peak"],
            "wal.commits": delta["wal_commits"] / requests,
            "wal.batch_mean": (
                delta["wal_batched"] / delta["wal_commits"]
                if delta["wal_commits"]
                else 0.0
            ),
            "http.overhead_ms": 1e3
            * (percentile(record.latencies, 50) - percentile(untraced, 50)),
            "router.hop_ms": hop_ms,
            "router.retries": (
                delta["requests"] + delta["coalesced"] - delta["router_scores"]
                if shards
                else 0.0
            ),
        }
    )
    outcome.tracer = tracer
    return outcome


def _compare(
    outcome: Outcome,
    label: str,
    got: dict[tuple[int, str], str],
    want: dict[tuple[int, str], str],
) -> None:
    for pair in sorted(want):
        if got.get(pair) != want[pair]:
            outcome.mismatches.append(
                f"{label}: owner {pair[0]} {pair[1]} "
                f"{(got.get(pair) or 'missing')[:12]} != {want[pair][:12]}"
            )
