"""E22 — latency under concurrency: group commit vs per-mutation fsync.

Not a paper artifact — the tail-latency counterpart of E19.  Throughput
hides what a loaded service actually feels like: with 256 requests in
flight, ``fsync="always"`` serializes every mutation behind its own
fsync, so the p99 can become a queue of disk flushes.  The asyncio
server admits work through a bounded queue, coalesces duplicate
``/score`` hits, and — under the default ``--wal-fsync group`` —
group-commits WAL appends: concurrent mutations share one fsync and are
acked only after their batch is durable.

The bench boots the server twice as real subprocesses over the
same-seed cohort (``--wal-fsync group``, the default, and
``--wal-fsync always``), warms every ``(owner, measure)`` pair, then
drives a closed-loop mutation-heavy mix (85% ``touch``, 15% ``/score``
across every registered measure — the multi-measure traffic of the
follow-up study) at 64 and 256 in-flight clients on keep-alive
connections, recording per-request p50/p99.

Pinned contracts:

* both servers end the run with byte-identical digests and versions for
  every ``(owner, measure)`` — the load mix is deterministic per client
  thread, so the final state must agree;
* the group server's WAL proves group commit happened: fewer barrier
  commits than appends, ``batch_max >= 2``;
* coalescing demonstrably collapses N concurrent same-owner ``/score``
  requests into one engine call (``engine.requests == 1``,
  ``coalesced_hits >= N - 1`` via ``/metrics``).

The p99 of each arm is recorded, not floored: both run the same server,
so their ratio prices only the fsync policy on the host's disk.  A
committed snapshot (stamped with ``cpu_cores``) lives in
``benchmarks/baselines/BENCH_latency_concurrency_baseline.json``.

Scale knobs (reduced in CI, full scale for the committed baseline):

* ``REPRO_BENCH_E22_CONCURRENCY`` (default ``64,256``)
* ``REPRO_BENCH_E22_REQUESTS``    (default 16 per client per level)
* ``REPRO_BENCH_E22_OWNERS``      (default 8)
* ``REPRO_BENCH_E22_STRANGERS``   (default 60)
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .conftest import OUT_DIR, SEED, KeepAliveClient, write_artifact

CONCURRENCY_LEVELS = tuple(
    int(level)
    for level in os.environ.get(
        "REPRO_BENCH_E22_CONCURRENCY", "64,256"
    ).split(",")
)
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_E22_REQUESTS", "16"))
E22_OWNERS = int(os.environ.get("REPRO_BENCH_E22_OWNERS", "8"))
E22_STRANGERS = int(os.environ.get("REPRO_BENCH_E22_STRANGERS", "60"))

MUTATION_SHARE = 0.85
#: Every measure the warm-up and end-state digest comparison cover
#: (``None`` = the server default, the full stranger pipeline).
MEASURES = (None, "friendship", "neighborhood")
#: Measures the timed mix scores with.  The default (stranger) measure
#: re-learns the full pipeline after every touch — seconds of pure
#: Python that would bury the serving-layer tail this bench isolates —
#: so the mix covers the two cheap structural measures instead.
MIX_MEASURES = ("friendship", "neighborhood")


class _Serve:
    """One ``repro-study serve`` subprocess plus its keep-alive client."""

    def __init__(self, wal_dir: Path, *extra: str):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--owners", str(E22_OWNERS),
             "--strangers", str(E22_STRANGERS),
             "--friends", "10", "--seed", str(SEED),
             "--workers", "4", "--max-pending", "512",
             "--wal-dir", str(wal_dir), *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = self._await_announcement()
        self.client = KeepAliveClient(self.url)

    def _await_announcement(self) -> str:
        for _ in range(400):
            line = self.process.stderr.readline()
            if not line and self.process.poll() is not None:
                raise AssertionError(
                    f"serve exited rc={self.process.returncode} "
                    "before announcing"
                )
            if "serving on " in line:
                return line.split("serving on ", 1)[1].strip()
        raise AssertionError("no 'serving on' announcement")

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


def _score_path(owner_id: int, measure: str | None) -> str:
    if measure is None:
        return f"/score?owner={owner_id}"
    return f"/score?owner={owner_id}&measure={measure}"


def _warm(server: _Serve, owner_ids: list[int]) -> None:
    """Pay every cold score before the timed loop (steady-state serving)."""
    for owner_id in owner_ids:
        for measure in MEASURES:
            server.client.get(_score_path(owner_id, measure))


def _client_plan(
    index: int, owner_ids: list[int]
) -> list[tuple[str, int, str | None]]:
    """The deterministic op sequence for client thread ``index``.

    Seeded per thread (not per server), so both servers execute the
    *same* multiset of operations — which is what makes the end-state
    digest comparison meaningful.
    """
    rng = random.Random(10_000 * (index + 1) + SEED)
    plan = []
    for _ in range(REQUESTS_PER_CLIENT):
        owner_id = rng.choice(owner_ids)
        if rng.random() < MUTATION_SHARE:
            plan.append(("mutate", owner_id, None))
        else:
            plan.append(("score", owner_id, rng.choice(MIX_MEASURES)))
    return plan


def _closed_loop(
    server: _Serve, owner_ids: list[int], clients: int
) -> dict[str, list[float]]:
    """``clients`` keep-alive threads, each running its plan; latencies."""
    barrier = threading.Barrier(clients + 1)
    latencies: dict[str, list[float]] = {"mutate": [], "score": []}
    lock = threading.Lock()
    errors: list[BaseException] = []

    def run(index: int) -> None:
        plan = _client_plan(index, owner_ids)
        try:
            server.client.get("/healthz")  # open the connection pre-barrier
            barrier.wait(timeout=120)
            mine: dict[str, list[float]] = {"mutate": [], "score": []}
            for kind, owner_id, measure in plan:
                start = time.perf_counter()
                if kind == "mutate":
                    server.client.post(
                        "/mutate", {"op": "touch", "owner": owner_id}
                    )
                else:
                    server.client.get(_score_path(owner_id, measure))
                mine[kind].append(time.perf_counter() - start)
            with lock:
                for kind, samples in mine.items():
                    latencies[kind].extend(samples)
        except BaseException as error:  # surfaced by the caller
            with lock:
                errors.append(error)
            raise

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=120)
    for thread in threads:
        thread.join(timeout=600)
    assert not errors, f"{len(errors)} client(s) failed: {errors[0]!r}"
    return latencies


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _stats(latencies: dict[str, list[float]]) -> dict:
    merged = latencies["mutate"] + latencies["score"]
    return {
        "requests": len(merged),
        "p50_ms": round(_percentile(merged, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(merged, 0.99) * 1000, 3),
        "mutate_p99_ms": round(
            _percentile(latencies["mutate"], 0.99) * 1000, 3
        ),
        "score_p99_ms": round(
            _percentile(latencies["score"], 0.99) * 1000, 3
        ),
    }


def _end_state(server: _Serve, owner_ids: list[int]) -> dict:
    state = {}
    for owner_id in owner_ids:
        for measure in MEASURES:
            record = server.client.get(_score_path(owner_id, measure))
            state[(owner_id, measure)] = (
                record["digest"], record["version"]
            )
    return state


def test_latency_under_concurrency(tmp_path):
    """p50/p99 of the mutation-heavy mix per fsync policy, per level."""
    servers = {
        "group": _Serve(tmp_path / "group"),
        "always": _Serve(tmp_path / "always", "--wal-fsync", "always"),
    }
    results: dict[int, dict[str, dict]] = {}
    try:
        owner_ids = [
            row["owner"]
            for row in servers["group"].client.get("/owners")["owners"]
        ]
        assert len(owner_ids) == E22_OWNERS
        for server in servers.values():
            _warm(server, owner_ids)

        for clients in CONCURRENCY_LEVELS:
            results[clients] = {
                name: _stats(_closed_loop(server, owner_ids, clients))
                for name, server in servers.items()
            }

        # determinism contract: the same op multiset must leave both
        # servers in byte-identical (digest, version) end states
        assert _end_state(servers["group"], owner_ids) == _end_state(
            servers["always"], owner_ids
        )

        # group commit actually batched: fewer fsync barriers than
        # appends, and at least one barrier covered multiple appends
        metrics = servers["group"].client.get("/metrics")
        group = metrics["wal"]["group"]
        appends = metrics["wal"]["appends"]
        assert metrics["wal"]["policy"] == "group"
        if max(CONCURRENCY_LEVELS) >= 64:
            assert group["batch_max"] >= 2, group
            assert group["commits"] < appends, (group, appends)

        for name, server in servers.items():
            assert server.stop() == 0, f"{name} exited dirty"
    finally:
        for server in servers.values():
            server.cleanup()

    speedups = {
        clients: round(row["always"]["p99_ms"] / row["group"]["p99_ms"], 2)
        for clients, row in results.items()
    }
    document = {
        "cpu_cores": os.cpu_count() or 1,
        "owners": E22_OWNERS,
        "strangers": E22_STRANGERS,
        "seed": SEED,
        "mutation_share": MUTATION_SHARE,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "digest_equality": True,
        "levels": {
            str(clients): {
                "group": row["group"],
                "always": row["always"],
                "p99_speedup": speedups[clients],
            }
            for clients, row in results.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_latency_concurrency.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    lines = [
        "E22 latency under concurrency (85% touch / 15% multi-measure "
        "score)",
        f"cores={document['cpu_cores']} owners={E22_OWNERS} "
        f"strangers={E22_STRANGERS}",
    ]
    for clients, row in results.items():
        lines.append(
            f"  {clients:>4} in-flight: always p99 "
            f"{row['always']['p99_ms']:>9.2f} ms   group p99 "
            f"{row['group']['p99_ms']:>8.2f} ms   "
            f"({speedups[clients]}x)"
        )
    write_artifact("service_latency_concurrency", "\n".join(lines))


def test_coalescing_collapses_concurrent_scores(tmp_path):
    """N concurrent same-owner cold ``/score`` hits -> 1 engine call.

    The server boots cold, so the first request holds the engine for the
    full pipeline; every concurrent duplicate joins its in-flight future
    instead of burning a queue slot or an engine call.  ``/metrics`` is
    the witness: one engine request, ``N - 1`` coalesced hits.
    """
    clients = 16
    server = _Serve(tmp_path / "coalesce")
    try:
        owner_id = server.client.get("/owners")["owners"][0]["owner"]
        barrier = threading.Barrier(clients + 1)
        digests: list[str] = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def run() -> None:
            try:
                server.client.get("/healthz")  # connect before the gun
                barrier.wait(timeout=120)
                record = server.client.get(f"/score?owner={owner_id}")
                with lock:
                    digests.append(record["digest"])
            except BaseException as error:
                with lock:
                    errors.append(error)
                raise

        threads = [
            threading.Thread(target=run, daemon=True)
            for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=120)
        for thread in threads:
            thread.join(timeout=600)
        assert not errors, f"client failed: {errors[0]!r}"

        assert len(set(digests)) == 1 and len(digests) == clients
        metrics = server.client.get("/metrics")
        assert metrics["engine"]["requests"] == 1, metrics["engine"]
        coalesced = metrics["scheduler"]["coalesced_hits"]
        assert coalesced >= clients - 1, metrics["scheduler"]

        write_artifact(
            "service_coalescing",
            "E22 coalescing: "
            f"{clients} concurrent /score hits on one cold owner -> "
            f"1 engine call, {coalesced} coalesced waiters",
        )
        assert server.stop() == 0
    finally:
        server.cleanup()
