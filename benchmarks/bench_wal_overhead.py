"""E20 — durability tax: what the write-ahead log costs the service.

Not a paper artifact — the durability counterpart of E19.  Crash safety
is bought with fsyncs, and this bench prices it: mutation throughput and
p99 ``/score`` latency through the real HTTP stack, for three stores —

* ``wal-off``    — the plain in-memory :class:`OwnerStore` (no
  durability; the pre-WAL service);
* ``wal-always`` — :class:`DurableOwnerStore`, one fsync per mutation
  (``--wal-fsync always``: full durability);
* ``wal-group``  — group commit (``--wal-fsync group``, the serve
  default): concurrent mutators share fsyncs through the
  :meth:`~repro.service.WriteAheadLog.wait_durable` barrier, each
  acked only after its batch is durable — full durability with an
  amortized sync cost.

Scores are served from cache during the sweep, so ``/score`` p99 prices
the *serving* overhead of the durable store (it should be negligible —
reads never touch the log), while mutations/sec prices the write path.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    RiskEngine,
    build_server,
    mutate_store,
)

from .conftest import SEED, write_artifact

MUTATIONS = 300
SCORE_REQUESTS = 200
#: Concurrent mutator threads in the ``wal-group`` arm: group commit
#: only batches mutations that wait on the barrier at the same time.
GROUP_MUTATORS = 8


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_mutations(store, owner_id: int, mutators: int) -> float:
    """Apply ``MUTATIONS`` touches from ``mutators`` threads; seconds.

    Every ``mutate_store`` call returns only once its record is durable
    (the ack point), so under ``"group"`` the threads meet at the
    ``wait_durable`` barrier and share its fsyncs.
    """
    barrier = threading.Barrier(mutators + 1)

    def mutate(count: int) -> None:
        barrier.wait()
        for _ in range(count):
            mutate_store(store, "touch", {"owner": owner_id})

    shares = [MUTATIONS // mutators] * mutators
    shares[0] += MUTATIONS - sum(shares)
    threads = [
        threading.Thread(target=mutate, args=(count,)) for count in shares
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def measure_mode(name: str, store, population, mutators: int = 1) -> dict:
    engine = RiskEngine(store, seed=SEED)
    owner_id = store.owner_ids()[0]
    engine.score(owner_id)  # warm the cache: /score sweeps hit the memo

    # --- mutation throughput (the WAL write path) ---
    mutation_elapsed = run_mutations(store, owner_id, mutators)
    engine.score(owner_id)  # re-warm after the version bumps

    # --- /score p99 through the real HTTP stack ---
    server = build_server(engine, max_workers=2, max_pending=64)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    latencies: list[float] = []
    try:
        url = f"{server.url}/score?owner={owner_id}"
        for _ in range(SCORE_REQUESTS):
            begin = time.perf_counter()
            with urllib.request.urlopen(url, timeout=30) as response:
                response.read()
            latencies.append(time.perf_counter() - begin)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    stats = {
        "mode": name,
        "mutators": mutators,
        "mutations": MUTATIONS,
        "mutations_per_second": round(MUTATIONS / mutation_elapsed, 1),
        "mutation_mean_ms": round(mutation_elapsed / MUTATIONS * 1000, 4),
        "score_requests": SCORE_REQUESTS,
        "score_p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "score_p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
    }
    if isinstance(store, DurableOwnerStore):
        stats["wal"] = store.wal.stats()
        store.close()
    return stats


def test_wal_overhead(population, tmp_path):
    def durable(policy: str):
        return DurableOwnerStore.open(
            tmp_path / policy, population, fsync=policy, compact_every=None
        )

    results = [
        measure_mode("wal-off", OwnerStore.from_population(population),
                     population),
        measure_mode("wal-always", durable("always"), population),
        measure_mode("wal-group", durable("group"), population,
                     mutators=GROUP_MUTATORS),
    ]
    by_mode = {row["mode"]: row for row in results}

    # fsync'd durability costs real throughput; group commit buys part
    # of it back by sharing fsyncs between concurrent mutators
    assert (
        by_mode["wal-off"]["mutations_per_second"]
        >= by_mode["wal-always"]["mutations_per_second"]
    )
    always = by_mode["wal-always"]["wal"]
    group = by_mode["wal-group"]["wal"]
    assert always["fsyncs"] >= MUTATIONS  # one per acked mutation
    assert group["group"]["durable_seq"] == group["seq"]  # every ack durable
    assert group["group"]["commits"] < group["appends"]

    document = {
        "cohort_owners": len(population.owners),
        "group_mutators": GROUP_MUTATORS,
        "modes": by_mode,
        "durability_tax_mutations": round(
            by_mode["wal-off"]["mutations_per_second"]
            / max(by_mode["wal-always"]["mutations_per_second"], 1e-9),
            2,
        ),
        "group_commit_recovery": round(
            by_mode["wal-group"]["mutations_per_second"]
            / max(by_mode["wal-always"]["mutations_per_second"], 1e-9),
            2,
        ),
    }
    write_artifact(
        "wal_overhead", json.dumps(document, indent=2, sort_keys=True)
    )
