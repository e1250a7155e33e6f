"""The repository benchmark: one workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cold-score --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` is a separate run that prints the per-layer metrics (and
writes its spans under ``.perfbench_traces/``).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the host and library versions.  A digest mismatch prints the
result with ``"correct": false`` and exits 1; a run that cannot start
(no ``src/repro`` next to this directory, a server that will not boot)
exits 2 without a result.  See ``perfbench/NOTES.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools buy no wall-clock time on this benchmark's host and
#: burn a second core; pin them before numpy loads (children inherit).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cold-score", "served-mix", "routed-mix")

#: name -> unit, untraced runs (must match BENCHMARK.json end_to_end).
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "update_to_score_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: name -> unit, traced runs (must match BENCHMARK.json per_layer).
PER_LAYER = {
    "ns.ms": "ms/op",
    "ns.strangers": "1/op",
    "benefits.ms": "ms/op",
    "pools.build_ms": "ms/op",
    "squeezer.ms": "ms/op",
    "squeezer.calls": "1/op",
    "pools.groups_reused_share": "ratio",
    "pool.run_ms": "ms/op",
    "pool.runs": "1/op",
    "pool.rounds": "1/run",
    "harmonic.predict_ms": "ms/op",
    "harmonic.calls": "1/op",
    "digest.ms": "ms/op",
    "replay.ms": "ms/op",
    "replay.ns_recomputed": "1/replay",
    "replay.pools_rerun": "1/replay",
    "replay.pools_reused": "1/replay",
    "replay.pool_reuse_share": "ratio",
    "store.mutate_ms": "ms/call",
    "store.dirty_owners_per_mutation": "1/call",
    "wal.append_ms": "ms/call",
    "wal.durable_wait_ms": "ms/call",
    "wal.commits": "1/op",
    "wal.batch_mean": "1/commit",
    "engine.hit_rate": "ratio",
    "engine.cold": "1/op",
    "engine.warm": "1/op",
    "engine.score_ms.cache": "ms/call",
    "engine.score_ms.warm": "ms/call",
    "engine.score_ms.cold": "ms/call",
    "scheduler.coalesced_hits": "1/op",
    "scheduler.pending_peak": "count",
    "admission.shed": "count",
    "admission.peak": "count",
    "http.overhead_ms": "ms",
    "router.hop_ms": "ms",
    "router.retries": "count",
    "host.calib_ms": "ms",
    "trace.overhead_ms": "ms/op",
    "trace.unattributed_ms": "ms/op",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="self-test scale: tiny cohorts and one set-up",
    )
    return parser.parse_args(argv)


def stamp(calib_ms: float) -> dict:
    """Host and library facts every result is read against."""
    import numpy
    import scipy

    return {
        "host_calib_ms": calib_ms,
        "cpu_cores": os.cpu_count(),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)

    import inputs
    import workloads
    from served import BenchError

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cold-score":
            outcome = workloads.cold_score(
                args.seed,
                args.seconds,
                bool(args.trace),
                **(
                    {"shape": inputs.TINY_SHAPE, "repeats": 1}
                    if args.tiny
                    else {}
                ),
            )
        else:
            outcome = workloads.served(
                ROOT,
                workdir,
                env,
                args.seed,
                args.seconds,
                bool(args.trace),
                shards=2 if args.workload == "routed-mix" else 0,
                **(
                    {"shape": inputs.TINY_SHAPE, "repeats": 1}
                    if args.tiny
                    else {}
                ),
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        traces = ROOT / ".perfbench_traces"
        traces.mkdir(exist_ok=True)
        outcome.tracer.dump(traces / f"{args.workload}-seed{args.seed}.jsonl")
        chosen, values = PER_LAYER, outcome.per_layer
    else:
        chosen, values = END_TO_END, outcome.end_to_end
    missing = sorted(set(chosen) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for mismatch in outcome.mismatches:
        print(f"perfbench: digest mismatch: {mismatch}", file=sys.stderr)
    result = {
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in chosen.items()
        },
    }
    stamped = stamp(outcome.per_layer["host.calib_ms"])
    print("perfbench-stamp " + json.dumps(stamped, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
