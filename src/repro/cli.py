"""Command-line entry point: run the study and print paper-style output.

Examples::

    repro-study --owners 8 --strangers 200 --seed 7
    repro-study --owners 8 --experiments fig4 fig7 table1 headline
    python -m repro --owners 4 --strangers 120 --experiments headline
    repro-study serve --owners 4 --strangers 150 --port 8080
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Sequence

from .experiments import (
    figure4,
    figure5,
    figure6,
    figure7,
    headline_metrics,
    run_study,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from .experiments.report import (
    render_figure4,
    render_figure7,
    render_headline,
    render_importance_table,
    render_round_series,
    render_table3,
    render_table4,
    render_table5,
)
from .measures import available_measures
from .synth import EgoNetConfig, generate_study_population

EXPERIMENTS = (
    "dataset",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "headline",
    "report",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Reproduce the ICDE 2012 privacy-risk experiments on a "
            "synthetic cohort."
        ),
        epilog=(
            "Run 'repro-study serve --help' for the HTTP risk-scoring "
            "service."
        ),
    )
    parser.add_argument("--owners", type=int, default=8, help="cohort size")
    parser.add_argument(
        "--strangers", type=int, default=200, help="strangers per owner"
    )
    parser.add_argument(
        "--friends", type=int, default=40, help="friends per owner"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--classifier",
        choices=("harmonic", "knn", "majority"),
        default="harmonic",
        help="label classifier",
    )
    parser.add_argument(
        "--topology",
        choices=("communities", "small_world", "preferential"),
        default="communities",
        help="ego-network topology of the synthetic cohort",
    )
    parser.add_argument(
        "--save-dataset",
        metavar="PATH",
        default=None,
        help="write the generated cohort to a JSON dataset",
    )
    parser.add_argument(
        "--load-dataset",
        metavar="PATH",
        default=None,
        help="load the cohort from a JSON dataset instead of generating",
    )
    parser.add_argument(
        "--experiments",
        nargs="+",
        choices=(*EXPERIMENTS, "all"),
        default=["all"],
        help="which artifacts to print",
    )
    parser.add_argument(
        "--measure",
        choices=available_measures(),
        default=None,
        metavar="NAME",
        help=(
            "score the cohort under one registered risk measure "
            f"({', '.join(available_measures())}) and print one digest "
            "line per owner instead of the paper experiments"
        ),
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help=(
            "run the paper's shape checks on the study and exit non-zero "
            "if any fails (forces both NPP and NSP studies)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker processes for the per-owner study loop (0 = serial; "
            "parallel runs reproduce the serial digests exactly)"
        ),
    )
    resilience = parser.add_argument_group(
        "resilience",
        "checkpoint/resume and deterministic fault injection",
    )
    resilience.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint per-owner learning state here after every "
            "completed pool"
        ),
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from checkpoints in --checkpoint-dir instead of "
            "starting fresh"
        ),
    )
    resilience.add_argument(
        "--fault-abstain",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability an oracle query is answered with an abstention",
    )
    resilience.add_argument(
        "--fault-timeout",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability an oracle query times out (retried)",
    )
    resilience.add_argument(
        "--fault-fetch-fail",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a profile fetch fails transiently (retried)",
    )
    resilience.add_argument(
        "--fault-unreachable",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a stranger's profile is permanently unreachable",
    )
    resilience.add_argument(
        "--fault-drop-attrs",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability each profile attribute is missing when fetched",
    )
    return parser


def _fault_plan_from_args(args: argparse.Namespace):
    """A :class:`~repro.faults.FaultPlan` from CLI flags, or ``None``."""
    rates = (
        args.fault_timeout,
        args.fault_abstain,
        args.fault_fetch_fail,
        args.fault_unreachable,
        args.fault_drop_attrs,
    )
    if not any(rate > 0 for rate in rates):
        return None
    from .faults import FaultPlan

    return FaultPlan(
        oracle_timeout_rate=args.fault_timeout,
        oracle_abstain_rate=args.fault_abstain,
        fetch_failure_rate=args.fault_fetch_fail,
        unreachable_rate=args.fault_unreachable,
        attribute_drop_rate=args.fault_drop_attrs,
    )


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro-study serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-study serve",
        description=(
            "Serve risk scores over HTTP: a versioned owner store, a "
            "memoizing engine with warm re-scoring, and a JSON API "
            "(/score, /owners, /healthz, /metrics)."
        ),
    )
    parser.add_argument("--owners", type=int, default=4, help="cohort size")
    parser.add_argument(
        "--strangers", type=int, default=150, help="strangers per owner"
    )
    parser.add_argument(
        "--friends", type=int, default=30, help="friends per owner"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--classifier",
        choices=("harmonic", "knn", "majority"),
        default="harmonic",
        help="label classifier",
    )
    parser.add_argument(
        "--pooling",
        choices=("npp", "nsp"),
        default="npp",
        help="pooling strategy",
    )
    parser.add_argument(
        "--load-dataset",
        metavar="PATH",
        default=None,
        help="serve a saved cohort instead of generating one",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--async",
        dest="async_compat",
        action="store_true",
        help=(
            "accepted for compatibility and ignored: serving always runs "
            "on the asyncio front-end"
        ),
    )
    parser.add_argument(
        "--admission",
        type=int,
        default=256,
        metavar="N",
        help=(
            "bound on concurrently admitted work-bearing requests before "
            "shedding with 429 + Retry-After (per shard worker and at the "
            "--shards router)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="concurrent scoring threads"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="backpressure bound on in-flight + queued requests",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request deadline budget in seconds",
    )
    parser.add_argument(
        "--warm-all",
        action="store_true",
        help="score every owner once before accepting traffic",
    )
    sharding = parser.add_argument_group(
        "sharding",
        "fault isolation: consistent-hash owner shards behind a router",
    )
    sharding.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run N fault-isolated shard worker processes behind a "
            "failover-aware router (0 = single unsharded server); each "
            "shard owns a consistent-hash slice of the owner space with "
            "its own engine, scheduler, and WAL directory"
        ),
    )
    sharding.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help=(
            "internal: serve only the owners the shard map assigns to "
            "shard I (spawned by --shards; requires --shard-count)"
        ),
    )
    sharding.add_argument(
        "--shard-count",
        type=int,
        default=None,
        metavar="N",
        help="internal: total shards in the map (with --shard-index)",
    )
    sharding.add_argument(
        "--join-empty",
        action="store_true",
        help=(
            "internal: boot with the cohort graph but zero registered "
            "owners (a shard joining a live rebalance; its owners "
            "arrive via slice import)"
        ),
    )
    durability = parser.add_argument_group(
        "durability",
        "crash safety: write-ahead log, snapshots, graceful drain",
    )
    durability.add_argument(
        "--wal-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist every store mutation to a write-ahead log in DIR "
            "and recover from it on restart (kill -9 loses no "
            "acknowledged mutation)"
        ),
    )
    durability.add_argument(
        "--wal-fsync",
        choices=("always", "group"),
        default="group",
        help=(
            "fsync policy: 'group' (default) = concurrent mutations share "
            "one fsync via a commit barrier, each acked only after its "
            "batch is durable; 'always' = one fsync per mutation before "
            "the ack"
        ),
    )
    durability.add_argument(
        "--compact-every",
        type=int,
        default=256,
        metavar="N",
        help="fold the WAL into a fresh snapshot every N mutations",
    )
    durability.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, wait up to this long for in-flight "
            "scoring to finish before exiting"
        ),
    )
    chaos = parser.add_argument_group(
        "chaos",
        "deterministic service-level fault injection (testing only)",
    )
    chaos.add_argument(
        "--crash-at-mutation",
        type=int,
        default=None,
        metavar="N",
        help="kill the process right after the Nth mutation is durable",
    )
    chaos.add_argument(
        "--torn-write-at-mutation",
        type=int,
        default=None,
        metavar="N",
        help="tear the Nth WAL record mid-write and crash (power cut)",
    )
    return parser


def _service_fault_injector(args: argparse.Namespace):
    """A :class:`~repro.faults.ServiceFaultInjector` from flags, or None."""
    from .faults import ServiceFaultInjector, ServiceFaultPlan

    plan = ServiceFaultPlan(
        torn_write_at_mutation=args.torn_write_at_mutation,
        crash_at_mutation=args.crash_at_mutation,
    )
    if not plan.injects_anything:
        return None
    return ServiceFaultInjector(plan)


def _build_serve_store(args: argparse.Namespace):
    """The serve store: WAL-recovered, WAL-seeded, or plain in-memory."""
    from .service import DurableOwnerStore, OwnerStore, ShardMap

    shard_map = None
    if args.shard_index is not None:
        shard_map = ShardMap(args.shard_count)
        print(
            f"shard {args.shard_index}/{args.shard_count}: serving this "
            "shard's consistent-hash slice of the owner space",
            file=sys.stderr,
        )
    durable = args.wal_dir is not None
    if durable and DurableOwnerStore.has_snapshot(args.wal_dir):
        # recovery path: the snapshot + WAL already hold this process's
        # owners (a shard's WAL holds only its slice) — do not
        # regenerate, just replay
        print(f"recovering store from {args.wal_dir} ...", file=sys.stderr)
        return DurableOwnerStore.open(
            args.wal_dir,
            fsync=args.wal_fsync,
            compact_every=args.compact_every,
            injector=_service_fault_injector(args),
        )
    if args.load_dataset:
        from .io.dataset import load_population

        print(f"loading cohort from {args.load_dataset} ...", file=sys.stderr)
        population = load_population(args.load_dataset)
    else:
        print(
            f"generating cohort: {args.owners} owners x ~{args.strangers} "
            f"strangers (seed {args.seed}) ...",
            file=sys.stderr,
        )
        population = generate_study_population(
            num_owners=args.owners,
            ego_config=EgoNetConfig(
                num_friends=args.friends, num_strangers=args.strangers
            ),
            seed=args.seed,
        )
    if durable:
        return DurableOwnerStore.open(
            args.wal_dir,
            population,
            fsync=args.wal_fsync,
            compact_every=args.compact_every,
            injector=_service_fault_injector(args),
            shard_map=shard_map,
            shard_index=args.shard_index,
            join_empty=args.join_empty,
        )
    if args.join_empty:
        return OwnerStore(population.graph)
    return OwnerStore.from_population(
        population, shard_map=shard_map, shard_index=args.shard_index
    )


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Run the ``serve`` subcommand; blocks until SIGTERM/SIGINT.

    Lifecycle: build (or recover) the store, optionally pre-warm, open
    the listener, flip ready, and serve until a termination signal.
    Then drain: stop taking scoring/mutation work (503), wait up to
    ``--drain-timeout`` for in-flight jobs, flush the WAL, and exit 0
    with one final metrics line on stderr.
    """
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    # reject unusable bounds before any cohort generation or shard spawn
    # (a shard worker would otherwise die on them after booting, and the
    # supervisor would restart it into the same error forever)
    for flag in ("admission", "workers", "max_pending", "compact_every"):
        if getattr(args, flag) < 1:
            parser.error(
                f"--{flag.replace('_', '-')} must be >= 1, got "
                f"{getattr(args, flag)}"
            )
    if args.timeout <= 0:
        parser.error(f"--timeout must be > 0, got {args.timeout}")
    if args.shards < 0:
        parser.error(f"--shards must be >= 0, got {args.shards}")
    for flag in ("crash_at_mutation", "torn_write_at_mutation"):
        if args.shards and getattr(args, flag) is not None:
            parser.error(
                f"--{flag.replace('_', '-')} applies to a single server, "
                "not to --shards"
            )
    if args.shards and args.shard_index is not None:
        parser.error("--shards and --shard-index are mutually exclusive")
    if (args.shard_index is None) != (args.shard_count is None):
        parser.error("--shard-index and --shard-count must be given together")
    if args.shard_index is not None and not (
        0 <= args.shard_index < args.shard_count
    ):
        parser.error(
            f"--shard-index {args.shard_index} out of range for "
            f"--shard-count {args.shard_count}"
        )
    if args.shards:
        return serve_sharded(args)
    from .service import DurableOwnerStore, RiskEngine, build_server

    store = _build_serve_store(args)
    if isinstance(store, DurableOwnerStore):
        report = store.recovery
        print(
            f"store {report.source}: snapshot seq {report.snapshot_seq}, "
            f"replayed {report.replayed} WAL records, "
            f"truncated {report.truncated_bytes} torn bytes",
            file=sys.stderr,
        )
    engine = RiskEngine(
        store,
        pooling=args.pooling,
        classifier=args.classifier,
        seed=args.seed,
    )
    if args.warm_all:
        for owner_id in store.owner_ids():
            record = engine.score(owner_id)
            print(
                f"warmed owner {owner_id} "
                f"({record.new_queries} labels, {record.elapsed_seconds:.2f}s)",
                file=sys.stderr,
            )
    server = build_server(
        engine,
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
        admission_capacity=args.admission,
    )
    server.state.ready = True
    server.state.detail = "serving"

    async def drain() -> dict:
        print(
            f"draining: {server.scheduler.pending} in flight, "
            f"budget {args.drain_timeout:.1f}s",
            file=sys.stderr,
        )
        summary = await server.scheduler.drain(args.drain_timeout)
        if isinstance(store, DurableOwnerStore):
            # sync any appends not yet group-committed, off the loop
            await asyncio.to_thread(store.close)
            summary["wal"] = store.wal.stats()
        return summary

    return asyncio.run(_serve_until_signalled(server, drain))


async def _serve_until_signalled(server, drain, boot=None) -> int:
    """Serve ``server`` (the risk server or the router) on the running
    event loop until SIGTERM/SIGINT, then await ``drain()`` and stop.

    The signal flips ``server.state`` to draining, so work-bearing
    requests answer 503 while health stays live; ``drain()`` returns the
    summary printed as the final ``final metrics:`` line on stderr.
    ``boot``, a coroutine, runs first under the same handlers: a signal
    while it runs cancels it and goes straight to the drain, serving
    nothing.
    """
    import json
    import signal

    stop = asyncio.Event()
    booting = serving = None

    def begin_drain(signum: int) -> None:
        server.state.draining = True
        server.state.detail = f"draining ({signal.Signals(signum).name})"
        stop.set()
        if booting is not None:
            booting.cancel()  # no-op once the boot is over

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, begin_drain, signum)
    if boot is not None:
        booting = asyncio.create_task(boot)
        await asyncio.wait({booting})
        if not booting.cancelled():
            booting.result()  # a failed boot raises here
    if not stop.is_set():
        serving = asyncio.create_task(server.serve())
        print(f"serving on {server.url}", file=sys.stderr, flush=True)
        await stop.wait()
    summary = await drain()
    if serving is not None:
        serving.cancel()
        await asyncio.wait({serving})
    server.server_close()
    print(
        "final metrics: " + json.dumps(summary, sort_keys=True),
        file=sys.stderr,
        flush=True,
    )
    return 0


# serve options a shard worker does not inherit from the router: the
# router keeps its own port, shard count and WAL root, build_worker_argv
# sets the per-shard identity, port and WAL directory, and the crash
# flags apply to a single server only
_NOT_FORWARDED = frozenset(
    (
        "shards", "port", "wal_dir", "shard_index", "shard_count",
        "join_empty", "crash_at_mutation", "torn_write_at_mutation",
    )
)


def worker_base_args(args: argparse.Namespace) -> list[str]:
    """The serve flags every shard worker inherits from the router.

    Derived from :func:`build_serve_parser`: each option outside
    ``_NOT_FORWARDED`` whose parsed value differs from its default
    is spelled out again, so a new serve option reaches the workers
    without a forwarding line of its own.
    """
    argv: list[str] = []
    for action in build_serve_parser()._actions:
        if action.dest in _NOT_FORWARDED or not action.option_strings:
            continue
        value = getattr(args, action.dest, action.default)
        if value == action.default:
            continue
        flag = action.option_strings[0]
        argv += [flag] if action.nargs == 0 else [flag, str(value)]
    return argv


def serve_sharded(args: argparse.Namespace) -> int:
    """Run ``serve --shards N``: supervisor + shard workers + router.

    Each shard is a full ``repro-study serve`` subprocess restricted to
    its consistent-hash slice of the owner space (``--shard-index``),
    with its own WAL directory; the supervisor restarts crashed shards
    and the router fails over around them.  The router process is one
    coroutine on one event loop: it binds the router's socket, starts
    the supervisor, finishes an interrupted rebalance, and serves until
    SIGTERM/SIGINT, then drains the router and SIGTERMs every shard
    (each runs its own graceful drain).
    """
    import os

    from .service import (
        RebalanceCoordinator,
        ServiceState,
        ShardMap,
        ShardSpec,
        ShardSupervisor,
        build_router,
        build_worker_argv,
        effective_topology,
    )

    base_args = worker_base_args(args)

    def say(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    # a completed live resize (POST /shards) persists the topology; an
    # interrupted one leaves a manifest — the effective boot count rolls
    # the migration forward (at/past cutover) or back (before it)
    boot_count, pending_manifest = effective_topology(
        args.wal_dir, args.shards
    )
    if boot_count != args.shards:
        say(
            f"persisted topology overrides --shards {args.shards}: "
            f"booting {boot_count} shard worker(s)"
        )

    def _shard_wal_dir(shard: int) -> str | None:
        if args.wal_dir is None:
            return None
        return os.path.join(args.wal_dir, f"shard-{shard}")

    def make_spec(
        shard: int, shard_count: int, join_empty: bool = False
    ) -> ShardSpec:
        return ShardSpec(
            index=shard,
            argv=build_worker_argv(
                shard,
                shard_count,
                base_args,
                wal_dir=_shard_wal_dir(shard),
                join_empty=join_empty,
            ),
        )

    shard_map = ShardMap(boot_count)
    specs = [make_spec(shard, boot_count) for shard in range(boot_count)]
    supervisor = ShardSupervisor(specs, backoff_seed=args.seed, log=say)
    state = ServiceState(ready=False, detail="recovering")
    # bind first: a busy port fails here, before any worker is spawned
    router = build_router(
        shard_map,
        supervisor,
        host=args.host,
        port=args.port,
        request_timeout=args.timeout,
        state=state,
        admission_capacity=args.admission,
    )

    async def boot() -> None:
        say(f"starting {boot_count} shard worker(s) ...")
        await supervisor.start()
        coordinator = RebalanceCoordinator(
            router,
            lambda shard, shard_count: make_spec(
                shard, shard_count, join_empty=True
            ),
            wal_root=args.wal_dir,
            log=say,
        )
        router.rebalance = coordinator
        if args.wal_dir is not None:
            # finishes an interrupted migration, or persists the topology
            outcome = await coordinator.finish_boot_recovery()
            if pending_manifest is not None:
                say(f"interrupted rebalance recovered: {outcome}")
        state.ready = True
        state.detail = "routing"

    async def drain() -> dict:
        say(
            f"draining router, stopping {supervisor.num_shards} shard "
            f"worker(s) (budget {args.drain_timeout:.1f}s each) ..."
        )
        return {
            "router": dict(router.counters),
            "supervisor": await supervisor.stop(
                drain_timeout=args.drain_timeout + 5.0
            ),
        }

    # a signal during boot stops every worker spawned so far
    return asyncio.run(_serve_until_signalled(router, drain, boot()))


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.workers and args.checkpoint_dir:
        parser.error(
            "--workers and --checkpoint-dir are mutually exclusive "
            "(per-pool checkpoints are owned by the serial loop)"
        )
    chosen = (
        list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    )

    if args.load_dataset:
        from .io.dataset import load_population

        print(f"loading cohort from {args.load_dataset} ...", file=sys.stderr)
        population = load_population(args.load_dataset)
    else:
        print(
            f"generating cohort: {args.owners} owners x ~{args.strangers} "
            f"strangers (seed {args.seed}, topology {args.topology}) ...",
            file=sys.stderr,
        )
        population = generate_study_population(
            num_owners=args.owners,
            ego_config=EgoNetConfig(
                num_friends=args.friends, num_strangers=args.strangers
            ),
            seed=args.seed,
            topology=args.topology,
        )
    if args.save_dataset:
        from .io.dataset import save_population

        save_population(population, args.save_dataset)
        print(f"dataset written to {args.save_dataset}", file=sys.stderr)

    if args.measure is not None:
        from .measures import render_measure_study, run_measure_study

        result = run_measure_study(
            population,
            args.measure,
            classifier=args.classifier,
            seed=args.seed,
        )
        print(render_measure_study(result))
        return 0

    needs_npp = args.validate or bool(
        set(chosen)
        & {
            "fig5", "fig6", "table1", "table2", "table3", "table4",
            "table5", "headline", "report",
        }
    )
    needs_nsp = args.validate or bool(set(chosen) & {"fig5", "fig6"})
    fault_plan = _fault_plan_from_args(args)
    study_options = dict(
        classifier=args.classifier,
        seed=args.seed,
        fault_plan=fault_plan,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        workers=args.workers,
    )
    npp = (
        run_study(population, pooling="npp", **study_options)
        if needs_npp
        else None
    )
    nsp = (
        run_study(population, pooling="nsp", **study_options)
        if needs_nsp
        else None
    )
    for name, study in (("NPP", npp), ("NSP", nsp)):
        if study is not None and study.degraded:
            print(
                f"{name} study degraded by faults: "
                f"{study.total_abstentions} abstentions, "
                f"{study.total_unreachable} unreachable strangers",
                file=sys.stderr,
            )

    sections: list[str] = []
    if "dataset" in chosen:
        from .analysis.dataset_stats import (
            dataset_statistics,
            render_dataset_statistics,
        )

        sections.append(
            render_dataset_statistics(dataset_statistics(population))
        )
    if "fig4" in chosen:
        sections.append(render_figure4(figure4(population)))
    if "fig5" in chosen:
        sections.append(
            render_round_series("Figure 5 — RMSE by round", figure5(npp, nsp))
        )
    if "fig6" in chosen:
        sections.append(
            render_round_series(
                "Figure 6 — average unstabilized labels by round",
                figure6(npp, nsp),
            )
        )
    if "fig7" in chosen:
        sections.append(render_figure7(figure7(population)))
    if "table1" in chosen:
        sections.append(
            render_importance_table(
                "Table I — profile attribute importance", table1(npp)
            )
        )
    if "table2" in chosen:
        sections.append(
            render_importance_table(
                "Table II — mined importance of benefits", table2(npp)
            )
        )
    if "table3" in chosen:
        sections.append(render_table3(table3(npp)))
    if "table4" in chosen:
        sections.append(render_table4(table4(npp)))
    if "table5" in chosen:
        sections.append(render_table5(table5(npp)))
    if "headline" in chosen:
        sections.append(render_headline(headline_metrics(npp)))
    if "report" in chosen:
        from .apps.report import render_owner_report

        first = npp.runs[0]
        sections.append(
            render_owner_report(
                first.result,
                first.similarities,
                first.benefits,
                owner_profile=first.owner.profile,
            )
        )

    if args.validate:
        from .experiments import validate_reproduction

        report = validate_reproduction(population, npp, nsp)
        sections.append(
            "Shape validation (paper's qualitative claims)\n"
            + report.render()
        )
        print("\n\n".join(sections))
        return 0 if report.all_passed else 1

    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
