"""The risk-scoring service: versioned store, cached engine, HTTP front.

The paper motivates on-the-fly risk labels on *dynamic* graphs
(Section III); this package is the layer that serves them continuously
instead of re-running the batch study per request:

* :class:`OwnerStore` — registry of owners with versioned graph/profile
  state; every delta bumps exactly the affected owners' versions;
* :class:`RiskEngine` — dispatches through the pluggable risk-measure
  registry (:mod:`repro.measures`; ``/score?measure=``), memoizes scores
  per ``(owner, measure, graph_version)``, re-scores stale owners *warm*
  (the default measure delta-replays only what a mutation touched,
  cold-identically), and reproduces
  :func:`repro.experiments.run_study` byte for byte on cold scores;
* :class:`ScoreScheduler` — bounded worker pool with per-owner
  serialization and backpressure;
* :class:`AsyncRiskServer` — the asyncio JSON API (``/score``,
  ``/score-batch``, ``/mutate``, ``/owners``, ``/healthz``, ``/readyz``,
  ``/metrics``) wired through the resilience layer and started from the
  CLI via ``repro-study serve``: bounded admission (queue full → 429 +
  ``Retry-After``), request coalescing (concurrent same-``(owner,
  measure, version)`` ``/score`` hits share one engine call), and
  group-committed WAL appends (one fsync per batch of concurrent
  mutations, acked only after the batch is durable);
* :class:`DurableOwnerStore` / :class:`WriteAheadLog` — crash safety:
  every mutation is logged write-ahead (checksummed, fsync'd) and
  periodically compacted into an atomic snapshot, so a ``kill -9`` loses
  no acknowledged mutation (``repro-study serve --wal-dir``);
* :class:`ShardMap` / :class:`ShardSupervisor` /
  :class:`ShardRouterServer` — horizontal fault isolation: the owner
  space is consistent-hashed across N shard worker processes (each with
  its own WAL, engine, and scheduler), a supervisor health-checks and
  restarts crashed shards, and a failover-aware router proxies
  ``/score``, ``/mutate``, and ``/score-batch`` to the owning shard
  (``repro-study serve --shards N``);
* :class:`RebalanceCoordinator` — live elasticity: ``POST /shards``
  resizes the fleet at runtime via a crash-journaled WAL-slice
  migration (export → replay → digest-verify → cutover), with bounded
  ``503 + Retry-After`` only for the owners in flight and deterministic
  roll-forward/rollback after a crash at any phase.
"""

from .async_http import AsyncRiskServer, build_server
from .dirty import DirtyDelta, DirtyLog
from .engine import EngineMetrics, RiskEngine, ScoreRecord
from .http import AdmissionQueue, ServiceState
from .rebalance import (
    PHASES,
    RebalanceCoordinator,
    effective_topology,
    phase_reached,
)
from .router import (
    ShardClient,
    ShardRouterHandler,
    ShardRouterServer,
    build_router,
)
from .scheduler import ScoreScheduler
from .sharding import DEFAULT_REPLICAS, ShardMap, moved_owners
from .store import OwnerEntry, OwnerStore
from .supervisor import ShardSpec, ShardSupervisor, build_worker_argv
from .wal import (
    DurableOwnerStore,
    RecoveryReport,
    WriteAheadLog,
    detach_slice,
    export_slice,
    import_slice,
    mutate_store,
    read_wal,
    slice_digest,
    state_digest,
)

__all__ = [
    "AdmissionQueue",
    "AsyncRiskServer",
    "DEFAULT_REPLICAS",
    "DirtyDelta",
    "DirtyLog",
    "DurableOwnerStore",
    "EngineMetrics",
    "OwnerEntry",
    "OwnerStore",
    "PHASES",
    "RebalanceCoordinator",
    "RecoveryReport",
    "RiskEngine",
    "ScoreRecord",
    "ScoreScheduler",
    "ServiceState",
    "ShardClient",
    "ShardMap",
    "ShardRouterHandler",
    "ShardRouterServer",
    "ShardSpec",
    "ShardSupervisor",
    "WriteAheadLog",
    "build_router",
    "build_server",
    "build_worker_argv",
    "detach_slice",
    "effective_topology",
    "export_slice",
    "import_slice",
    "moved_owners",
    "mutate_store",
    "phase_reached",
    "read_wal",
    "slice_digest",
    "state_digest",
]
