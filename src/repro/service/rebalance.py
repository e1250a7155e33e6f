"""Live shard rebalancing: crash-journaled WAL-slice migration.

PR 6 froze the shard count at boot; this module makes the fleet
elastically resizable while it serves.  ``POST /shards {"count": M}``
on the router starts a :class:`RebalanceCoordinator`, which walks a
migration state machine over exactly the owners the consistent-hash
delta moves (≈ ``1/N`` of the space — see
:func:`~repro.service.sharding.moved_owners`):

``plan → spawn → snapshot-slice → transfer → verify-digest → cutover →
truncate-source → retire → done``

* **plan** — ask every live shard for its owners, compute each one's
  destination under the resized ring, group the movers by
  ``(source, destination)`` edge;
* **spawn** — (grow) boot the joining workers with ``--join-empty``:
  same cohort graph, zero registered owners, fresh WAL dir;
* **snapshot-slice** — the source exports each moved owner's full entry
  (owner + ground truth, global cohort index, version, universe,
  labels) plus its graph, with digests (``POST /slice/export``);
* **transfer** — the destination replays the slice into its own durable
  store (``POST /slice/import``): logged ``attach_owner``/
  ``adopt_graph`` records make the handoff crash-safe on the
  destination before anything is acknowledged;
* **verify-digest** — the destination re-serializes what it replayed
  and must reproduce the source's digest byte-for-byte;
* **cutover** — after re-checking the source didn't drift since export
  (an in-flight request may have raced the fence), journal the intent,
  persist the new topology, and atomically swap the router's
  map + clients; the fence lifts here;
* **truncate-source** — the source durably detaches the moved owners;
* **retire** — (shrink) drain the removed tail workers and delete
  their WAL dirs.

The coordinator is one :class:`asyncio.Task` on the router's event
loop, next to the requests it fences and the shard supervisor: phase
calls go out on :class:`~repro.service.router.ShardClient` connections
kept per shard for the run, the supervisor's spawn, ready and retire
are awaited directly, and a pause awaits an :class:`asyncio.Event` that
``resume``/``abort`` set.

Every phase completion is journaled in a **rebalance manifest**
(:class:`~repro.io.checkpoint.CheckpointStore`, atomic write) next to a
persisted **topology** document, so a router killed at *any* phase
recovers deterministically at boot: a manifest short of ``cutover``
rolls back (destinations detach, joining WAL dirs are deleted, old
count serves); one at or past ``cutover`` rolls forward (new count
serves, truncate/retire re-run — both are idempotent).

Degraded-mode contract while migrating: owners that are not moving see
**zero** errors; moving owners (and graph-wide broadcasts, which would
stale the in-flight graph copy) get a bounded ``503 + Retry-After``
between export and cutover; ``GET /shards`` reports the live phase.
"""

from __future__ import annotations

import asyncio
import os
import shutil
from pathlib import Path
from typing import Any, Callable

from ..errors import (
    DeadlineExceededError,
    RebalanceError,
    RetryExhaustedError,
    ShardUnavailableError,
)
from ..io.checkpoint import CheckpointStore
from ..resilience import Deadline, RetryPolicy, retry_call_async
from .router import ShardClient
from .sharding import ShardMap
from .supervisor import ShardSpec

#: The migration state machine, in execution order.  The manifest's
#: ``phase`` field is always the *last completed* entry — except
#: ``cutover``, which is journaled before it is applied so recovery
#: rolls forward once the intent is durable.
PHASES = (
    "plan",
    "spawn",
    "snapshot-slice",
    "transfer",
    "verify-digest",
    "cutover",
    "truncate-source",
    "retire",
    "done",
)

#: Checkpoint keys under the deployment's ``--wal-dir``.
MANIFEST_KEY = "rebalance-manifest"
TOPOLOGY_KEY = "topology"

#: Chaos hook: when set to a phase name, the coordinator calls
#: ``os._exit(REBALANCE_EXIT_CODE)`` immediately after journaling that
#: phase — a deterministic router ``kill -9`` for the recovery matrix.
EXIT_AFTER_ENV = "REPRO_REBALANCE_EXIT_AFTER_PHASE"
REBALANCE_EXIT_CODE = 25

#: Seconds between a phase call's attempts while its shard is away.
_RETRY_DELAY = 0.2

#: Per-attempt HTTP timeout of a phase call to a shard.
HTTP_TIMEOUT = 15.0
#: Seconds a phase keeps retrying an unreachable shard before the
#: migration fails — rides out the supervisor's restart window, so a
#: ``kill -9`` of either endpoint mid-phase self-heals.
SHARD_PATIENCE = 60.0
#: How many times the export→verify loop runs when the source drifted
#: between export and cutover (an in-flight request that raced the
#: fence).  The fence blocks new work, so this converges after at most
#: one extra pass in practice.
DRIFT_RETRIES = 3
#: Seconds a retiring shard gets to drain before it is killed.
RETIRE_DRAIN_TIMEOUT = 15.0


def phase_reached(phase: str | None, target: str) -> bool:
    """Whether the journaled ``phase`` is at or past ``target``."""
    if phase is None:
        return False
    return PHASES.index(phase) >= PHASES.index(target)


def effective_topology(
    wal_root: str | Path | None, default_count: int
) -> tuple[int, dict[str, Any] | None]:
    """The shard count a restarting deployment must boot with.

    Reads the persisted topology document (a completed resize survives
    restarts) and the rebalance manifest: an interrupted migration
    overrides the topology — ``new_count`` at or past cutover (roll
    forward), ``old_count`` before it (roll back).  Returns the count
    and the active manifest (``None`` when there is nothing to finish).
    """
    if wal_root is None:
        return default_count, None
    checkpoints = CheckpointStore(wal_root)
    topology = checkpoints.load(TOPOLOGY_KEY)
    count = int(topology["count"]) if topology else default_count
    manifest = checkpoints.load(MANIFEST_KEY)
    if manifest is not None and manifest.get("status") == "active":
        if phase_reached(manifest.get("phase"), "cutover"):
            count = int(manifest["new_count"])
        else:
            count = int(manifest["old_count"])
        return count, manifest
    return count, None


class _AbortRequested(Exception):
    """Internal: the operator asked for a pre-cutover rollback."""


class RebalanceCoordinator:
    """Drives one live resize of the shard fleet, journaled throughout.

    Lives on the router's event loop: :meth:`begin`, :meth:`resume`,
    :meth:`abort` and :meth:`status` are called from its handlers, and
    the migration runs as a task there.

    Parameters
    ----------
    router:
        The :class:`~repro.service.router.ShardRouterServer` — supplies
        the supervisor, the current topology, the fence, and the atomic
        topology swap.
    make_spec:
        ``(shard_index, shard_count) -> ShardSpec`` for a joining
        worker.  Must boot the worker *empty* (same cohort graph, zero
        registered owners) — ``repro serve --join-empty`` does.
    wal_root:
        The deployment's ``--wal-dir``: manifest + topology documents
        live here, and per-shard ``shard-<i>`` WAL dirs are deleted on
        retire/rollback.  ``None`` = in-memory manifest only (no crash
        recovery — fine for tests, documented for ops).

    Timeouts, patience and the drift retries are the module constants
    above.
    """

    def __init__(
        self,
        router,
        make_spec: Callable[[int, int], ShardSpec],
        *,
        wal_root: str | Path | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self._router = router
        self._supervisor = router.supervisor
        self._make_spec = make_spec
        self._wal_root = Path(wal_root) if wal_root is not None else None
        self._checkpoints = (
            CheckpointStore(self._wal_root)
            if self._wal_root is not None
            else None
        )
        self._log = log or (lambda message: None)
        self._task: asyncio.Task | None = None
        self._resume = asyncio.Event()
        self._abort = asyncio.Event()
        #: One client per shard index for a run (or a boot recovery),
        #: closed when it ends.
        self._clients: dict[int, ShardClient] = {}
        self._pause_before: str | None = None
        self._paused_at: str | None = None
        self._slices: dict[tuple[int, int], dict[str, Any]] = {}
        self._manifest: dict[str, Any] | None = None
        if self._checkpoints is not None:
            self._manifest = self._checkpoints.load(MANIFEST_KEY)

    # ------------------------------------------------------------------
    # operator surface (POST /shards)
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """JSON-ready migration status for ``GET /shards``."""
        manifest = self._manifest
        if manifest is None:
            return {"status": "idle", "active": False}
        active = manifest.get("status") == "active"
        return {
            "status": (
                "paused"
                if active and self._paused_at is not None
                else manifest.get("status")
            ),
            "active": active,
            "phase": manifest.get("phase"),
            "paused_at": self._paused_at,
            "old_count": manifest.get("old_count"),
            "new_count": manifest.get("new_count"),
            "moves": [
                {
                    "source": move["source"],
                    "destination": move["destination"],
                    "owners": len(move["owners"]),
                }
                for move in manifest.get("moves", [])
            ],
            "error": manifest.get("error"),
        }

    def begin(
        self, new_count: int, pause_before: str | None = None
    ) -> None:
        """Start a live resize to ``new_count`` shards, as a task on the
        running event loop.

        ``pause_before`` holds the state machine just before the named
        phase until :meth:`resume` — the inspection hook operators (and
        the chaos harness) use to act at an exact phase boundary.
        """
        if self.status()["active"]:
            # a run's task ends in the same step that journals its end
            raise RebalanceError(
                "a rebalance is already in progress"
                if self._task is not None
                else "an unfinished rebalance manifest exists; restart the "
                "router to recover it before resizing again",
                phase=self._phase(),
            )
        if not isinstance(new_count, int) or new_count < 1:
            raise RebalanceError(
                f"shard count must be an integer >= 1, got {new_count!r}"
            )
        if pause_before is not None and pause_before not in PHASES:
            raise RebalanceError(
                f"unknown phase {pause_before!r}; phases: {PHASES}"
            )
        current = self._router.shard_map.num_shards
        if new_count == current:
            raise RebalanceError(f"fleet is already at {new_count} shards")
        self._manifest = {
            "status": "active",
            "phase": None,
            "old_count": current,
            "new_count": new_count,
            "moves": [],
            "error": None,
        }
        self._pause_before = pause_before
        self._paused_at = None
        self._resume = asyncio.Event()
        self._abort = asyncio.Event()
        self._slices = {}
        self._journal()
        self._task = asyncio.get_running_loop().create_task(self._run())
        self._log(
            f"rebalance started: {current} -> {new_count} shards"
            + (f" (pausing before {pause_before})" if pause_before else "")
        )

    def resume(self) -> None:
        """Release a migration paused by ``pause_before``."""
        if not self.status()["active"]:
            raise RebalanceError("no active rebalance to resume")
        self._resume.set()

    def abort(self) -> None:
        """Request a rollback; only honored before cutover."""
        if not self.status()["active"]:
            raise RebalanceError("no active rebalance to abort")
        if phase_reached(self._phase(), "cutover"):
            raise RebalanceError(
                "cutover already journaled; the migration can only "
                "roll forward",
                phase=self._phase(),
            )
        self._abort.set()
        self._resume.set()  # wake a paused state machine

    # ------------------------------------------------------------------
    # boot-time recovery (router restarted mid-migration)
    # ------------------------------------------------------------------
    async def finish_boot_recovery(self) -> str | None:
        """Complete or undo an interrupted migration found on disk.

        Run it once after the supervisor is up and *before* the router
        serves (``serve --shards`` awaits it on the router's loop).
        The caller must already have booted at
        :func:`effective_topology`'s count.  Returns ``"rolled-forward"``,
        ``"rolled-back"``, or ``None`` when there was nothing to do.
        """
        manifest = self._manifest
        if manifest is None or manifest.get("status") != "active":
            self._persist_topology(self._router.shard_map.num_shards)
            return None
        try:
            if phase_reached(manifest.get("phase"), "cutover"):
                self._log(
                    "recovering interrupted rebalance past cutover: "
                    f"rolling forward to {manifest['new_count']} shards"
                )
                self._persist_topology(manifest["new_count"])
                await self._roll_forward()
                return "rolled-forward"
            self._log(
                "recovering interrupted rebalance before cutover: "
                f"rolling back to {manifest['old_count']} shards"
            )
            await self._rollback(
                "interrupted before cutover; rolled back",
                patience=SHARD_PATIENCE,
            )
            return "rolled-back"
        finally:
            self._close_clients()

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        manifest = self._manifest
        assert manifest is not None
        try:
            await self._gate("plan")
            await self._phase_plan()
            self._set_phase("plan")
            await self._gate("spawn")
            await self._phase_spawn()
            self._set_phase("spawn")
            moving = sorted(
                {
                    owner
                    for move in manifest["moves"]
                    for owner in move["owners"]
                }
            )
            self._router.set_fence(moving, "migrating")
            for attempt in range(DRIFT_RETRIES):
                await self._gate("snapshot-slice")
                await self._phase_snapshot()
                self._set_phase("snapshot-slice")
                await self._gate("transfer")
                await self._phase_transfer()
                self._set_phase("transfer")
                await self._gate("verify-digest")
                await self._phase_verify()
                self._set_phase("verify-digest")
                await self._gate("cutover")
                if await self._sources_stable():
                    break
                self._log(
                    "a source drifted between export and cutover "
                    f"(in-flight request raced the fence); re-exporting "
                    f"(attempt {attempt + 2}/{DRIFT_RETRIES})"
                )
            else:
                raise RebalanceError(
                    "sources kept drifting after "
                    f"{DRIFT_RETRIES} export passes",
                    phase="cutover",
                )
            # -- point of no return: journal the intent, then apply it.
            # A crash after this journal rolls FORWARD at recovery.
            self._set_phase("cutover")
            self._persist_topology(manifest["new_count"])
            self._router.apply_topology(self._new_map())
            self._router.clear_fence()
            self._log(
                f"cutover complete: routing at {manifest['new_count']} shards"
            )
            await self._roll_forward()
            self._log("rebalance done")
        except _AbortRequested:
            await self._rollback("aborted by operator request")
        except RebalanceError as error:
            await self._rollback(str(error))
        except Exception as error:  # noqa: BLE001 - journal, never crash the router
            await self._rollback(f"unexpected failure: {error!r}")
        finally:
            self._router.clear_fence()
            self._paused_at = None
            self._close_clients()

    async def _roll_forward(self) -> None:
        """The phases after cutover that the manifest has not passed
        (pause-only: a journaled cutover can no longer abort)."""
        for phase, step in (
            ("truncate-source", self._phase_truncate),
            ("retire", self._phase_retire),
        ):
            if not phase_reached(self._phase(), phase):
                await self._pause_gate(phase)
                await step()
                self._set_phase(phase)
        self._finish_done()

    async def _phase_plan(self) -> None:
        manifest = self._manifest
        new_map = self._new_map()
        groups: dict[tuple[int, int], list[int]] = {}
        for shard in range(int(manifest["old_count"])):
            document = await self._shard_call(shard, "GET", "/owners")
            for row in document.get("owners", []):
                owner = int(row["owner"])
                destination = new_map.shard_of(owner)
                if destination != shard:
                    groups.setdefault((shard, destination), []).append(owner)
        manifest["moves"] = [
            {
                "source": source,
                "destination": destination,
                "owners": sorted(owners),
                "owners_digest": None,
                "imported_digest": None,
            }
            for (source, destination), owners in sorted(groups.items())
        ]
        total = sum(len(move["owners"]) for move in manifest["moves"])
        self._log(
            f"plan: {total} owner(s) move across "
            f"{len(manifest['moves'])} edge(s)"
        )

    async def _phase_spawn(self) -> None:
        manifest = self._manifest
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        for index in range(old_count, new_count):
            spec = self._make_spec(index, new_count)
            await self._supervisor.add_worker(spec)
            if not await self._supervisor.wait_for_ready(
                index, timeout=SHARD_PATIENCE
            ):
                raise RebalanceError(
                    f"joining shard {index} never became ready",
                    phase="spawn",
                )
            self._log(f"shard {index} spawned empty and ready")

    async def _phase_snapshot(self) -> None:
        for move in self._manifest["moves"]:
            document = await self._shard_call(
                int(move["source"]),
                "POST",
                "/slice/export",
                {"owners": move["owners"]},
            )
            self._slices[
                (int(move["source"]), int(move["destination"]))
            ] = document
            move["owners_digest"] = document["owners_digest"]

    async def _phase_transfer(self) -> None:
        old_count = int(self._manifest["old_count"])
        for move in self._manifest["moves"]:
            key = (int(move["source"]), int(move["destination"]))
            document = self._slices.get(key)
            if document is None:
                raise RebalanceError(
                    f"no exported slice for edge {key}", phase="transfer"
                )
            result = await self._shard_call(
                int(move["destination"]),
                "POST",
                "/slice/import",
                {
                    "slice": document,
                    # a joining shard booted empty from the seed cohort
                    # and missed every broadcast since: it adopts the
                    # source's graph; an existing shard must already
                    # match it byte-for-byte (import verifies)
                    "adopt_graph": int(move["destination"]) >= old_count,
                },
            )
            move["imported_digest"] = result.get("owners_digest")

    async def _phase_verify(self) -> None:
        for move in self._manifest["moves"]:
            digest = await self._shard_call(
                int(move["destination"]),
                "POST",
                "/slice/digest",
                {"owners": move["owners"]},
            )
            if digest.get("present") != sorted(move["owners"]) or (
                digest.get("owners_digest") != move["owners_digest"]
            ):
                raise RebalanceError(
                    f"destination shard {move['destination']} failed the "
                    "digest check after replay — migrated state is not "
                    "byte-identical to the source",
                    phase="verify-digest",
                )

    async def _sources_stable(self) -> bool:
        for move in self._manifest["moves"]:
            digest = await self._shard_call(
                int(move["source"]),
                "POST",
                "/slice/digest",
                {"owners": move["owners"]},
            )
            if digest.get("owners_digest") != move["owners_digest"]:
                return False
        return True

    async def _phase_truncate(self) -> None:
        by_source: dict[int, list[int]] = {}
        for move in self._manifest["moves"]:
            by_source.setdefault(int(move["source"]), []).extend(
                move["owners"]
            )
        for source, owners in sorted(by_source.items()):
            if source >= self._supervisor.num_shards:
                # boot-recovery roll-forward of a shrink: the removed
                # source was never respawned; its WAL dir is deleted at
                # retire, which truncates it rather more thoroughly
                continue
            await self._shard_call(
                source, "POST", "/slice/detach", {"owners": sorted(owners)}
            )

    async def _phase_retire(self) -> None:
        manifest = self._manifest
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        for index in range(old_count - 1, new_count - 1, -1):
            if index < self._supervisor.num_shards:
                await self._retire(index)
            self._remove_shard_dir(index)
            self._log(f"shard {index} retired; WAL dir removed")

    def _finish_done(self) -> None:
        manifest = self._manifest
        manifest["status"] = "done"
        manifest["phase"] = "done"
        manifest["error"] = None
        self._journal()
        self._slices = {}

    async def _rollback(self, error: str, patience: float = 10.0) -> None:
        self._router.clear_fence()
        manifest = self._manifest
        if manifest is None:
            return
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        self._log(f"rolling back rebalance: {error}")
        try:
            if new_count > old_count:
                # grow: every destination is a joining shard — drop the
                # workers (tail-first; none at boot recovery) and their
                # WAL dirs, which may hold partial imports; the sources
                # never detached anything, so they stay authoritative
                top = min(new_count, self._supervisor.num_shards)
                for index in range(top - 1, old_count - 1, -1):
                    try:
                        await self._retire(index)
                    except Exception:  # noqa: BLE001 - best-effort teardown
                        pass
                for index in range(old_count, new_count):
                    self._remove_shard_dir(index)
            else:
                # shrink: destinations are surviving shards that may have
                # imported slices — durably detach them; the removed
                # source still holds every moved owner
                for move in manifest.get("moves", []):
                    try:
                        await self._shard_call(
                            int(move["destination"]),
                            "POST",
                            "/slice/detach",
                            {"owners": move["owners"]},
                            patience=min(patience, SHARD_PATIENCE),
                        )
                    except RebalanceError as detach_error:
                        self._log(
                            "rollback detach on shard "
                            f"{move['destination']} failed: {detach_error}"
                        )
        except Exception as teardown_error:  # noqa: BLE001 - journal anyway
            self._log(f"rollback teardown failed: {teardown_error!r}")
        # not reached when the router stops mid-rollback (the task is
        # cancelled): the manifest stays active and boot recovery rolls
        # the migration back
        manifest["status"] = "aborted"
        manifest["error"] = error
        self._journal()
        self._persist_topology(old_count)
        self._slices = {}

    # ------------------------------------------------------------------
    # gates, journaling, plumbing
    # ------------------------------------------------------------------
    async def _gate(self, phase: str) -> None:
        """Pre-cutover boundary: honor pause_before and abort requests."""
        if self._abort.is_set():
            raise _AbortRequested()
        await self._pause_gate(phase)
        if self._abort.is_set():
            raise _AbortRequested()

    async def _pause_gate(self, phase: str) -> None:
        """Pause-only boundary (post-cutover phases cannot abort); an
        abort sets the resume event too."""
        if self._pause_before != phase or self._resume.is_set():
            return
        self._paused_at = phase
        self._log(f"rebalance paused before {phase}")
        await self._resume.wait()
        self._paused_at = None

    def _set_phase(self, phase: str) -> None:
        self._manifest["phase"] = phase
        self._journal()

    def _journal(self) -> None:
        if self._checkpoints is not None and self._manifest is not None:
            self._checkpoints.save(MANIFEST_KEY, self._manifest)
        exit_after = os.environ.get(EXIT_AFTER_ENV)
        if (
            exit_after
            and self._manifest is not None
            and self._manifest.get("status") == "active"
            and self._manifest.get("phase") == exit_after
        ):
            # chaos hook: die like a kill -9 the instant this phase is
            # durable, so the recovery matrix is deterministic
            os._exit(REBALANCE_EXIT_CODE)

    def _persist_topology(self, count: int) -> None:
        if self._checkpoints is not None:
            self._checkpoints.save(
                TOPOLOGY_KEY,
                {
                    "count": int(count),
                    "replicas": self._router.shard_map.replicas,
                },
            )

    def _new_map(self) -> ShardMap:
        return self._router.shard_map.resized(
            int(self._manifest["new_count"])
        )

    def _remove_shard_dir(self, index: int) -> None:
        if self._wal_root is not None:
            shutil.rmtree(self._wal_root / f"shard-{index}", ignore_errors=True)

    async def _retire(self, index: int) -> None:
        await self._supervisor.retire_worker(
            index, drain_timeout=RETIRE_DRAIN_TIMEOUT
        )

    def _close_clients(self) -> None:
        clients, self._clients = self._clients, {}
        for client in clients.values():
            client.close()

    async def _shard_call(
        self,
        shard: int,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        patience: float | None = None,
    ) -> dict[str, Any]:
        """One JSON call to a shard, patient across supervisor restarts.

        Each attempt is one :meth:`~repro.service.router.ShardClient.attempt`
        on the run's client for ``shard``.  Connection failures and
        502/503/504 answers are retried until ``patience`` runs out — a
        shard killed mid-phase comes back on the same WAL dir, and the
        phase call simply lands on the restarted worker.  Any other
        error status (the 409 digest conflict, a 4xx) raises at once.
        """
        patience = SHARD_PATIENCE if patience is None else patience
        client = self._clients.get(shard)
        if client is None:
            client = self._clients[shard] = ShardClient(
                self._supervisor, shard, timeout=HTTP_TIMEOUT
            )

        async def attempt() -> dict[str, Any]:
            status, document, _ = await client.attempt(method, path, body)
            if status < 300:
                return document
            message = (
                f"shard {shard} {method} {path} answered {status}: "
                f"{document.get('error', '')}"
            )
            if status in (502, 503, 504):  # restarting or draining
                raise ShardUnavailableError(message, shard=shard)
            raise RebalanceError(message, phase=self._phase())

        # a shard that fails fast runs out of attempts just inside the
        # deadline, which keeps its last error; the deadline ends a call
        # whose attempts hang
        policy = RetryPolicy(
            max_attempts=max(1, int(patience / _RETRY_DELAY)),
            base_delay=_RETRY_DELAY,
            multiplier=1.0,
            max_delay=_RETRY_DELAY,
            jitter=0.0,
        )
        try:
            return await retry_call_async(
                attempt,
                policy,
                retry_on=(ShardUnavailableError,),
                deadline=Deadline(patience),
            )
        except RetryExhaustedError as error:
            cause = error.last_error
        except DeadlineExceededError as error:
            cause = error
        raise RebalanceError(
            f"{method} {path} failed: {cause}", phase=self._phase()
        ) from cause

    def _phase(self) -> str | None:
        return (self._manifest or {}).get("phase")


__all__ = [
    "EXIT_AFTER_ENV",
    "MANIFEST_KEY",
    "PHASES",
    "REBALANCE_EXIT_CODE",
    "RebalanceCoordinator",
    "TOPOLOGY_KEY",
    "effective_topology",
    "phase_reached",
]
