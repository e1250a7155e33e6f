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

import json
import os
import shutil
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable

from ..errors import RebalanceError
from ..io.checkpoint import CheckpointStore
from .sharding import ShardMap
from .supervisor import SHARD_OPENER, ShardSpec

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
    shard_patience:
        Seconds a phase keeps retrying an unreachable shard before the
        migration fails — rides out the supervisor's restart window, so
        a ``kill -9`` of either endpoint mid-phase self-heals.
    drift_retries:
        How many times the export→verify loop re-runs when the source
        drifted between export and cutover (an in-flight request that
        raced the fence).  The fence blocks new work, so this converges
        after at most one extra pass in practice.
    """

    def __init__(
        self,
        router,
        make_spec: Callable[[int, int], ShardSpec],
        *,
        wal_root: str | Path | None = None,
        log: Callable[[str], None] | None = None,
        http_timeout: float = 15.0,
        shard_patience: float = 60.0,
        drift_retries: int = 3,
        retire_drain_timeout: float = 15.0,
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
        self._http_timeout = http_timeout
        self._shard_patience = shard_patience
        self._drift_retries = max(1, drift_retries)
        self._retire_drain_timeout = retire_drain_timeout
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._resume = threading.Event()
        self._abort = threading.Event()
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
        with self._lock:
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
        """Start a live resize to ``new_count`` shards (background).

        ``pause_before`` holds the state machine just before the named
        phase until :meth:`resume` — the inspection hook operators (and
        the chaos harness) use to act at an exact phase boundary.
        """
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                raise RebalanceError(
                    "a rebalance is already in progress",
                    phase=(self._manifest or {}).get("phase"),
                )
            if (
                self._manifest is not None
                and self._manifest.get("status") == "active"
            ):
                raise RebalanceError(
                    "an unfinished rebalance manifest exists; restart the "
                    "router to recover it before resizing again",
                    phase=self._manifest.get("phase"),
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
                raise RebalanceError(
                    f"fleet is already at {new_count} shards"
                )
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
            self._resume = threading.Event()
            self._abort = threading.Event()
            self._slices = {}
            self._journal()
            self._thread = threading.Thread(
                target=self._run, name="rebalance", daemon=True
            )
            self._thread.start()
        self._log(
            f"rebalance started: {current} -> {new_count} shards"
            + (f" (pausing before {pause_before})" if pause_before else "")
        )

    def resume(self) -> None:
        """Release a migration paused by ``pause_before``."""
        with self._lock:
            if self._manifest is None or self._manifest.get("status") != "active":
                raise RebalanceError("no active rebalance to resume")
            self._resume.set()

    def abort(self) -> None:
        """Request a rollback; only honored before cutover."""
        with self._lock:
            if self._manifest is None or self._manifest.get("status") != "active":
                raise RebalanceError("no active rebalance to abort")
            if phase_reached(self._manifest.get("phase"), "cutover"):
                raise RebalanceError(
                    "cutover already journaled; the migration can only "
                    "roll forward",
                    phase=self._manifest.get("phase"),
                )
            self._abort.set()
            self._resume.set()  # wake a paused state machine

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the background run finishes (tests/ops tooling)."""
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------------
    # boot-time recovery (router restarted mid-migration)
    # ------------------------------------------------------------------
    def finish_boot_recovery(self) -> str | None:
        """Complete or undo an interrupted migration found on disk.

        Call after the supervisor and router are up, *before* marking
        the deployment ready.  The caller must already have booted at
        :func:`effective_topology`'s count.  Returns ``"rolled-forward"``,
        ``"rolled-back"``, or ``None`` when there was nothing to do.
        """
        manifest = self._manifest
        if manifest is None or manifest.get("status") != "active":
            self._persist_topology(self._router.shard_map.num_shards)
            return None
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        if phase_reached(manifest.get("phase"), "cutover"):
            self._log(
                "recovering interrupted rebalance past cutover: "
                f"rolling forward to {new_count} shards"
            )
            self._persist_topology(new_count)
            if not phase_reached(manifest["phase"], "truncate-source"):
                self._phase_truncate()
                self._set_phase("truncate-source")
            if not phase_reached(manifest["phase"], "retire"):
                self._phase_retire()
                self._set_phase("retire")
            self._finish_done()
            return "rolled-forward"
        self._log(
            "recovering interrupted rebalance before cutover: "
            f"rolling back to {old_count} shards"
        )
        if new_count > old_count:
            # joining workers were never part of the booted (old-count)
            # fleet; their WAL dirs may hold partial imports — delete
            # them so a future grow starts clean
            for index in range(old_count, new_count):
                self._remove_shard_dir(index)
        else:
            for move in manifest.get("moves", []):
                destination = int(move["destination"])
                if destination >= self._supervisor.num_shards:
                    continue
                try:
                    self._shard_call(
                        destination,
                        "POST",
                        "/slice/detach",
                        {"owners": move["owners"]},
                        patience=self._shard_patience,
                    )
                except RebalanceError as error:
                    self._log(
                        f"rollback detach on shard {destination} failed: "
                        f"{error} (owners still safe on the source)"
                    )
        manifest["status"] = "aborted"
        manifest["error"] = "interrupted before cutover; rolled back"
        self._journal()
        self._persist_topology(old_count)
        return "rolled-back"

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def _run(self) -> None:
        manifest = self._manifest
        assert manifest is not None
        try:
            self._gate("plan")
            self._phase_plan()
            self._set_phase("plan")
            self._gate("spawn")
            self._phase_spawn()
            self._set_phase("spawn")
            moving = sorted(
                {
                    owner
                    for move in manifest["moves"]
                    for owner in move["owners"]
                }
            )
            self._router.set_fence(moving, "migrating")
            for attempt in range(self._drift_retries):
                self._gate("snapshot-slice")
                self._phase_snapshot()
                self._set_phase("snapshot-slice")
                self._gate("transfer")
                self._phase_transfer()
                self._set_phase("transfer")
                self._gate("verify-digest")
                self._phase_verify()
                self._set_phase("verify-digest")
                self._gate("cutover")
                if self._sources_stable():
                    break
                self._log(
                    "a source drifted between export and cutover "
                    f"(in-flight request raced the fence); re-exporting "
                    f"(attempt {attempt + 2}/{self._drift_retries})"
                )
            else:
                raise RebalanceError(
                    "sources kept drifting after "
                    f"{self._drift_retries} export passes",
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
            self._pause_gate("truncate-source")
            self._phase_truncate()
            self._set_phase("truncate-source")
            self._pause_gate("retire")
            self._phase_retire()
            self._set_phase("retire")
            self._finish_done()
            self._log("rebalance done")
        except _AbortRequested:
            self._rollback("aborted by operator request")
        except RebalanceError as error:
            self._rollback(str(error))
        except Exception as error:  # noqa: BLE001 - journal, never crash the router
            self._rollback(f"unexpected failure: {error!r}")
        finally:
            self._router.clear_fence()
            self._paused_at = None

    def _phase_plan(self) -> None:
        manifest = self._manifest
        new_map = self._new_map()
        groups: dict[tuple[int, int], list[int]] = {}
        for shard in range(int(manifest["old_count"])):
            document = self._shard_call(shard, "GET", "/owners")
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

    def _phase_spawn(self) -> None:
        manifest = self._manifest
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        for index in range(old_count, new_count):
            spec = self._make_spec(index, new_count)
            self._supervisor.add_worker(spec)
            if not self._supervisor.wait_for_ready(
                index, timeout=self._shard_patience
            ):
                raise RebalanceError(
                    f"joining shard {index} never became ready",
                    phase="spawn",
                )
            self._log(f"shard {index} spawned empty and ready")

    def _phase_snapshot(self) -> None:
        for move in self._manifest["moves"]:
            document = self._shard_call(
                int(move["source"]),
                "POST",
                "/slice/export",
                {"owners": move["owners"]},
            )
            self._slices[
                (int(move["source"]), int(move["destination"]))
            ] = document
            move["owners_digest"] = document["owners_digest"]

    def _phase_transfer(self) -> None:
        old_count = int(self._manifest["old_count"])
        for move in self._manifest["moves"]:
            key = (int(move["source"]), int(move["destination"]))
            document = self._slices.get(key)
            if document is None:
                raise RebalanceError(
                    f"no exported slice for edge {key}", phase="transfer"
                )
            result = self._shard_call(
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

    def _phase_verify(self) -> None:
        for move in self._manifest["moves"]:
            digest = self._shard_call(
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

    def _sources_stable(self) -> bool:
        for move in self._manifest["moves"]:
            digest = self._shard_call(
                int(move["source"]),
                "POST",
                "/slice/digest",
                {"owners": move["owners"]},
            )
            if digest.get("owners_digest") != move["owners_digest"]:
                return False
        return True

    def _phase_truncate(self) -> None:
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
            self._shard_call(
                source, "POST", "/slice/detach", {"owners": sorted(owners)}
            )

    def _phase_retire(self) -> None:
        manifest = self._manifest
        old_count = int(manifest["old_count"])
        new_count = int(manifest["new_count"])
        for index in range(old_count - 1, new_count - 1, -1):
            if index < self._supervisor.num_shards:
                self._supervisor.retire_worker(
                    index, drain_timeout=self._retire_drain_timeout
                )
            self._remove_shard_dir(index)
            self._log(f"shard {index} retired; WAL dir removed")

    def _finish_done(self) -> None:
        manifest = self._manifest
        manifest["status"] = "done"
        manifest["phase"] = "done"
        manifest["error"] = None
        self._journal()
        self._slices = {}

    def _rollback(self, error: str) -> None:
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
                # workers (tail-first) and their WAL dirs; the sources
                # never detached anything, so they stay authoritative
                top = min(new_count, self._supervisor.num_shards)
                for index in range(top - 1, old_count - 1, -1):
                    try:
                        self._supervisor.retire_worker(
                            index, drain_timeout=self._retire_drain_timeout
                        )
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
                        self._shard_call(
                            int(move["destination"]),
                            "POST",
                            "/slice/detach",
                            {"owners": move["owners"]},
                            patience=min(10.0, self._shard_patience),
                        )
                    except RebalanceError as detach_error:
                        self._log(
                            "rollback detach on shard "
                            f"{move['destination']} failed: {detach_error}"
                        )
        finally:
            manifest["status"] = "aborted"
            manifest["error"] = error
            self._journal()
            self._persist_topology(old_count)
            self._slices = {}

    # ------------------------------------------------------------------
    # gates, journaling, plumbing
    # ------------------------------------------------------------------
    def _gate(self, phase: str) -> None:
        """Pre-cutover boundary: honor pause_before and abort requests."""
        if self._abort.is_set():
            raise _AbortRequested()
        self._pause_gate(phase)
        if self._abort.is_set():
            raise _AbortRequested()

    def _pause_gate(self, phase: str) -> None:
        """Pause-only boundary (post-cutover phases cannot abort)."""
        if self._pause_before != phase or self._resume.is_set():
            return
        self._paused_at = phase
        self._log(f"rebalance paused before {phase}")
        while not self._resume.wait(timeout=0.1):
            if self._abort.is_set():
                break
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

    def _shard_call(
        self,
        shard: int,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        patience: float | None = None,
    ) -> dict[str, Any]:
        """One JSON call to a shard, patient across supervisor restarts.

        Connection failures and 5xx answers are retried until
        ``patience`` runs out — a shard killed mid-phase comes back on
        the same WAL dir, and the phase call simply lands on the
        restarted worker.  Non-retryable HTTP errors (the 409 digest
        conflict, 4xx) raise immediately.
        """
        deadline = time.monotonic() + (
            self._shard_patience if patience is None else patience
        )
        last_error = f"shard {shard} never became addressable"
        while time.monotonic() < deadline:
            url = self._supervisor.url_of(shard)
            if url is None:
                time.sleep(0.1)
                continue
            data = None
            headers = {}
            if body is not None:
                data = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            request = urllib.request.Request(
                url + path, data=data, headers=headers, method=method
            )
            try:
                with SHARD_OPENER.open(
                    request, timeout=self._http_timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                status = int(error.code)
                try:
                    document = json.loads(error.read().decode("utf-8"))
                except Exception:  # noqa: BLE001 - non-JSON error body
                    document = {}
                if status in (502, 503, 504):
                    last_error = (
                        f"shard {shard} answered {status}: "
                        f"{document.get('error', '')}"
                    )
                    time.sleep(0.2)
                    continue
                raise RebalanceError(
                    f"shard {shard} {method} {path} answered {status}: "
                    f"{document.get('error', '')}",
                    phase=(self._manifest or {}).get("phase"),
                ) from error
            except (
                urllib.error.URLError,
                ConnectionError,
                OSError,
                json.JSONDecodeError,
            ) as error:
                last_error = f"shard {shard} unreachable: {error}"
                time.sleep(0.2)
                continue
        raise RebalanceError(
            f"{method} {path} failed: {last_error}",
            phase=(self._manifest or {}).get("phase"),
        )


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
