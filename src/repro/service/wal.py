"""Write-ahead durability for the owner store.

Owner labels are the scarcest resource in the paper's loop (3 per round,
thousands of strangers per owner), and the serving graph mutates
continuously — so a crash that loses acknowledged mutations or granted
labels is the costliest possible failure.  This module makes the store
crash-safe with the classic two-file scheme:

* :class:`WriteAheadLog` — an append-only JSON-lines log of every store
  mutation.  Each record is one line, ``<crc32-hex> <compact-json>\\n``,
  fsync'd according to policy before the mutation is acknowledged.  A
  torn *final* record — the signature of a crash mid-write — fails its
  checksum and is truncated on recovery; a corrupt record *followed by
  valid ones* is real corruption and refuses to load.
* :class:`DurableOwnerStore` — an :class:`~repro.service.OwnerStore`
  whose mutations are logged write-ahead, with periodic compaction into
  an atomic snapshot file: compact JSON streamed one edge, profile or
  owner row at a time through the temp+rename+fsync machinery of
  :class:`repro.io.checkpoint.CheckpointStore`.  Recovery = load the
  snapshot, replay the WAL tail past the snapshot's sequence number.

The durability contract, pinned by ``tests/service/test_chaos.py``
against ``kill -9``: **no acknowledged mutation is ever lost**.  A
mutation in flight at the crash (logged but unacknowledged, or torn) may
or may not survive — both outcomes are correct, exactly like a client
write that timed out.

When exactly is an acknowledged mutation on disk?  Per fsync policy:

* ``"group"`` (the default, and what ``serve`` runs) — appended (write +
  flush, no fsync) inside :meth:`WriteAheadLog.append`, then fsync'd by
  the :meth:`WriteAheadLog.wait_durable` commit barrier **before the
  caller acknowledges**.  Concurrent mutations that arrive while a sync
  is in flight share the next barrier, so one fsync covers a whole
  batch.  The mutation is applied in memory *before* it is durable
  (memtable-style; apply order equals WAL order), but
  :class:`DurableOwnerStore` only returns to its caller — and hence the
  HTTP layer only acks — after ``wait_durable``.
* ``"always"`` — fsync'd inside ``append``, before the mutation is
  applied in memory.  One fsync per mutation.

Every op the store logs, replays and serves over ``POST /mutate`` is one
row of :data:`MUTATIONS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import (
    GraphError,
    RebalanceError,
    SerializationError,
    UnknownUserError,
    WalError,
)
from ..graph.profile import Profile
from ..graph.social_graph import SocialGraph
from ..io.checkpoint import CheckpointStore
from ..io.dataset import owner_from_dict, owner_to_dict
from ..io.serialization import (
    graph_from_dict,
    graph_to_dict,
    graph_to_json,
    profile_from_dict,
    profile_to_dict,
)
from ..synth.population import StudyPopulation
from ..types import RiskLabel, UserId
from .store import OwnerEntry, OwnerStore

_FORMAT_VERSION = 1

#: File names inside a ``--wal-dir``.
WAL_FILENAME = "mutations.wal"
SNAPSHOT_KEY = "store-snapshot"

#: How the WAL reaches the platter; both acknowledge a mutation only
#: after its fsync (see the module docstring for the exact contract).
FSYNC_POLICIES = ("always", "group")


# ---------------------------------------------------------------------------
# record encoding
# ---------------------------------------------------------------------------
def encode_record(record: dict[str, Any]) -> bytes:
    """One WAL line: crc32 of the compact-JSON payload, space, payload."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data), data)


def decode_record(line: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_record`; raises :class:`WalError`."""
    try:
        checksum, payload = line.split(b" ", 1)
        expected = int(checksum, 16)
    except ValueError as error:
        raise WalError(f"unparseable WAL line: {error}") from error
    if zlib.crc32(payload) != expected:
        raise WalError("WAL record failed its checksum")
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as error:
        raise WalError(f"WAL record is not valid JSON: {error}") from error
    if not isinstance(record, dict) or "seq" not in record or "op" not in record:
        raise WalError(f"WAL record missing seq/op: {record!r}")
    return record


def read_wal(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Read every intact record; returns ``(records, torn_bytes)``.

    A trailing record that fails to decode (torn write / crash mid-
    append) is dropped and its byte count reported.  A failing record
    *followed by an intact one* means mid-log corruption, which recovery
    must not paper over — that raises.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:  # final line never got its newline: torn
            return records, len(data) - offset
        line = data[offset : newline + 1]
        try:
            records.append(decode_record(line[:-1]))
        except WalError:
            remainder = data[newline + 1 :]
            if remainder.strip():
                raise WalError(
                    f"corrupt WAL record mid-log at byte {offset} of {path}"
                ) from None
            return records, len(data) - offset
        offset = newline + 1
    return records, 0


# ---------------------------------------------------------------------------
# owner-entry rows: the unit of snapshots *and* of migration slices
# ---------------------------------------------------------------------------
def owner_entry_to_dict(entry: OwnerEntry) -> dict[str, Any]:
    """One owner entry as a deterministic JSON-ready row.

    Captures everything that makes a served digest: the owner (with its
    accumulated ground truth and thetas), the **global cohort index**
    that derives the session seed, the cache-keying version, the
    universe, and granted labels.  Keys and collections are sorted, so
    equal entries serialize to byte-equal rows — the property migration
    digests rely on.
    """
    return {
        "owner": owner_to_dict(entry.owner),
        "index": entry.index,
        "version": entry.version,
        "universe": sorted(entry.universe),
        "labels": {
            str(stranger): int(label)
            for stranger, label in sorted(entry.labels.items())
        },
    }


def owner_entry_from_dict(row: Mapping[str, Any]) -> OwnerEntry:
    """Inverse of :func:`owner_entry_to_dict`."""
    return OwnerEntry(
        owner=owner_from_dict(row["owner"]),
        index=int(row["index"]),
        version=int(row["version"]),
        universe={int(user) for user in row["universe"]},
        labels={
            int(stranger): RiskLabel(int(label))
            for stranger, label in row.get("labels", {}).items()
        },
    )


def slice_digest(rows: Sequence[Mapping[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of owner rows, sorted by owner id.

    Both sides of a migration compute this independently — the source
    over what it exported, the destination over what it replayed — and
    the coordinator refuses cutover unless they match.
    """
    canonical = sorted(rows, key=lambda row: int(row["owner"]["user_id"]))
    payload = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def graph_digest(graph: SocialGraph) -> str:
    """SHA-256 of the graph's canonical JSON serialization."""
    return hashlib.sha256(graph_to_json(graph).encode("utf-8")).hexdigest()


def export_slice(
    store: OwnerStore, owner_ids: Iterable[UserId]
) -> dict[str, Any]:
    """Snapshot the moved owners' full state for WAL-slice handoff.

    Returns a self-verifying document: the owners' rows plus the
    source's current graph (a joining shard booted from the seed cohort
    and missed every broadcast since, so it adopts the graph wholesale),
    each with its digest.  Unknown owners raise — the migration plan
    must only name owners the source actually holds.
    """
    with store._lock:
        rows = [
            owner_entry_to_dict(store.get(int(owner_id)))
            for owner_id in owner_ids
        ]
        graph_doc = graph_to_dict(store.graph)
        digest = graph_digest(store.graph)
    return {
        "version": _FORMAT_VERSION,
        "owners": sorted(rows, key=lambda row: int(row["owner"]["user_id"])),
        "owners_digest": slice_digest(rows),
        "graph": graph_doc,
        "graph_digest": digest,
    }


def import_slice(
    store: OwnerStore,
    document: Mapping[str, Any],
    *,
    adopt_graph: bool = False,
) -> dict[str, Any]:
    """Replay an exported slice into the destination store.

    With ``adopt_graph`` the destination replaces its graph with the
    source's (the joining-shard case); without it the destination must
    already hold a byte-identical graph — broadcasts keep siblings in
    sync, and a digest mismatch here means they diverged, which must
    abort the migration rather than be papered over.

    Idempotent (attach replaces), so a crashed transfer can simply be
    re-run.  Returns ``{"attached": n, "owners_digest": ...}`` where the
    digest is recomputed from the *replayed* entries — the verify phase
    compares it against the source's.
    """
    if document.get("version") != _FORMAT_VERSION:
        raise RebalanceError(
            f"unsupported slice version: {document.get('version')!r}",
            phase="transfer",
        )
    rows = list(document["owners"])
    if slice_digest(rows) != document.get("owners_digest"):
        raise RebalanceError(
            "slice failed its owners digest in transit", phase="transfer"
        )
    if adopt_graph:
        store.replace_graph(graph_from_dict(document["graph"]))
    elif graph_digest(store.graph) != document.get("graph_digest"):
        raise RebalanceError(
            "destination graph diverged from source graph; refusing to "
            "import a slice across inconsistent graphs",
            phase="transfer",
        )
    entries = [owner_entry_from_dict(row) for row in rows]
    for entry in entries:
        store.attach_entry(entry)
    replayed = [
        owner_entry_to_dict(store.get(entry.owner.user_id))
        for entry in entries
    ]
    return {"attached": len(entries), "owners_digest": slice_digest(replayed)}


def detach_slice(
    store: OwnerStore, owner_ids: Iterable[UserId]
) -> dict[str, Any]:
    """Drop migrated owners from the source store (post-cutover).

    Returns how many were actually present — replays of this step after
    a crash see already-detached owners and count zero, which is fine.
    """
    detached = sum(
        1 for owner_id in owner_ids if store.detach_owner(int(owner_id))
    )
    return {"detached": detached}


def state_digest(
    store: OwnerStore, owner_ids: Iterable[UserId]
) -> dict[str, Any]:
    """Digest of the named owners' current state on this store.

    ``present`` lists which of them the store actually holds; the digest
    covers only those.  Used by the verify phase and by the cutover
    drift re-check (an in-flight request that raced the fence may have
    changed a moved owner after export — the coordinator detects that
    here and re-exports).
    """
    with store._lock:
        present = [
            int(owner_id)
            for owner_id in owner_ids
            if store.has_owner(int(owner_id))
        ]
        rows = [owner_entry_to_dict(store.get(owner_id)) for owner_id in present]
    return {
        "present": sorted(present),
        "owners_digest": slice_digest(rows),
        "graph_digest": graph_digest(store.graph),
    }


# ---------------------------------------------------------------------------
# the log
# ---------------------------------------------------------------------------
class WriteAheadLog:
    """Append-only, checksummed, fsync'd mutation log.

    Parameters
    ----------
    path:
        The log file (created if missing).
    fsync:
        ``"group"`` (the default) — group commit: ``append`` only
        writes, and :meth:`wait_durable` batches every record appended
        since the last sync into one fsync; ``"always"`` — fsync inside
        every :meth:`append`.  Both are fully durable at the ack.
    start_seq:
        Sequence number to continue from (recovery sets this).
    injector:
        Optional :class:`~repro.faults.ServiceFaultInjector` whose hooks
        fire at the commit boundaries.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "group",
        start_seq: int = 0,
        injector=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        self._path = Path(path)
        self._policy = fsync
        self._injector = injector
        self._lock = threading.Lock()
        # serializes fsyncs with each other and with file swaps (reset,
        # close); taken before _lock, never while holding it, so a
        # group-commit leader can fsync while appends keep landing
        self._sync_lock = threading.Lock()
        self._file = open(self._path, "ab")
        self._seq = start_seq
        self._synced_seq = start_seq
        self._appends = 0
        self._syncs = 0
        self._closed = False
        # group-commit barrier state, guarded by _commit_cond (never
        # held while _lock is taken *by a waiter*; the leader takes
        # _lock only after releasing _commit_cond, so ordering is safe)
        self._commit_cond = threading.Condition()
        self._durable_seq = start_seq
        self._sync_leader = False
        self._commit_error: WalError | None = None
        self._group_commits = 0
        self._group_batch_total = 0
        self._group_batch_max = 0

    @property
    def path(self) -> Path:
        """The backing log file."""
        return self._path

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended record."""
        with self._lock:
            return self._seq

    def stats(self) -> dict[str, Any]:
        """Appends, fsyncs, and policy — for metrics and benches.

        Under the ``"group"`` policy a ``"group"`` block reports the
        barrier's behavior: how many group commits ran, the mean and max
        records per fsync, and the highest durable sequence number.
        """
        with self._lock:
            document: dict[str, Any] = {
                "appends": self._appends,
                "fsyncs": self._syncs,
                "policy": self._policy,
                "seq": self._seq,
            }
        if self._policy == "group":
            with self._commit_cond:
                commits = self._group_commits
                document["group"] = {
                    "commits": commits,
                    "batch_max": self._group_batch_max,
                    "batch_mean": (
                        round(self._group_batch_total / commits, 3)
                        if commits
                        else 0.0
                    ),
                    "durable_seq": self._durable_seq,
                }
        return document

    def append(self, op: str, args: dict[str, Any]) -> int:
        """Log one mutation; returns its sequence number.

        Under ``"always"`` the record is fsync'd when this returns and
        the caller may apply and acknowledge immediately.  Under
        ``"group"`` the record is written but **not yet durable**: the
        caller must apply, then call :meth:`wait_durable` with the
        returned sequence number before acknowledging.

        Raises
        ------
        WalError
            When the log is closed, poisoned by an earlier group-commit
            fsync failure, or the disk refuses the write/sync; the
            caller must *not* apply or acknowledge the mutation.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            if self._commit_error is not None:
                raise WalError(
                    "write-ahead log poisoned by an earlier group-commit "
                    f"fsync failure: {self._commit_error}"
                )
            seq = self._seq + 1
            line = encode_record({"seq": seq, "op": op, "args": args})
            if self._injector is not None:
                line = self._injector.mangle_record(seq, line)
            try:
                self._file.write(line)
                self._file.flush()
            except OSError as error:
                raise WalError(f"WAL append failed: {error}") from error
            if self._injector is not None:
                self._injector.after_write(seq)
            self._seq = seq
            self._appends += 1
            if self._policy == "always":
                self._fsync(seq)
                if self._injector is not None:
                    self._injector.after_commit(seq)
            return seq

    def wait_durable(self, seq: int) -> None:
        """Block until record ``seq`` is fsync'd; the group-commit barrier.

        A no-op under ``"always"`` (which already synced inside
        :meth:`append`).  Under ``"group"``, the first waiter to
        find no sync in flight becomes the *leader*: it fsyncs once,
        covering every record appended so far, then wakes all followers
        — which is how concurrent mutations share one fsync.  Followers
        whose record the leader's sync covered return without syncing;
        ones that appended after the leader took its cut run the next
        barrier round.

        Raises
        ------
        WalError
            When the fsync failed.  Batched records may already be
            applied in memory without being durable, so a failure here
            *poisons the log*: every subsequent append or wait raises
            until the process restarts and recovers from disk.
        """
        if self._policy != "group":
            return
        while True:
            with self._commit_cond:
                if self._commit_error is not None and seq > self._durable_seq:
                    raise WalError(
                        "group commit failed; mutation is applied in memory "
                        f"but NOT durable: {self._commit_error}"
                    )
                if seq <= self._durable_seq:
                    break
                if self._sync_leader:
                    self._commit_cond.wait()
                    continue
                self._sync_leader = True
            # leader: sync outside _commit_cond so followers can queue
            # up, and outside _lock so later appends land during the
            # fsync and form the next batch
            error: WalError | None = None
            with self._sync_lock:
                with self._lock:
                    high = self._seq
                    closed = self._closed
                try:
                    if not closed:
                        self._fsync(high)
                except WalError as sync_error:
                    error = sync_error
            with self._commit_cond:
                self._sync_leader = False
                if error is None:
                    batch = high - self._durable_seq
                    if batch > 0:
                        self._group_commits += 1
                        self._group_batch_total += batch
                        self._group_batch_max = max(
                            self._group_batch_max, batch
                        )
                    self._durable_seq = max(self._durable_seq, high)
                else:
                    self._commit_error = error
                self._commit_cond.notify_all()
            if error is not None:
                raise WalError(
                    "group commit failed; mutation is applied in memory "
                    f"but NOT durable: {error}"
                )
        if self._injector is not None:
            self._injector.after_commit(seq)

    def _mark_durable(self, seq: int) -> None:
        """Record that everything up to ``seq`` reached disk; wake waiters."""
        with self._commit_cond:
            self._durable_seq = max(self._durable_seq, seq)
            self._commit_cond.notify_all()

    def flush(self) -> None:
        """Force any appends not yet group-committed to disk."""
        with self._sync_lock:
            with self._lock:
                seq = self._seq
                closed = self._closed
            if not closed and seq > self._synced_seq:
                self._fsync(seq)
        self._mark_durable(seq)

    def reset(self, seq: int | None = None) -> None:
        """Truncate the log (after compaction); sequence numbers continue.

        Every record folded into the (fsync'd, atomically renamed)
        snapshot is durable by construction, so truncation marks the
        whole log durable and wakes any group-commit waiters.
        """
        with self._sync_lock, self._lock:
            self._file.close()
            self._file = open(self._path, "wb")
            if seq is not None:
                self._seq = seq
            durable = self._synced_seq = self._seq
        self._mark_durable(durable)

    def close(self) -> None:
        """Flush and close; further appends raise."""
        with self._sync_lock, self._lock:
            if self._closed:
                return
            seq = self._seq
            if seq > self._synced_seq:
                try:
                    self._fsync(seq)
                except WalError:  # pragma: no cover - best-effort close
                    pass
            self._file.close()
            self._closed = True
        self._mark_durable(seq)

    def _fsync(self, seq: int) -> None:
        """fsync the log, covering every record up to ``seq``.

        The caller holds ``_sync_lock`` (group commit, flush, close) or
        ``_lock`` (an ``"always"`` append), so the file is not swapped
        underneath the sync.
        """
        try:
            if self._injector is not None:
                self._injector.before_fsync()
            os.fsync(self._file.fileno())
        except OSError as error:
            raise WalError(f"WAL fsync failed: {error}") from error
        self._syncs += 1
        self._synced_seq = max(self._synced_seq, seq)


# ---------------------------------------------------------------------------
# recovery bookkeeping
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableOwnerStore.open` found on disk."""

    source: str  # "fresh" | "recovered"
    snapshot_seq: int
    replayed: int
    truncated_bytes: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view for ``/healthz``."""
        return asdict(self)


# ---------------------------------------------------------------------------
# the durable store
# ---------------------------------------------------------------------------
class DurableOwnerStore(OwnerStore):
    """An owner store whose every mutation is logged write-ahead.

    Construct via :meth:`open` (recover-or-seed) — the plain constructor
    wires an already-populated store to an already-positioned log.

    Every mutating method encodes its call into the op's WAL args and
    hands them to ``_logged``.  Under the store lock it runs the op's
    :data:`MUTATIONS` check (so every logged record replays cleanly),
    appends, applies by decoding the logged args exactly as replay will
    (so memory and replay agree), and compacts every ``compact_every``
    mutations; then, with the lock released, it blocks on
    :meth:`WriteAheadLog.wait_durable`, so no mutation is acknowledged
    before its record is on disk.  Waiting outside the lock is what lets
    concurrent mutations share one group-commit fsync.  When the check
    finds nothing new to log, the method returns at once.
    """

    def __init__(
        self,
        graph: SocialGraph,
        wal: WriteAheadLog,
        checkpoints: CheckpointStore,
        *,
        compact_every: int | None = 1024,
        recovery: RecoveryReport | None = None,
    ) -> None:
        super().__init__(graph)
        if compact_every is not None and compact_every < 1:
            raise WalError(
                f"compact_every must be >= 1 or None, got {compact_every}"
            )
        self._wal = wal
        self._checkpoints = checkpoints
        self._compact_every = compact_every
        self._since_compaction = 0
        self.recovery = recovery or RecoveryReport("fresh", 0, 0, 0)
        self._acked = threading.local()

    # ------------------------------------------------------------------
    # open / recover
    # ------------------------------------------------------------------
    @staticmethod
    def has_snapshot(wal_dir: str | Path) -> bool:
        """Whether ``wal_dir`` holds a recoverable store."""
        return (Path(wal_dir) / f"{SNAPSHOT_KEY}.json").exists()

    @classmethod
    def open(
        cls,
        wal_dir: str | Path,
        population: StudyPopulation | None = None,
        *,
        fsync: str = "group",
        compact_every: int | None = 1024,
        injector=None,
        shard_map=None,
        shard_index: int | None = None,
        join_empty: bool = False,
    ) -> "DurableOwnerStore":
        """Recover a store from ``wal_dir``, or seed one from a cohort.

        With a snapshot present: load it, replay the WAL tail (records
        past the snapshot's sequence number), truncate any torn final
        record, and continue — ``population`` is ignored (the snapshot
        already holds this shard's owner subset with global indices).
        Without one: register every owner of ``population`` — or, with
        ``shard_map``/``shard_index``, only this shard's owners, each
        keeping its global cohort index — and write the initial snapshot
        so the next boot recovers instead of regenerating.

        ``join_empty`` seeds the cohort graph but registers **zero**
        owners: the boot mode of a shard joining a live rebalance, whose
        owners arrive via slice import instead of the generator.
        """
        wal_dir = Path(wal_dir)
        checkpoints = CheckpointStore(wal_dir)
        wal_path = wal_dir / WAL_FILENAME
        snapshot = checkpoints.load(SNAPSHOT_KEY)
        if snapshot is None:
            if population is None:
                raise WalError(
                    f"no snapshot under {wal_dir} and no population to "
                    "seed one from"
                )
            wal = WriteAheadLog(wal_path, fsync=fsync, injector=injector)
            store = cls(
                population.graph, wal, checkpoints, compact_every=compact_every
            )
            if not join_empty:
                store._register_cohort(population, shard_map, shard_index)
            store._save_snapshot()
            return store

        records, truncated = read_wal(wal_path)
        snapshot_seq = int(snapshot.get("seq", 0))
        if truncated:
            with open(wal_path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                handle.truncate(handle.tell() - truncated)
        graph, entries = cls._restore_snapshot(snapshot)
        tail = [r for r in records if int(r["seq"]) > snapshot_seq]
        last_seq = max(
            [snapshot_seq, *(int(r["seq"]) for r in records)], default=0
        )
        wal = WriteAheadLog(
            wal_path, fsync=fsync, start_seq=last_seq, injector=injector
        )
        store = cls(graph, wal, checkpoints, compact_every=compact_every)
        store.recovery = RecoveryReport(
            "recovered", snapshot_seq, len(tail), truncated
        )
        for entry in entries:
            OwnerStore.attach_entry(store, entry)
        for record in tail:
            try:
                store._apply(record["op"], record.get("args", {}))
            except Exception as error:
                raise WalError(
                    f"WAL record seq={record['seq']} op={record['op']!r} "
                    f"failed to replay: {error!r}"
                ) from error
        return store

    # ------------------------------------------------------------------
    # logged mutations: each encodes its call into the op's WAL args
    # ------------------------------------------------------------------
    def register(self, owner, universe=None, index=None) -> OwnerEntry:
        """Register one owner, durably (with its global cohort index)."""
        args = {
            "owner": owner_to_dict(owner),
            "universe": sorted(set(universe or {owner.user_id})),
            "index": index,
        }
        return self._logged("register", args)

    def add_user(self, profile: Profile, owner_id: UserId) -> None:
        """Durably add a new user inside one owner's universe."""
        args = {"profile": profile_to_dict(profile), "owner": owner_id}
        self._logged("add_user", args)

    def update_profile(self, profile: Profile) -> frozenset[UserId]:
        """Durably replace a user's profile."""
        args = {"profile": profile_to_dict(profile)}
        return self._logged("update_profile", args)

    def add_friendship(self, a: UserId, b: UserId) -> frozenset[UserId]:
        """Durably create the edge ``{a, b}``."""
        return self._logged("add_friendship", {"a": a, "b": b})

    def remove_friendship(self, a: UserId, b: UserId) -> frozenset[UserId]:
        """Durably remove the edge ``{a, b}``."""
        return self._logged("remove_friendship", {"a": a, "b": b})

    def grant_labels(
        self, owner_id: UserId, labels: Mapping[UserId, int]
    ) -> int:
        """Durably record oracle-granted labels (only the new ones)."""
        logged = {str(user): int(label) for user, label in labels.items()}
        args = {"owner": owner_id, "labels": logged}
        return self._logged("grant_labels", args) or 0

    def touch(self, owner_id: UserId) -> int:
        """Durably bump one owner's version.

        Logged so that version numbers — which key the engine's cache
        and are visible via ``/owners`` — agree across restarts.
        """
        return self._logged("touch", {"owner": owner_id})

    def attach_entry(self, entry: OwnerEntry) -> OwnerEntry:
        """Durably adopt a migrated entry (WAL-slice handoff, dest side).

        The full row is logged, so a destination killed between import
        and its next compaction replays the attach from its own WAL —
        the handoff is acknowledged only once it can survive a crash.
        """
        args = {"entry": owner_entry_to_dict(entry)}
        return self._logged("attach_owner", args)

    def detach_owner(self, owner_id: UserId) -> bool:
        """Durably drop a migrated owner (handoff, source side).

        Nothing is logged when the owner is already gone — replayed
        truncations must not bloat the WAL.
        """
        return bool(self._logged("detach_owner", {"owner": int(owner_id)}))

    def replace_graph(self, graph: SocialGraph) -> None:
        """Durably adopt a replacement graph (joining-shard import).

        The graph is logged wholesale: a joining shard's snapshot holds
        the *seed* graph, so without this record a crash between import
        and compaction would replay attach records against a graph
        missing every pre-resize broadcast.
        """
        self._logged("adopt_graph", {"graph": graph_to_dict(graph)})

    def _logged(self, op: str, args: dict[str, Any]) -> Any:
        """Check, append, apply, compact, then wait (class docstring)."""
        check = MUTATIONS[op].check
        self._acked.seq = None
        with self._lock:
            args = args if check is None else check(self, args)
            if args is None:  # nothing new to log, nor to wait for
                return None
            seq = self._wal.append(op, args)
            self._since_compaction += 1
            result = self._apply(op, args)
            # compact only *after* the apply: the snapshot covers the
            # WAL's seq, so compacting before it would truncate a record
            # the snapshot lacks, losing an acknowledged mutation
            every = self._compact_every
            if every is not None and self._since_compaction >= every:
                self._save_snapshot()
        self._wal.wait_durable(seq)
        self._acked.seq = seq
        return result

    def _apply(self, op: str, args: Mapping[str, Any]) -> Any:
        # the method is looked up per call, so a patched ``OwnerStore``
        # method (perfbench's spans) sees logged applies and replays
        row = MUTATIONS[op]
        return getattr(OwnerStore, row.method)(self, *row.decode(args))

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog:
        """The backing log (stats, flush)."""
        return self._wal

    @property
    def last_seq(self) -> int:
        """Seq of the last logged mutation (maybe another thread's)."""
        return self._wal.seq

    @property
    def acked_seq(self) -> int | None:
        """Seq of the record this thread's last mutation logged, durable
        once it returned (``None`` if it raised or logged nothing)."""
        return getattr(self._acked, "seq", None)

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns the covered seq.

        Safe against a crash at any point: the snapshot is written
        atomically (temp + fsync + rename + dir fsync) *before* the log
        is truncated, and replay skips records at or below the
        snapshot's sequence number, so a crash between the two steps
        replays nothing twice.
        """
        with self._lock:
            return self._save_snapshot()

    def close(self) -> None:
        """Flush and close the WAL."""
        self._wal.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _save_snapshot(self) -> int:
        # generators, so the checkpoint store streams one edge, profile
        # or owner row at a time instead of building the whole document
        seq = self._wal.seq
        document = {
            "version": _FORMAT_VERSION,
            "seq": seq,
            "graph": graph_to_dict(self._graph, lazy=True),
            "owners": (
                owner_entry_to_dict(entry)
                for entry in sorted(
                    self._entries.values(), key=lambda e: e.index
                )
            ),
        }
        self._checkpoints.save(SNAPSHOT_KEY, document)
        self._wal.reset()
        self._since_compaction = 0
        return seq

    @staticmethod
    def _restore_snapshot(
        document: dict[str, Any],
    ) -> tuple[SocialGraph, list[OwnerEntry]]:
        if document.get("version") != _FORMAT_VERSION:
            raise WalError(
                f"unsupported store snapshot version: "
                f"{document.get('version')!r}"
            )
        try:
            graph = graph_from_dict(document["graph"])
            entries = [
                owner_entry_from_dict(row) for row in document["owners"]
            ]
        except (KeyError, TypeError, ValueError, SerializationError) as error:
            raise WalError(f"malformed store snapshot: {error}") from error
        entries.sort(key=lambda entry: entry.index)
        return graph, entries


# ---------------------------------------------------------------------------
# the mutation table: the one home of the op vocabulary
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MutationOp:
    """One store mutation; a new op is one store method plus one row.

    ``method`` names the :class:`OwnerStore` method the op applies;
    ``decode`` maps its args (a WAL record's or a ``/mutate`` body's) to
    that method's positional arguments.  ``check`` runs under the store
    lock before the append: it raises on an invalid mutation and returns
    the args to log, or ``None`` when there is nothing new.  ``route``
    marks the ``/mutate`` ops: ``"owner"`` ones go to the owning shard,
    ``"broadcast"`` ones to every shard.
    """

    method: str
    decode: Callable[[Mapping[str, Any]], tuple]
    check: Callable[[OwnerStore, dict], dict | None] | None = None
    route: str | None = None


def _known_owner(store: OwnerStore, args: dict) -> dict:
    store.get(args["owner"])
    return args


def _valid_edge(store: OwnerStore, args: dict) -> dict:
    if args["a"] == args["b"]:
        raise GraphError(f"self-friendship rejected for user {args['a']}")
    for user in (args["a"], args["b"]):
        if user not in store.graph:
            raise UnknownUserError(user)
    return args


def _new_labels(store: OwnerStore, args: dict) -> dict | None:
    held = store.get(args["owner"]).labels
    new = {
        user: label
        for user, label in args["labels"].items()
        if held.get(int(user)) != RiskLabel(int(label))
    }
    return {**args, "labels": new} if new else None


def _present_owner(store: OwnerStore, args: dict) -> dict | None:
    return args if store.has_owner(args["owner"]) else None


def _fixed_index(store: OwnerStore, args: dict) -> dict:
    # an unindexed owner takes the next slot, fixed in its record
    index = args["index"]
    index = len(store.owner_ids()) if index is None else int(index)
    return {**args, "index": index}


def _owner(args: Mapping[str, Any]) -> tuple:
    return (int(args["owner"]),)


def _edge(args: Mapping[str, Any]) -> tuple:
    return int(args["a"]), int(args["b"])


def _profile(args: Mapping[str, Any]) -> tuple:
    return (profile_from_dict(args["profile"]),)


def _add_user(args: Mapping[str, Any]) -> tuple:
    return profile_from_dict(args["profile"]), int(args["owner"])


def _grant(args: Mapping[str, Any]) -> tuple:
    labels = dict(args["labels"]).items()
    return int(args["owner"]), {int(u): int(v) for u, v in labels}


def _register(args: Mapping[str, Any]) -> tuple:
    universe = {int(user) for user in args["universe"]}
    return owner_from_dict(args["owner"]), universe, args.get("index")


def _entry(args: Mapping[str, Any]) -> tuple:
    return (owner_entry_from_dict(args["entry"]),)


def _graph(args: Mapping[str, Any]) -> tuple:
    return (graph_from_dict(args["graph"]),)


#: Every op the WAL logs: ``/mutate``'s menu first, then internal ones.
MUTATIONS: dict[str, MutationOp] = {
    "add_friendship": MutationOp(
        "add_friendship", _edge, _valid_edge, "broadcast"
    ),
    "remove_friendship": MutationOp(
        "remove_friendship", _edge, _valid_edge, "broadcast"
    ),
    "update_profile": MutationOp(
        "update_profile", _profile, None, "broadcast"
    ),
    # the router also copies the new profile to the other shards
    "add_user": MutationOp("add_user", _add_user, _known_owner, "owner"),
    "grant_labels": MutationOp("grant_labels", _grant, _new_labels, "owner"),
    "touch": MutationOp("touch", _owner, _known_owner, "owner"),
    "register": MutationOp("register", _register, _fixed_index),
    "attach_owner": MutationOp("attach_entry", _entry),
    "detach_owner": MutationOp("detach_owner", _owner, _present_owner),
    "adopt_graph": MutationOp("replace_graph", _graph),
}

#: Ops accepted by :func:`mutate_store` / ``POST /mutate``.
MUTATION_OPS = tuple(op for op, row in MUTATIONS.items() if row.route)
#: Single-owner ops (routed to the owning shard).
OWNER_OPS = frozenset(
    op for op in MUTATION_OPS if MUTATIONS[op].route == "owner"
)
#: Shared-graph ops (broadcast to every shard).
BROADCAST_OPS = frozenset(
    op for op in MUTATION_OPS if MUTATIONS[op].route == "broadcast"
)


def mutate_store(
    store: OwnerStore, op: str, args: Mapping[str, Any]
) -> dict[str, Any]:
    """Apply one ``/mutate`` op to a store through its :data:`MUTATIONS` row.

    Unknown and internal ops raise :class:`KeyError`.  Returns a
    JSON-ready result: which owners were invalidated, their new
    versions, and (for durable stores) the seq that makes the mutation
    acknowledged-and-safe, :attr:`DurableOwnerStore.acked_seq`.
    """
    row = MUTATIONS.get(op)
    if row is None or row.route is None:
        raise KeyError(op)
    result = getattr(store, row.method)(*row.decode(args))
    owners = sorted(result if row.route == "broadcast" else _owner(args))
    return {
        "ok": True,
        "op": op,
        "affected": owners,
        "versions": {str(o): store.version(o) for o in owners},
        "seq": store.acked_seq if isinstance(store, DurableOwnerStore) else None,
    }


__all__ = [
    "BROADCAST_OPS",
    "DurableOwnerStore",
    "MUTATIONS",
    "MUTATION_OPS",
    "MutationOp",
    "OWNER_OPS",
    "RecoveryReport",
    "SNAPSHOT_KEY",
    "WAL_FILENAME",
    "WriteAheadLog",
    "decode_record",
    "detach_slice",
    "encode_record",
    "export_slice",
    "graph_digest",
    "import_slice",
    "mutate_store",
    "owner_entry_from_dict",
    "owner_entry_to_dict",
    "read_wal",
    "slice_digest",
    "state_digest",
]
