"""Tests for the write-ahead log and the durable owner store."""

from __future__ import annotations

import json
import threading
import tracemalloc
import zlib

import pytest

from repro.errors import GraphError, UnknownUserError, WalError
from repro.faults import ServiceFaultInjector, ServiceFaultPlan
from repro.io import graph_to_json, result_digest
from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    RiskEngine,
    WriteAheadLog,
    mutate_store,
    read_wal,
)
from repro.service.wal import (
    MUTATION_OPS,
    SNAPSHOT_KEY,
    WAL_FILENAME,
    decode_record,
    encode_record,
    owner_entry_to_dict,
)
from repro.synth import EgoNetConfig, generate_study_population

from ..conftest import make_profile
from .conftest import SERVICE_SEED, make_service_population


# ---------------------------------------------------------------------------
# record encoding
# ---------------------------------------------------------------------------
class TestRecordEncoding:
    def test_roundtrip(self):
        record = {"seq": 7, "op": "touch", "args": {"owner": 3}}
        assert decode_record(encode_record(record)[:-1]) == record

    def test_line_is_checksum_space_payload_newline(self):
        line = encode_record({"seq": 1, "op": "touch", "args": {}})
        checksum, payload = line[:-1].split(b" ", 1)
        assert line.endswith(b"\n")
        assert int(checksum, 16) == zlib.crc32(payload)
        assert json.loads(payload) == {"seq": 1, "op": "touch", "args": {}}

    def test_flipped_byte_fails_the_checksum(self):
        line = encode_record({"seq": 1, "op": "touch", "args": {}})[:-1]
        corrupt = line[:-3] + bytes([line[-3] ^ 0xFF]) + line[-2:]
        with pytest.raises(WalError, match="checksum"):
            decode_record(corrupt)

    def test_missing_seq_is_rejected(self):
        payload = json.dumps({"op": "touch"}).encode()
        line = b"%08x %s" % (zlib.crc32(payload), payload)
        with pytest.raises(WalError, match="seq"):
            decode_record(line)

    def test_garbage_is_unparseable(self):
        with pytest.raises(WalError):
            decode_record(b"not a wal line")


class TestReadWal:
    def write(self, path, records, tail=b""):
        data = b"".join(encode_record(r) for r in records) + tail
        path.write_bytes(data)
        return data

    def records(self, n):
        return [
            {"seq": i + 1, "op": "touch", "args": {"owner": 1}}
            for i in range(n)
        ]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_wal(tmp_path / "absent.wal") == ([], 0)

    def test_intact_log_roundtrips(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        self.write(path, self.records(3))
        records, torn = read_wal(path)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert torn == 0

    def test_torn_final_record_is_dropped_and_counted(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        torn_tail = encode_record(self.records(4)[-1])[:10]
        self.write(path, self.records(3), tail=torn_tail)
        records, torn = read_wal(path)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert torn == len(torn_tail)

    def test_corrupt_final_line_with_newline_is_torn_too(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        self.write(path, self.records(2), tail=b"deadbeef {broken\n")
        records, torn = read_wal(path)
        assert len(records) == 2
        assert torn == len(b"deadbeef {broken\n")

    def test_midlog_corruption_refuses_to_load(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        lines = [encode_record(r) for r in self.records(3)]
        lines[1] = b"deadbeef {broken}\n"  # valid records follow: not torn
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError, match="mid-log"):
            read_wal(path)


# ---------------------------------------------------------------------------
# the log object
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_assigns_monotonic_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME)
        assert wal.append("touch", {"owner": 1}) == 1
        assert wal.append("touch", {"owner": 2}) == 2
        wal.close()
        records, torn = read_wal(tmp_path / WAL_FILENAME)
        assert [r["seq"] for r in records] == [1, 2]
        assert torn == 0

    def test_always_policy_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME, fsync="always")
        wal.append("touch", {})
        wal.append("touch", {})
        assert wal.stats()["fsyncs"] == 2
        wal.close()

    def test_reset_truncates_but_keeps_the_seq(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path)
        wal.append("touch", {})
        wal.reset()
        assert path.read_bytes() == b""
        assert wal.append("touch", {}) == 2  # seq survives truncation
        wal.close()

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME)
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append("touch", {})

    def test_unknown_policy_is_rejected(self, tmp_path):
        with pytest.raises(WalError, match="fsync policy"):
            WriteAheadLog(tmp_path / WAL_FILENAME, fsync="sometimes")


# ---------------------------------------------------------------------------
# the durable store
# ---------------------------------------------------------------------------
@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture
def durable_store(wal_dir):
    store = DurableOwnerStore.open(wal_dir, make_service_population())
    yield store
    store.close()


def reopen(store, wal_dir, **kwargs):
    store.close()
    return DurableOwnerStore.open(wal_dir, **kwargs)


def store_state(store):
    """Everything recovery must preserve, in comparable form."""
    return {
        "owners": [
            (
                owner_id,
                entry.index,
                entry.version,
                frozenset(entry.universe),
                tuple(sorted(entry.labels.items())),
            )
            for owner_id in store.owner_ids()
            for entry in [store.get(owner_id)]
        ],
        "edges": {
            frozenset(edge) for edge in store.graph.edges()
        },
    }


class TestDurableOwnerStore:
    def test_fresh_open_writes_a_snapshot(self, wal_dir, durable_store):
        assert durable_store.recovery.source == "fresh"
        assert DurableOwnerStore.has_snapshot(wal_dir)

    def test_open_without_snapshot_or_population_raises(self, wal_dir):
        with pytest.raises(WalError, match="no snapshot"):
            DurableOwnerStore.open(wal_dir)

    def test_mutations_survive_reopen(self, wal_dir, durable_store):
        owners = durable_store.owner_ids()
        a, b = owners[0], owners[1]
        newcomer = make_profile(777_001)
        durable_store.add_user(newcomer, a)
        durable_store.add_friendship(a, 777_001)
        durable_store.add_friendship(a, b)  # joins the two universes
        durable_store.remove_friendship(a, b)
        durable_store.update_profile(make_profile(777_001, locale="DE"))
        durable_store.grant_labels(a, {777_001: 1})
        durable_store.touch(b)
        expected = store_state(durable_store)

        recovered = reopen(durable_store, wal_dir)
        assert recovered.recovery.source == "recovered"
        assert recovered.recovery.replayed == 7
        assert store_state(recovered) == expected
        assert recovered.last_seq == durable_store.last_seq
        recovered.close()

    def test_seq_numbers_continue_after_reopen(self, wal_dir, durable_store):
        owner = durable_store.owner_ids()[0]
        durable_store.touch(owner)
        seq = durable_store.last_seq
        recovered = reopen(durable_store, wal_dir)
        recovered.touch(owner)
        assert recovered.last_seq == seq + 1
        recovered.close()

    def test_torn_tail_is_truncated_not_fatal(self, wal_dir, durable_store):
        owner = durable_store.owner_ids()[0]
        durable_store.touch(owner)
        expected = store_state(durable_store)
        durable_store.close()
        wal_path = wal_dir / WAL_FILENAME
        with open(wal_path, "ab") as handle:
            handle.write(b"deadbeef {torn-mid-")
        recovered = DurableOwnerStore.open(wal_dir)
        assert recovered.recovery.truncated_bytes == len(b"deadbeef {torn-mid-")
        assert store_state(recovered) == expected
        # the torn bytes are gone from disk, not just skipped in memory
        records, torn = read_wal(wal_path)
        assert torn == 0
        recovered.close()

    def test_compaction_folds_the_wal_into_the_snapshot(
        self, wal_dir, durable_store
    ):
        owner = durable_store.owner_ids()[0]
        for _ in range(3):
            durable_store.touch(owner)
        expected = store_state(durable_store)
        covered = durable_store.compact()
        assert covered == durable_store.last_seq
        assert (wal_dir / WAL_FILENAME).read_bytes() == b""
        recovered = reopen(durable_store, wal_dir)
        assert recovered.recovery.snapshot_seq == covered
        assert recovered.recovery.replayed == 0
        assert store_state(recovered) == expected
        recovered.close()

    def test_auto_compaction_triggers_every_n_mutations(self, wal_dir):
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), compact_every=3
        )
        owner = store.owner_ids()[0]
        for _ in range(3):
            store.touch(owner)
        # the 3rd mutation compacted: WAL empty, snapshot covers all
        assert (wal_dir / WAL_FILENAME).read_bytes() == b""
        recovered = reopen(store, wal_dir)
        assert recovered.recovery.snapshot_seq == store.last_seq
        recovered.close()

    def test_invalid_mutations_never_reach_the_wal(
        self, wal_dir, durable_store
    ):
        owner = durable_store.owner_ids()[0]
        seq = durable_store.last_seq
        with pytest.raises(GraphError):
            durable_store.add_friendship(owner, owner)
        with pytest.raises(UnknownUserError):
            durable_store.add_friendship(owner, 424_242)
        with pytest.raises(UnknownUserError):
            durable_store.remove_friendship(owner, 424_242)
        assert durable_store.last_seq == seq

    def test_scores_are_byte_identical_after_recovery(
        self, wal_dir, durable_store
    ):
        owner = durable_store.owner_ids()[0]
        record = RiskEngine(durable_store, seed=SERVICE_SEED).score(owner)
        recovered = reopen(durable_store, wal_dir)
        cold = RiskEngine(recovered, seed=SERVICE_SEED).score(owner)
        assert cold.digest == record.digest
        assert result_digest(cold.result) == record.digest
        recovered.close()

    def test_engine_grants_persist_through_the_store(
        self, wal_dir, durable_store
    ):
        owner = durable_store.owner_ids()[0]
        RiskEngine(durable_store, seed=SERVICE_SEED).score(owner)
        granted = dict(durable_store.get(owner).labels)
        assert granted  # the session asked the oracle for labels
        recovered = reopen(durable_store, wal_dir)
        assert dict(recovered.get(owner).labels) == granted
        recovered.close()


# ---------------------------------------------------------------------------
# fault injection (in-process)
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# snapshot format: compact and streamed; indented snapshots still load
# ---------------------------------------------------------------------------
def legacy_snapshot_document(store):
    """The snapshot document as the pre-streaming writer built it: the
    graph through a full ``indent=2`` JSON round trip, every owner row
    materialized.  The oracle for the streamed writer."""
    return {
        "version": 1,
        "seq": store.last_seq,
        "graph": json.loads(graph_to_json(store.graph)),
        "owners": [
            owner_entry_to_dict(store.get(owner_id))
            for owner_id in sorted(
                store.owner_ids(), key=lambda owner: store.get(owner).index
            )
        ],
    }


def snapshot_path(wal_dir):
    return wal_dir / f"{SNAPSHOT_KEY}.json"


class TestSnapshotFormat:
    def mutate(self, store):
        owner = store.owner_ids()[0]
        entry = store.get(owner)
        stranger = sorted(entry.universe - {owner})[0]
        store.touch(owner)
        store.grant_labels(owner, {stranger: 2})
        store.add_friendship(owner, stranger)
        return owner

    def test_streamed_snapshot_is_the_compact_encoding_of_the_old_document(
        self, wal_dir, durable_store
    ):
        self.mutate(durable_store)
        durable_store.compact()
        expected = json.dumps(
            legacy_snapshot_document(durable_store),
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        assert snapshot_path(wal_dir).read_bytes() == expected

    def test_indented_snapshot_still_recovers_to_equal_digests(
        self, wal_dir, durable_store
    ):
        owner = self.mutate(durable_store)
        durable_store.compact()
        digests = {
            owner_id: RiskEngine(durable_store, seed=SERVICE_SEED)
            .score(owner_id)
            .digest
            for owner_id in durable_store.owner_ids()
        }
        expected = store_state(durable_store)
        # the format every WAL directory written before streaming holds
        snapshot_path(wal_dir).write_text(
            json.dumps(
                legacy_snapshot_document(durable_store),
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        recovered = reopen(durable_store, wal_dir)
        try:
            assert recovered.recovery.replayed == 0
            assert store_state(recovered) == expected
            assert {
                owner_id: RiskEngine(recovered, seed=SERVICE_SEED)
                .score(owner_id)
                .digest
                for owner_id in recovered.owner_ids()
            } == digests
            # the next compaction rewrites it in the compact format
            recovered.touch(owner)
            recovered.compact()
            assert b"\n" not in snapshot_path(wal_dir).read_bytes()
        finally:
            recovered.close()

    def test_compaction_allocates_less_than_the_snapshot_size(self, wal_dir):
        # the benchmark's served cohort: 8 owners x 300 strangers
        population = generate_study_population(
            num_owners=8,
            ego_config=EgoNetConfig(num_friends=30, num_strangers=300),
            seed=1,
        )
        store = DurableOwnerStore.open(wal_dir, population)
        try:
            tracemalloc.start()
            try:
                store.compact()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < snapshot_path(wal_dir).stat().st_size
        finally:
            store.close()


class TestFaultInjection:
    def test_fsync_failure_rejects_without_applying(self, wal_dir):
        injector = ServiceFaultInjector(
            ServiceFaultPlan(fsync_failure_rate=1.0), seed=5
        )
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), injector=injector
        )
        owner = store.owner_ids()[0]
        version = store.version(owner)
        with pytest.raises(WalError, match="fsync"):
            store.touch(owner)
        # not applied in memory: the caller saw the failure, not an ack
        assert store.version(owner) == version
        store.close()

    def test_torn_write_then_crash_recovers_clean(self, wal_dir):
        crashes = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(torn_write_at_mutation=2),
            crash=lambda code: crashes.append(code),
        )
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), injector=injector
        )
        owner = store.owner_ids()[0]
        store.touch(owner)  # mutation 1: clean
        version = store.version(owner)
        store.touch(owner)  # mutation 2: torn on disk + crash scheduled
        assert crashes == [23]
        store.wal.close()  # simulate the process dying without cleanup

        recovered = DurableOwnerStore.open(wal_dir)
        assert recovered.recovery.truncated_bytes > 0
        # the torn mutation was never acked; state is as of mutation 1
        assert recovered.version(owner) == version
        recovered.close()

    def test_crash_after_commit_preserves_the_acked_mutation(self, wal_dir):
        crashes = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(crash_at_mutation=2),
            crash=lambda code: crashes.append(code),
        )
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), injector=injector
        )
        owner = store.owner_ids()[0]
        store.touch(owner)
        store.touch(owner)  # durable, then the crash hook fires
        assert crashes == [24]
        seq = store.last_seq
        store.wal.close()

        recovered = DurableOwnerStore.open(wal_dir)
        # committed-before-crash implies present-after-recovery
        assert recovered.last_seq == seq
        assert recovered.version(owner) == 2
        recovered.close()


# ---------------------------------------------------------------------------
# mutate_store (the POST /mutate core)
# ---------------------------------------------------------------------------
class TestMutateStore:
    @pytest.fixture
    def plain_store(self):
        return OwnerStore.from_population(make_service_population())

    def test_every_declared_op_is_dispatchable(self, plain_store):
        owner = plain_store.owner_ids()[0]
        profile = make_profile(777_002)
        by_op = {
            "add_user": {"profile": profile_to_dict_for_test(profile),
                         "owner": owner},
            "add_friendship": {"a": owner, "b": 777_002},
            "remove_friendship": {"a": owner, "b": 777_002},
            "update_profile": {
                "profile": profile_to_dict_for_test(
                    make_profile(777_002, locale="DE")
                )
            },
            "grant_labels": {"owner": owner, "labels": {"777002": 1}},
            "touch": {"owner": owner},
        }
        assert set(by_op) == set(MUTATION_OPS)
        for op in by_op:  # dict order: add_user must precede the edge ops
            result = mutate_store(plain_store, op, by_op[op])
            assert result["ok"] is True
            assert result["op"] == op
            assert result["seq"] is None  # plain store: no WAL

    def test_durable_store_acks_with_a_seq(self, wal_dir):
        store = DurableOwnerStore.open(wal_dir, make_service_population())
        owner = store.owner_ids()[0]
        result = mutate_store(store, "touch", {"owner": owner})
        assert result["seq"] == store.last_seq
        assert result["versions"][str(owner)] == store.version(owner)
        store.close()

    def test_unknown_op_raises_keyerror(self, plain_store):
        with pytest.raises(KeyError):
            mutate_store(plain_store, "drop_table", {})


def profile_to_dict_for_test(profile):
    from repro.io.serialization import profile_to_dict

    return profile_to_dict(profile)


# ---------------------------------------------------------------------------
# group commit: batched fsyncs behind the ack barrier
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_one_barrier_covers_every_record_appended_so_far(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME, fsync="group")
        first = wal.append("touch", {"owner": 1})
        second = wal.append("touch", {"owner": 2})
        assert wal.stats()["fsyncs"] == 0  # append never syncs
        wal.wait_durable(second)
        stats = wal.stats()
        assert stats["fsyncs"] == 1  # one fsync for both records
        assert stats["group"] == {
            "commits": 1,
            "batch_max": 2,
            "batch_mean": 2.0,
            "durable_seq": second,
        }
        wal.wait_durable(first)  # already covered: no second fsync
        assert wal.stats()["fsyncs"] == 1
        wal.close()

    def test_wait_durable_is_a_noop_outside_the_group_policy(self, tmp_path):
        always = WriteAheadLog(tmp_path / "always.wal", fsync="always")
        seq = always.append("touch", {})
        always.wait_durable(seq)
        assert always.stats()["fsyncs"] == 1  # append already synced
        always.close()

    def test_concurrent_waiters_share_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME, fsync="group")
        appends = 24

        def commit_one(owner: int) -> None:
            wal.wait_durable(wal.append("touch", {"owner": owner}))

        threads = [
            threading.Thread(target=commit_one, args=(owner,))
            for owner in range(appends)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        stats = wal.stats()
        assert stats["appends"] == appends
        assert stats["group"]["durable_seq"] == appends  # all acked durable
        records, torn = read_wal(tmp_path / WAL_FILENAME)
        assert len(records) == appends and torn == 0
        wal.close()

    def test_appends_land_while_the_leader_fsyncs(self, tmp_path):
        """The barrier leader fsyncs outside the append lock, so a
        mutation arriving mid-fsync appends at once and joins the next
        batch instead of queueing behind the disk."""
        syncing, gate = threading.Event(), threading.Event()

        def slow_disk(_seconds: float) -> None:
            syncing.set()
            assert gate.wait(timeout=30)

        injector = ServiceFaultInjector(
            ServiceFaultPlan(slow_disk_seconds=1.0), sleeper=slow_disk
        )
        wal = WriteAheadLog(
            tmp_path / WAL_FILENAME, fsync="group", injector=injector
        )
        leader = threading.Thread(
            target=lambda: wal.wait_durable(wal.append("touch", {}))
        )
        leader.start()
        assert syncing.wait(timeout=30)
        late: list[int] = []
        follower = threading.Thread(
            target=lambda: late.append(wal.append("touch", {}))
        )
        follower.start()
        follower.join(timeout=5)
        during_fsync = list(late)
        gate.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert during_fsync == [2], "the append queued behind the fsync"
        wal.wait_durable(2)
        assert wal.stats()["group"]["durable_seq"] == 2
        wal.close()

    def test_flush_reset_and_close_mark_the_log_durable(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME, fsync="group")
        seq = wal.append("touch", {})
        wal.flush()
        wal.wait_durable(seq)  # satisfied by the flush: no barrier round
        assert wal.stats()["fsyncs"] == 1
        seq = wal.append("touch", {})
        wal.reset()  # compaction path: snapshot made the log durable
        wal.wait_durable(seq)
        assert wal.stats()["fsyncs"] == 1
        seq = wal.append("touch", {})
        wal.close()
        wal.wait_durable(seq)  # close syncs before releasing waiters

    def test_fsync_failure_poisons_the_log(self, wal_dir):
        injector = ServiceFaultInjector(
            ServiceFaultPlan(fsync_failure_rate=1.0), seed=5
        )
        store = DurableOwnerStore.open(
            wal_dir,
            make_service_population(),
            fsync="group",
            injector=injector,
        )
        owner = store.owner_ids()[0]
        version = store.version(owner)
        # applied in memory (memtable-style), but the caller sees the
        # barrier failure instead of an ack
        with pytest.raises(WalError, match="NOT durable"):
            store.touch(owner)
        assert store.version(owner) == version + 1
        # the log is poisoned: every later mutation refuses up front,
        # because memory is now ahead of disk until restart + recovery
        with pytest.raises(WalError, match="poisoned"):
            store.touch(owner)
        assert store.version(owner) == version + 1
        store.close()

    def test_group_store_mutations_survive_reopen(self, wal_dir):
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), fsync="group"
        )
        owners = store.owner_ids()
        a, b = owners[0], owners[1]
        store.add_friendship(a, b)
        store.touch(a)
        store.grant_labels(a, {b: 1})
        expected = store_state(store)
        recovered = reopen(store, wal_dir)
        assert recovered.recovery.source == "recovered"
        assert store_state(recovered) == expected
        recovered.close()

    def test_crash_after_group_commit_preserves_the_acked_mutation(
        self, wal_dir
    ):
        # under "group" the crash hook fires at the barrier (after the
        # fsync), so committed-before-crash still implies recoverable
        crashes = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(crash_at_mutation=2),
            crash=lambda code: crashes.append(code),
        )
        store = DurableOwnerStore.open(
            wal_dir,
            make_service_population(),
            fsync="group",
            injector=injector,
        )
        owner = store.owner_ids()[0]
        store.touch(owner)
        store.touch(owner)
        assert crashes == [24]
        seq = store.last_seq
        store.wal.close()

        recovered = DurableOwnerStore.open(wal_dir)
        assert recovered.last_seq == seq
        assert recovered.version(owner) == 2
        recovered.close()

    def test_auto_compaction_never_outruns_the_apply(self, wal_dir):
        # regression: compacting between append and apply would snapshot
        # the pre-mutation state while truncating the record — silently
        # losing an acknowledged mutation at compact_every=1
        store = DurableOwnerStore.open(
            wal_dir, make_service_population(), compact_every=1
        )
        owner = store.owner_ids()[0]
        store.touch(owner)
        recovered = reopen(store, wal_dir)
        assert recovered.version(owner) == 1
        recovered.close()
