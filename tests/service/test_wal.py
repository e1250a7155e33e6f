"""Tests for the write-ahead log and the durable owner store."""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
import zlib

import pytest

from repro.errors import (
    GraphError,
    UnknownOwnerError,
    UnknownUserError,
    WalError,
)
from repro.faults import ServiceFaultInjector, ServiceFaultPlan
from repro.io import graph_to_json, result_digest
from repro.io.serialization import graph_from_dict, graph_to_dict
from repro.service import (
    DurableOwnerStore,
    OwnerStore,
    RiskEngine,
    WriteAheadLog,
    mutate_store,
    read_wal,
)
from repro.service.router import BROADCAST_OPS, OWNER_OPS
from repro.service.wal import (
    MUTATION_OPS,
    MUTATIONS,
    SNAPSHOT_KEY,
    WAL_FILENAME,
    decode_record,
    encode_record,
    graph_digest,
    owner_entry_from_dict,
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
        "graph": graph_digest(store.graph),
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
        stranger = sorted(durable_store.get(owner).universe - {owner})[0]
        durable_store.grant_labels(owner, {stranger: 1})
        seq = durable_store.last_seq
        logged = (wal_dir / WAL_FILENAME).read_bytes()
        with pytest.raises(GraphError):
            durable_store.add_friendship(owner, owner)
        with pytest.raises(UnknownUserError):
            durable_store.add_friendship(owner, 424_242)
        with pytest.raises(UnknownUserError):
            durable_store.remove_friendship(owner, 424_242)
        with pytest.raises(UnknownOwnerError):
            durable_store.add_user(make_profile(777_004), 424_242)
        with pytest.raises(UnknownOwnerError):
            durable_store.grant_labels(424_242, {stranger: 1})
        with pytest.raises(UnknownOwnerError):
            durable_store.touch(424_242)
        with pytest.raises(ValueError):
            durable_store.grant_labels(owner, {stranger: 9})  # no such label
        # nothing new to log: labels already held, an absent owner
        assert durable_store.grant_labels(owner, {stranger: 1}) == 0
        assert durable_store.detach_owner(424_242) is False
        assert durable_store.last_seq == seq
        assert (wal_dir / WAL_FILENAME).read_bytes() == logged
        assert 777_004 not in durable_store.graph

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
            wal_dir,
            make_service_population(),
            fsync="always",
            injector=injector,
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
            wal_dir,
            make_service_population(),
            fsync="always",
            injector=injector,
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
            wal_dir,
            make_service_population(),
            fsync="always",
            injector=injector,
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
        grant = {"owner": owner, "labels": {str(owner + 1): 1}}
        assert mutate_store(store, "grant_labels", grant)["seq"] == 2
        # labels already held: nothing is logged, so no seq acks it
        assert mutate_store(store, "grant_labels", grant)["seq"] is None
        assert store.last_seq == 2
        store.close()

    def test_unknown_op_raises_keyerror(self, plain_store):
        with pytest.raises(KeyError):
            mutate_store(plain_store, "drop_table", {})
        with pytest.raises(KeyError):  # logged, but not a /mutate op
            mutate_store(plain_store, "detach_owner", {"owner": 1})


# ---------------------------------------------------------------------------
# the mutation table: one row per logged op
# ---------------------------------------------------------------------------
def golden_population():
    """The tiny cohort :data:`GOLDEN_WAL_LINES` was written against."""
    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(
            num_friends=2, num_strangers=2, num_communities=1
        ),
        seed=SERVICE_SEED,
    )


def golden_mutations(store, population):
    """One call per logged op: the calls behind the golden WAL."""
    a, b = (owner.user_id for owner in population.owners)
    for index, owner in enumerate(population.owners):
        handle = population.handles[owner.user_id]
        universe = {owner.user_id, *handle.friends, *handle.strangers}
        store.register(owner, universe=universe, index=index)
    store.add_user(make_profile(9_001), a)
    store.update_profile(make_profile(9_001, locale="DE"))
    store.add_friendship(a, 9_001)
    store.remove_friendship(a, 9_001)
    store.grant_labels(a, {9_001: 1})
    store.touch(b)
    entry = owner_entry_from_dict(owner_entry_to_dict(store.get(b)))
    store.detach_owner(b)
    store.attach_entry(entry)
    store.replace_graph(graph_from_dict(graph_to_dict(store.graph)))


def owner_rows(store):
    return [owner_entry_to_dict(store.get(o)) for o in store.owner_ids()]


def golden_wal():
    return b"".join(line + b"\n" for line in GOLDEN_WAL_LINES)


class TestMutationTable:
    def test_golden_wal_recovers_to_the_expected_state(self, wal_dir):
        DurableOwnerStore.open(
            wal_dir, golden_population(), join_empty=True
        ).close()
        (wal_dir / WAL_FILENAME).write_bytes(golden_wal())
        population = golden_population()
        oracle = OwnerStore(population.graph)
        golden_mutations(oracle, population)
        recovered = DurableOwnerStore.open(wal_dir)
        try:
            ops = [decode_record(line)["op"] for line in GOLDEN_WAL_LINES]
            assert set(ops) == set(MUTATIONS)
            assert recovered.recovery.replayed == len(ops)
            assert store_state(recovered) == store_state(oracle)
            assert owner_rows(recovered) == owner_rows(oracle)
        finally:
            recovered.close()

    def test_the_store_writes_the_golden_wal(self, wal_dir):
        population = golden_population()
        store = DurableOwnerStore.open(wal_dir, population, join_empty=True)
        golden_mutations(store, population)
        store.close()
        assert (wal_dir / WAL_FILENAME).read_bytes() == golden_wal()

    def test_every_table_method_is_logged(self, wal_dir, durable_store):
        a, b = durable_store.owner_ids()[:2]

        def moved_entry(store):
            row = owner_entry_to_dict(store.get(b))
            return owner_entry_from_dict({**row, "version": 7})

        def grown_graph(store):
            graph = graph_from_dict(graph_to_dict(store.graph))
            graph.add_friendship(a, b)
            return graph

        calls = {
            "add_user": lambda s: s.add_user(make_profile(777_003), a),
            "update_profile": lambda s: s.update_profile(
                make_profile(777_003, locale="DE")
            ),
            "add_friendship": lambda s: s.add_friendship(a, 777_003),
            "remove_friendship": lambda s: s.remove_friendship(a, 777_003),
            "grant_labels": lambda s: s.grant_labels(a, {777_003: 2}),
            "touch": lambda s: s.touch(b),
            "register": lambda s: s.register(
                s.get(b).owner, universe=s.get(b).universe, index=99
            ),
            "attach_entry": lambda s: s.attach_entry(moved_entry(s)),
            "replace_graph": lambda s: s.replace_graph(grown_graph(s)),
            "detach_owner": lambda s: s.detach_owner(b),
        }
        assert set(calls) == {row.method for row in MUTATIONS.values()}
        store = durable_store
        for method, call in calls.items():
            before = store_state(store)
            call(store)
            expected = store_state(store)
            assert expected != before, method
            store = reopen(store, wal_dir)
            assert store_state(store) == expected, method
        store.close()

    def test_router_routes_every_mutate_op_exactly_once(self):
        assert OWNER_OPS | BROADCAST_OPS == set(MUTATION_OPS)
        assert not OWNER_OPS & BROADCAST_OPS


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

    def test_concurrent_acks_report_their_own_record_seq(self, wal_dir):
        """Two mutations share a group commit; each ack names its own
        record, not whichever record the log had reached by then."""
        syncing, gate = threading.Event(), threading.Event()

        def slow_disk(_seconds: float) -> None:
            syncing.set()
            assert gate.wait(timeout=30)

        injector = ServiceFaultInjector(
            ServiceFaultPlan(slow_disk_seconds=1.0), sleeper=slow_disk
        )
        store = DurableOwnerStore.open(
            wal_dir,
            make_service_population(),
            fsync="group",
            injector=injector,
        )
        first, second = store.owner_ids()[:2]
        acks: dict[int, int] = {}

        def mutate(owner: int) -> None:
            acks[owner] = mutate_store(store, "touch", {"owner": owner})["seq"]

        leader = threading.Thread(target=mutate, args=(first,))
        leader.start()
        assert syncing.wait(timeout=30)  # the leader's fsync is held
        follower = threading.Thread(target=mutate, args=(second,))
        follower.start()
        deadline = time.monotonic() + 30
        while store.last_seq < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert store.last_seq == 2, "the follower never appended"
        gate.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        records, _ = read_wal(wal_dir / WAL_FILENAME)
        own = {record["args"]["owner"]: record["seq"] for record in records}
        assert acks == own == {first: 1, second: 2}
        assert max(acks.values()) <= store.wal.stats()["group"]["durable_seq"]
        store.close()

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


#: The golden WAL: what the encoder wrote for :func:`golden_mutations`
#: before the op table existed, one element per line (sans newline).
GOLDEN_WAL_LINES = (
    (
        b'797c43f4 {"args":{"index":0,"owner":{"attitude":{"familiar_lastnames'
        b'":["brown"],"gender_weight":0.09182504551198727,"item_sensitivities"'
        b':{"education":0.016583434928346432,"friend":0.027008302633053684,"ho'
        b'metown":0.017558201260481684,"location":0.006795392606663887,"photo"'
        b':0.08434562806214183,"wall":0.018610282532386294,"work":0.0229725465'
        b'30416905},"lastname_weight":0.02001422785951828,"locale_weight":0.28'
        b'88063229279156,"network_weight":0.5668345593834339,"noise_sd":0.0157'
        b'4827742772254,"owner_locale":"TR","risky_gender":"male","threshold_r'
        b'isky":0.4479975212758305,"threshold_very_risky":0.6347287011993901},'
        b'"confidence":86.69559672993232,"ground_truth":{"4":3,"5":2},"profile'
        b'":{"attributes":{"gender":"male","hometown":"london","last_name":"br'
        b'own","locale":"GB","location":"london"},"id":1,"privacy":{"education'
        b'":"PRIVATE","friend":"FRIENDS_OF_FRIENDS","hometown":"PRIVATE","loca'
        b'tion":"FRIENDS_OF_FRIENDS","photo":"FRIENDS_OF_FRIENDS","wall":"FRIE'
        b'NDS","work":"FRIENDS_OF_FRIENDS"}},"thetas":{"education":0.771444564'
        b'372799,"friend":0.9464706289094899,"hometown":0.7392746237537478,"lo'
        b'cation":0.7091782563056399,"photo":0.8145036507109062,"wall":0.76217'
        b'18898124273,"work":0.621702192956817},"user_id":1},"universe":[1,2,3'
        b',4,5]},"op":"register","seq":1}'
    ),
    (
        b'08ed703e {"args":{"index":1,"owner":{"attitude":{"familiar_lastnames'
        b'":["mueller"],"gender_weight":0.285755268425227,"item_sensitivities"'
        b':{"education":0.024009282257698543,"friend":0.016611342825677288,"ho'
        b'metown":0.020293418946005965,"location":0.01191188276513423,"photo":'
        b'0.08978966561161046,"wall":0.014332460541274785,"work":0.02088336945'
        b'593719},"lastname_weight":0.02127652701805527,"locale_weight":0.1577'
        b'2952231566506,"network_weight":0.3608882884903457,"noise_sd":0.02430'
        b'5811203774043,"owner_locale":"TR","risky_gender":"male","threshold_r'
        b'isky":0.4535743778907648,"threshold_very_risky":0.7163426587808076},'
        b'"confidence":85.15951485081567,"ground_truth":{"10":1,"9":2},"profil'
        b'e":{"attributes":{"education":"rwth aachen","gender":"female","homet'
        b'own":"frankfurt","last_name":"mueller","locale":"DE","location":"fra'
        b'nkfurt","work":"university"},"id":6,"privacy":{"education":"FRIENDS"'
        b',"friend":"FRIENDS","hometown":"PUBLIC","location":"FRIENDS_OF_FRIEN'
        b'DS","photo":"FRIENDS_OF_FRIENDS","wall":"FRIENDS","work":"FRIENDS"}}'
        b',"thetas":{"education":0.7331788156716488,"friend":0.851478496604319'
        b'2,"hometown":0.795504409966983,"location":0.6440008474891208,"photo"'
        b':0.7559779612336618,"wall":0.512110856608582,"work":0.73711160186701'
        b'62},"user_id":6},"universe":[6,7,8,9,10]},"op":"register","seq":2}'
    ),
    (
        b'73da976a {"args":{"owner":1,"profile":{"attributes":{"gender":"male"'
        b',"last_name":"smith","locale":"US"},"id":9001,"privacy":{"education"'
        b':"FRIENDS","friend":"FRIENDS","hometown":"FRIENDS","location":"FRIEN'
        b'DS","photo":"FRIENDS","wall":"FRIENDS","work":"FRIENDS"}}},"op":"add'
        b'_user","seq":3}'
    ),
    (
        b'4dff2eb5 {"args":{"profile":{"attributes":{"gender":"male","last_nam'
        b'e":"smith","locale":"DE"},"id":9001,"privacy":{"education":"FRIENDS"'
        b',"friend":"FRIENDS","hometown":"FRIENDS","location":"FRIENDS","photo'
        b'":"FRIENDS","wall":"FRIENDS","work":"FRIENDS"}}},"op":"update_profil'
        b'e","seq":4}'
    ),
    b'9421fff0 {"args":{"a":1,"b":9001},"op":"add_friendship","seq":5}',
    b'84ea2659 {"args":{"a":1,"b":9001},"op":"remove_friendship","seq":6}',
    (
        b'a215cbfe {"args":{"labels":{"9001":1},"owner":1},"op":"grant_labels"'
        b',"seq":7}'
    ),
    b'a185d90a {"args":{"owner":6},"op":"touch","seq":8}',
    b'2962260d {"args":{"owner":6},"op":"detach_owner","seq":9}',
    (
        b'159a7f01 {"args":{"entry":{"index":1,"labels":{},"owner":{"attitude"'
        b':{"familiar_lastnames":["mueller"],"gender_weight":0.285755268425227'
        b',"item_sensitivities":{"education":0.024009282257698543,"friend":0.0'
        b'16611342825677288,"hometown":0.020293418946005965,"location":0.01191'
        b'188276513423,"photo":0.08978966561161046,"wall":0.014332460541274785'
        b',"work":0.02088336945593719},"lastname_weight":0.02127652701805527,"'
        b'locale_weight":0.15772952231566506,"network_weight":0.36088828849034'
        b'57,"noise_sd":0.024305811203774043,"owner_locale":"TR","risky_gender'
        b'":"male","threshold_risky":0.4535743778907648,"threshold_very_risky"'
        b':0.7163426587808076},"confidence":85.15951485081567,"ground_truth":{'
        b'"10":1,"9":2},"profile":{"attributes":{"education":"rwth aachen","ge'
        b'nder":"female","hometown":"frankfurt","last_name":"mueller","locale"'
        b':"DE","location":"frankfurt","work":"university"},"id":6,"privacy":{'
        b'"education":"FRIENDS","friend":"FRIENDS","hometown":"PUBLIC","locati'
        b'on":"FRIENDS_OF_FRIENDS","photo":"FRIENDS_OF_FRIENDS","wall":"FRIEND'
        b'S","work":"FRIENDS"}},"thetas":{"education":0.7331788156716488,"frie'
        b'nd":0.8514784966043192,"hometown":0.795504409966983,"location":0.644'
        b'0008474891208,"photo":0.7559779612336618,"wall":0.512110856608582,"w'
        b'ork":0.7371116018670162},"user_id":6},"universe":[6,7,8,9,10],"versi'
        b'on":1}},"op":"attach_owner","seq":10}'
    ),
    (
        b'c56003ef {"args":{"graph":{"edges":[[1,2],[1,3],[2,5],[3,4],[3,5],[6'
        b',7],[6,8],[7,9],[8,9],[8,10]],"users":[{"attributes":{"gender":"male'
        b'","hometown":"london","last_name":"brown","locale":"GB","location":"'
        b'london"},"id":1,"privacy":{"education":"PRIVATE","friend":"FRIENDS_O'
        b'F_FRIENDS","hometown":"PRIVATE","location":"FRIENDS_OF_FRIENDS","pho'
        b'to":"FRIENDS_OF_FRIENDS","wall":"FRIENDS","work":"FRIENDS_OF_FRIENDS'
        b'"}},{"attributes":{"education":"community college","gender":"male","'
        b'hometown":"los angeles","last_name":"johnson","locale":"US","locatio'
        b'n":"los angeles","work":"software company"},"id":2,"privacy":{"educa'
        b'tion":"PRIVATE","friend":"PUBLIC","hometown":"PUBLIC","location":"PU'
        b'BLIC","photo":"FRIENDS","wall":"PRIVATE","work":"FRIENDS"}},{"attrib'
        b'utes":{"education":"itu","gender":"female","hometown":"ankara","last'
        b'_name":"arslan","locale":"TR","location":"ankara","work":"student"},'
        b'"id":3,"privacy":{"education":"PRIVATE","friend":"FRIENDS","hometown'
        b'":"FRIENDS_OF_FRIENDS","location":"FRIENDS_OF_FRIENDS","photo":"FRIE'
        b'NDS_OF_FRIENDS","wall":"FRIENDS","work":"PRIVATE"}},{"attributes":{"'
        b'education":"university of seville","gender":"male","hometown":"madri'
        b'd","last_name":"garcia","locale":"ES","location":"madrid"},"id":4,"p'
        b'rivacy":{"education":"FRIENDS","friend":"PUBLIC","hometown":"FRIENDS'
        b'","location":"FRIENDS_OF_FRIENDS","photo":"FRIENDS_OF_FRIENDS","wall'
        b'":"PRIVATE","work":"FRIENDS"}},{"attributes":{"education":"bogazici '
        b'university","gender":"male","hometown":"istanbul","last_name":"kaya"'
        b',"locale":"TR","location":"istanbul","work":"student"},"id":5,"priva'
        b'cy":{"education":"FRIENDS","friend":"FRIENDS","hometown":"PRIVATE","'
        b'location":"FRIENDS_OF_FRIENDS","photo":"FRIENDS_OF_FRIENDS","wall":"'
        b'PUBLIC","work":"FRIENDS"}},{"attributes":{"education":"rwth aachen",'
        b'"gender":"female","hometown":"frankfurt","last_name":"mueller","loca'
        b'le":"DE","location":"frankfurt","work":"university"},"id":6,"privacy'
        b'":{"education":"FRIENDS","friend":"FRIENDS","hometown":"PUBLIC","loc'
        b'ation":"FRIENDS_OF_FRIENDS","photo":"FRIENDS_OF_FRIENDS","wall":"FRI'
        b'ENDS","work":"FRIENDS"}},{"attributes":{"gender":"female","hometown"'
        b':"antalya","last_name":"dogan","locale":"TR","location":"antalya"},"'
        b'id":7,"privacy":{"education":"PUBLIC","friend":"PRIVATE","hometown":'
        b'"PRIVATE","location":"PUBLIC","photo":"PUBLIC","wall":"FRIENDS","wor'
        b'k":"FRIENDS"}},{"attributes":{"gender":"male","last_name":"arslan","'
        b'locale":"TR","location":"antalya","work":"student"},"id":8,"privacy"'
        b':{"education":"PRIVATE","friend":"PRIVATE","hometown":"FRIENDS_OF_FR'
        b'IENDS","location":"PUBLIC","photo":"FRIENDS_OF_FRIENDS","wall":"FRIE'
        b'NDS","work":"FRIENDS_OF_FRIENDS"}},{"attributes":{"gender":"male","h'
        b'ometown":"antalya","last_name":"ozturk","locale":"TR","location":"an'
        b'talya"},"id":9,"privacy":{"education":"PRIVATE","friend":"FRIENDS","'
        b'hometown":"FRIENDS_OF_FRIENDS","location":"FRIENDS","photo":"FRIENDS'
        b'_OF_FRIENDS","wall":"FRIENDS","work":"FRIENDS"}},{"attributes":{"edu'
        b'cation":"bogazici university","gender":"female","last_name":"kaya","'
        b'locale":"TR","work":"student"},"id":10,"privacy":{"education":"PRIVA'
        b'TE","friend":"PUBLIC","hometown":"FRIENDS","location":"PUBLIC","phot'
        b'o":"FRIENDS_OF_FRIENDS","wall":"FRIENDS","work":"FRIENDS"}},{"attrib'
        b'utes":{"gender":"male","last_name":"smith","locale":"DE"},"id":9001,'
        b'"privacy":{"education":"FRIENDS","friend":"FRIENDS","hometown":"FRIE'
        b'NDS","location":"FRIENDS","photo":"FRIENDS","wall":"FRIENDS","work":'
        b'"FRIENDS"}}],"version":1}},"op":"adopt_graph","seq":11}'
    ),
)
