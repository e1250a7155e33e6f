"""Checkpoint round-trips, atomic storage, and session resume state."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.io.checkpoint import (
    CheckpointStore,
    SessionCheckpointer,
    iter_json_chunks,
    pool_result_from_dict,
    pool_result_to_dict,
    rng_state_from_json,
    rng_state_to_json,
    round_record_from_dict,
    round_record_to_dict,
)
from repro.learning.results import PoolResult, RoundRecord
from repro.learning.stopping import StopReason
from repro.types import RiskLabel

user_ids = st.integers(min_value=0, max_value=10_000)
labels = st.sampled_from(list(RiskLabel))
label_maps = st.dictionaries(user_ids, labels, max_size=8)
scores = st.floats(min_value=1.0, max_value=3.0, allow_nan=False)

round_records = st.builds(
    RoundRecord,
    round_index=st.integers(min_value=1, max_value=20),
    queried=st.tuples(user_ids),
    answers=label_maps,
    validation_pairs=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4
    ).map(tuple),
    rmse=st.one_of(st.none(), st.floats(0, 2, allow_nan=False)),
    predicted_scores=st.dictionaries(user_ids, scores, max_size=8),
    predicted_labels=label_maps,
    unstabilized=st.frozensets(user_ids, max_size=8),
    stabilized=st.booleans(),
    abstained=st.lists(user_ids, max_size=4).map(tuple),
)

pool_results = st.builds(
    PoolResult,
    pool_id=st.text(
        alphabet="abcdefghij-0123456789", min_size=1, max_size=12
    ),
    nsg_index=st.integers(min_value=0, max_value=9),
    rounds=st.lists(round_records, max_size=3).map(tuple),
    owner_labels=label_maps,
    predicted_labels=label_maps,
    stop_reason=st.sampled_from(list(StopReason)),
    unreachable=st.frozensets(user_ids, max_size=6),
    profile_coverage=st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
)


class TestRoundTrips:
    @given(record=round_records)
    def test_round_record_survives_json(self, record):
        """``from_dict(to_dict(r)) == r`` even through a JSON encode."""
        document = json.loads(json.dumps(round_record_to_dict(record)))
        assert round_record_from_dict(document) == record

    @given(result=pool_results)
    def test_pool_result_survives_json(self, result):
        document = json.loads(json.dumps(pool_result_to_dict(result)))
        assert pool_result_from_dict(document) == result

    @given(seed=st.integers(0, 2**32), draws=st.integers(0, 50))
    def test_rng_state_survives_json(self, seed, draws):
        rng = random.Random(seed)
        for _ in range(draws):
            rng.random()
        state = rng.getstate()
        document = json.loads(json.dumps(rng_state_to_json(state)))
        restored = random.Random()
        restored.setstate(rng_state_from_json(document))
        assert [restored.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]

    def test_malformed_documents_raise_checkpoint_error(self):
        with pytest.raises(CheckpointError):
            round_record_from_dict({"round_index": 1})
        with pytest.raises(CheckpointError):
            pool_result_from_dict({"pool_id": "p"})
        with pytest.raises(CheckpointError):
            rng_state_from_json(["not", "a", "state", "at", "all"])


class TestCheckpointStore:
    def test_save_load_discard(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load("a") is None
        store.save("a", {"x": 1})
        assert store.load("a") == {"x": 1}
        assert store.keys() == ["a"]
        store.discard("a")
        assert store.load("a") is None
        store.discard("a")  # idempotent

    def test_streamed_chunks_equal_the_compact_encoding(self):
        rows = [{"b": [1, 2], "a": None}, {"z": {"y": 1.5}}]
        document = {
            "seq": 3,
            "plain": {"k": "v"},
            "nested": {"rows": iter(rows), "empty": iter(())},
            "tail": iter(["x"]),
        }
        expanded = {
            "seq": 3,
            "plain": {"k": "v"},
            "nested": {"rows": rows, "empty": []},
            "tail": ["x"],
        }
        assert "".join(iter_json_chunks(document)) == json.dumps(
            expanded, sort_keys=True, separators=(",", ":")
        )

    def test_save_writes_compact_sorted_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {"y": [1, {"b": 2, "a": 1}], "x": iter([3])})
        assert store.path("a").read_text() == '{"x":[3],"y":[1,{"a":1,"b":2}]}'

    def test_writes_are_atomic(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {"x": 1})
        leftovers = list(tmp_path.glob("*.tmp"))
        assert not leftovers

    def test_corrupt_file_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path("bad").write_text("{ not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            store.load("bad")

    def test_save_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        import os as os_module

        synced: list[int] = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        store = CheckpointStore(tmp_path)
        store.save("a", {"x": 1})
        # one fsync for the temp payload, one for the directory entry —
        # without both, a crash after os.replace can lose the checkpoint
        assert len(synced) == 2
        assert store.load("a") == {"x": 1}


def _pool(pool_id="p-0", stranger=6):
    return PoolResult(
        pool_id=pool_id,
        nsg_index=0,
        rounds=(),
        owner_labels={stranger: RiskLabel.RISKY},
        predicted_labels={stranger + 1: RiskLabel.NOT_RISKY},
        stop_reason=StopReason.CONVERGED,
    )


class TestSessionCheckpointer:
    def test_record_then_load_restores_rng_and_pools(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpointer = SessionCheckpointer(store, "owner-1")
        rng = random.Random(5)
        checkpointer.record(_pool("p-0"), rng)
        expected_next = random.Random(5).random()

        fresh = SessionCheckpointer(store, "owner-1")
        other = random.Random(999)
        completed = fresh.load(other)
        assert set(completed) == {"p-0"}
        assert completed["p-0"] == _pool("p-0")
        assert other.random() == expected_next

    def test_load_without_checkpoint_is_empty(self, tmp_path):
        checkpointer = SessionCheckpointer(CheckpointStore(tmp_path), "k")
        rng = random.Random(1)
        before = rng.getstate()
        assert checkpointer.load(rng) == {}
        assert rng.getstate() == before

    def test_reset_discards(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpointer = SessionCheckpointer(store, "k")
        checkpointer.record(_pool(), random.Random(0))
        checkpointer.reset()
        assert store.load("k") is None
        assert SessionCheckpointer(store, "k").load(random.Random(0)) == {}

    def test_extra_state_round_trips(self, tmp_path):
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan(oracle_abstain_rate=0.5)
        injector = FaultInjector(plan, seed=1)
        for _ in range(9):
            injector.draw()
        store = CheckpointStore(tmp_path)
        checkpointer = SessionCheckpointer(store, "k", extra_state=injector)
        checkpointer.record(_pool(), random.Random(0))
        expected = [injector.draw() for _ in range(5)]

        replacement = FaultInjector(plan, seed=777)
        fresh = SessionCheckpointer(store, "k", extra_state=replacement)
        fresh.load(random.Random(0))
        assert [replacement.draw() for _ in range(5)] == expected

    def test_version_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"version": 99, "pools": [], "rng_state": [3, [], None]})
        with pytest.raises(CheckpointError):
            SessionCheckpointer(store, "k").load(random.Random(0))
