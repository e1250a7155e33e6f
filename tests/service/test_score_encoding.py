"""Tests for the served encoding of a score (``ScoreRecord.to_json``).

A ``/score`` body is the per-response head encoded fresh and spliced
onto the measure blocks, which are encoded once per memo and shared with
every cache-hit copy.  The splice must be byte-identical to
``json.dumps(record.to_dict())``, and a cached read must not encode the
blocks again.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.measures import available_measures
from repro.service import ScoreRecord, build_server
from repro.service import engine as engine_module

from .test_http import make_engine, serve, shut_down

#: The per-response fields every ``/score`` document starts with.
HEAD = (
    "owner",
    "version",
    "source",
    "measure",
    "digest",
    "reused_labels",
    "new_queries",
    "elapsed_seconds",
)


def encodes_like_json_dumps(record: ScoreRecord) -> bool:
    return record.to_json() == json.dumps(record.to_dict()).encode("utf-8")


def read_bytes(url: str, document: dict | None = None) -> bytes:
    """GET (or POST ``document`` to) a URL; the raw response body."""
    data = None if document is None else json.dumps(document).encode()
    with urllib.request.urlopen(url, data=data, timeout=60) as response:
        assert response.status == 200
        return response.read()


class TestByteIdentity:
    @pytest.mark.parametrize("measure", available_measures())
    def test_cold_warm_and_cache_records(self, measure):
        engine = make_engine()
        owner_id = engine.store.owner_ids()[0]
        cold = engine.score(owner_id, measure=measure)
        hit = engine.score(owner_id, measure=measure)
        engine.store.touch(owner_id)
        warm = engine.score(owner_id, measure=measure)
        warm_hit = engine.score(owner_id, measure=measure)
        assert [r.source for r in (cold, hit, warm, warm_hit)] == [
            "cold",
            "cache",
            "warm",
            "cache",
        ]
        for record in (cold, hit, warm, warm_hit):
            assert encodes_like_json_dumps(record), record.source
            # twice: the second call splices onto the stored blocks
            assert encodes_like_json_dumps(record), record.source
        assert list(json.loads(cold.to_json()))[: len(HEAD)] == list(HEAD)

    def test_a_non_ascii_profile_value(self):
        record = ScoreRecord(
            owner_id=7,
            version=3,
            source="cache",
            result={
                "candidates": [{"user": 9, "hometown": "Zoë — 東京 🙂"}],
                "summary": {"mean_risk": 0.1 + 0.2, "max_risk": 1e-17},
            },
            digest="d" * 64,
            reused_labels=0,
            new_queries=0,
            elapsed_seconds=0.0,
            measure="friendship",
        )
        assert encodes_like_json_dumps(record)
        assert record.to_json().isascii()  # escaped, as json.dumps does
        assert encodes_like_json_dumps(record)

    def test_empty_blocks_encode_the_head_alone(self, monkeypatch):
        class Blank:
            def describe(self, result):
                return {}

        monkeypatch.setattr(engine_module, "get_measure", lambda _: Blank())
        record = ScoreRecord(7, 3, "cold", None, "d", 0, 0, 0.25)
        assert encodes_like_json_dumps(record)
        assert list(json.loads(record.to_json())) == list(HEAD)

    def test_a_block_repeating_a_head_field_is_refused(self, monkeypatch):
        class Clashing:
            def describe(self, result):
                return {"extra": 1, "digest": "shadowed"}

        monkeypatch.setattr(
            engine_module, "get_measure", lambda _: Clashing()
        )
        record = ScoreRecord(7, 3, "cold", None, "d", 0, 0, 0.25)
        with pytest.raises(ServiceError, match="digest"):
            record.to_json()


def test_racing_first_reads_of_one_memo_agree():
    """Cache-hit copies share the memo's slots, so threads may race to
    fill them: every reader still gets the reference bytes, and the
    slot holds one encoding."""
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(20):
            memo = ScoreRecord(
                owner_id=attempt,
                version=1,
                source="warm",
                result={"candidates": [{"user": u} for u in range(300)]},
                digest="d",
                reused_labels=0,
                new_queries=0,
                elapsed_seconds=0.5,
                measure="friendship",
            )
            hits = [
                dataclasses.replace(memo, source="cache", elapsed_seconds=0.0)
                for _ in range(8)
            ]
            barrier = threading.Barrier(len(hits))
            bodies: list[bytes] = []

            def read(hit):
                barrier.wait(timeout=10)
                bodies.append(hit.to_json())

            threads = [
                threading.Thread(target=read, args=(hit,)) for hit in hits
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            reference = json.dumps(hits[0].to_dict()).encode("utf-8")
            assert bodies == [reference] * len(hits)
            assert len(memo.encoded) == 1
            assert encodes_like_json_dumps(memo)
    finally:
        sys.setswitchinterval(switch_interval)


class BlockEncodeSpy:
    """Counts JSON encodings of documents that carry measure blocks."""

    def __init__(self, monkeypatch, block_keys: set[str]):
        self.count = 0
        original = json.JSONEncoder.encode

        def encode(encoder, value):
            if isinstance(value, dict) and block_keys & value.keys():
                self.count += 1
            return original(encoder, value)

        monkeypatch.setattr(json.JSONEncoder, "encode", encode)


@pytest.fixture
def server():
    server = build_server(make_engine(), max_workers=2, max_pending=8)
    thread = serve(server)
    yield server
    shut_down(server, thread)


@pytest.mark.parametrize("measure", available_measures())
def test_cached_reads_never_re_encode_the_blocks(
    server, monkeypatch, measure
):
    owner_id = server.engine.store.owner_ids()[0]
    score_url = f"{server.url}/score?owner={owner_id}&measure={measure}"
    batch_url = f"{server.url}/score-batch"
    batch = {"owners": [owner_id, owner_id], "measure": measure}
    block_keys = set(json.loads(read_bytes(score_url))) - set(HEAD)
    assert block_keys
    # every later read is a cache hit: the byte image of this record
    hit = server.engine.score(owner_id, measure=measure)
    assert hit.source == "cache"
    expected = json.dumps(hit.to_dict()).encode("utf-8")
    spy = BlockEncodeSpy(monkeypatch, block_keys)
    for _ in range(5):
        assert read_bytes(score_url) == expected
    for _ in range(2):
        lines = read_bytes(batch_url, batch).splitlines(keepends=True)
        assert lines == [expected + b"\n"] * 2
    assert spy.count == 0
