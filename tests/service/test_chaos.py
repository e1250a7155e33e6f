"""Chaos tests: ``kill -9`` the serving process, recover, lose nothing.

The durability contract under test (see ``docs/resilience.md``): a
mutation the service *acknowledged* (HTTP 200 from ``POST /mutate``) is
never lost, no matter when the process dies — including mid-append
(torn write) and at injected crash points.  Re-scored results after
recovery are byte-identical (``repro.io.result_digest``).

The fast smoke test runs in tier-1; the exhaustive crash-point matrix
and the concurrent-traffic kill are ``@pytest.mark.slow`` (run via
``make chaos`` or ``pytest -m slow``).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Small cohort so a cold score takes milliseconds, not seconds.
COHORT = ("--owners", "1", "--strangers", "20", "--friends", "6",
          "--seed", "3")

#: Sharded cohort: four owners so the consistent-hash map puts owners on
#: more than one shard (ids 1/28/55/82 -> shards {1, 0} at 2 shards and
#: {1, 2} at 4 shards).
SHARD_COHORT = ("--owners", "4", "--strangers", "20", "--friends", "6",
                "--seed", "3")

#: Exit codes the fault injector uses (see repro.faults.injector).
TORN_WRITE_EXIT = 23
CRASH_EXIT = 24


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
class ServeProcess:
    """One ``repro-study serve`` subprocess bound to a WAL directory."""

    def __init__(self, wal_dir: Path, *extra: str,
                 cohort: tuple[str, ...] = COHORT):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *cohort, "--wal-dir", str(wal_dir), *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = self._await_announcement()

    def _await_announcement(self) -> str:
        deadline_lines = 50
        for _ in range(deadline_lines):
            line = self.process.stderr.readline()
            if not line and self.process.poll() is not None:
                raise AssertionError(
                    f"serve exited rc={self.process.returncode} before "
                    "announcing"
                )
            if "serving on " in line:
                return line.split("serving on ", 1)[1].strip()
        raise AssertionError("no 'serving on' announcement")

    def get(self, path: str):
        with urllib.request.urlopen(self.url + path, timeout=60) as response:
            return json.loads(response.read())

    def post(self, path: str, body: dict):
        request = urllib.request.Request(
            self.url + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    def kill9(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)

    def sigterm(self) -> tuple[int, str]:
        """Graceful shutdown; returns (exit code, remaining stderr)."""
        self.process.send_signal(signal.SIGTERM)
        stderr = self.process.stderr.read()
        return self.process.wait(timeout=30), stderr

    def wait(self, timeout: float = 60) -> int:
        return self.process.wait(timeout=timeout)

    def cleanup(self) -> None:
        if self.process.poll() is None:
            # SIGTERM first: a sharded router must get the chance to stop
            # its worker subprocesses, or a failed test leaks them
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stderr.close()


@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture
def serve(wal_dir):
    booted: list[ServeProcess] = []

    def boot(*extra: str, cohort: tuple[str, ...] = COHORT) -> ServeProcess:
        process = ServeProcess(wal_dir, *extra, cohort=cohort)
        booted.append(process)
        return process

    yield boot
    for process in booted:
        process.cleanup()


def owner_of(server: ServeProcess) -> int:
    return server.get("/owners")["owners"][0]["owner"]


def version_of(server: ServeProcess, owner: int) -> int:
    for row in server.get("/owners")["owners"]:
        if row["owner"] == owner:
            return row["version"]
    raise AssertionError(f"owner {owner} missing after recovery")


# ---------------------------------------------------------------------------
# tier-1 smoke: the whole contract, once
# ---------------------------------------------------------------------------
def test_kill9_loses_no_acked_mutation_and_digests_match(serve):
    first = serve()
    owner = owner_of(first)
    before = first.get(f"/score?owner={owner}")

    acked = first.post("/mutate", {"op": "touch", "owner": owner})
    assert acked["ok"] and acked["seq"] is not None
    first.kill9()

    second = serve()
    health = second.get("/healthz")
    assert health["recovery"]["source"] == "recovered"
    assert health["last_seq"] >= acked["seq"]
    # the acked version bump survived the kill
    assert version_of(second, owner) == acked["versions"][str(owner)]
    # a cold re-score of the recovered graph is byte-identical to the
    # cold score the first process served (touch changes no graph state)
    rescored = second.get(f"/score?owner={owner}")
    assert rescored["digest"] == before["digest"]

    code, stderr = second.sigterm()
    assert code == 0
    assert "final metrics:" in stderr


def test_readyz_flips_and_drain_rejects_work(serve):
    server = serve()
    assert server.get("/readyz")["ready"] is True
    code, stderr = server.sigterm()
    assert code == 0
    assert "draining" in stderr


def test_port_zero_binds_ephemeral_and_announces_real_port(serve):
    """``--port 0`` must announce the *bound* port, never ``:0``."""
    server = serve()
    port = int(server.url.rsplit(":", 1)[1])
    assert port > 0
    assert server.get("/healthz")["status"] == "ok"


# ---------------------------------------------------------------------------
# sharded topology: fault isolation, supervised restart, WAL recovery
# ---------------------------------------------------------------------------
def request_status(url: str, path: str, body: dict | None = None):
    """GET/POST returning (status, document, headers) even on errors."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def owner_shards_of(server: ServeProcess) -> dict[int, int]:
    return {
        row["owner"]: row["shard"]
        for row in server.get("/owners")["owners"]
    }


def shard_pids_of(server: ServeProcess) -> dict[int, int]:
    return {
        row["shard"]: row["pid"]
        for row in server.get("/shards")["supervisor"]["shards"]
    }


def await_victim_recovery(
    server: ServeProcess, owner: int, deadline_seconds: float = 90.0
) -> dict:
    """Poll the victim owner until 200; every miss must be a bounded 503."""
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        status, document, headers = request_status(
            server.url, f"/score?owner={owner}"
        )
        assert status in (200, 503), (status, document)
        if status == 200:
            return document
        # bounded failure: the router tells the client when to come back
        assert headers.get("Retry-After")
        time.sleep(0.2)
    raise AssertionError(f"owner {owner} never recovered within budget")


def test_sharded_kill9_recovers_and_siblings_keep_serving(serve):
    """Tier-1 sharded smoke: the whole fault-isolation contract, once.

    Kill -9 one shard worker mid-service: the sibling shard's owners
    never see an error, the victim's owners see bounded 503s, the
    supervisor restarts the worker, WAL replay preserves the acked
    mutation, and the re-served score is byte-identical.
    """
    server = serve("--shards", "2", cohort=SHARD_COHORT)
    owner_shards = owner_shards_of(server)
    by_shard: dict[int, int] = {}
    for owner, shard in owner_shards.items():
        by_shard.setdefault(shard, owner)
    assert len(by_shard) >= 2, f"cohort landed on one shard: {owner_shards}"
    (victim_shard, victim), (_, sibling) = sorted(by_shard.items())[:2]

    before = {
        owner: server.get(f"/score?owner={owner}")["digest"]
        for owner in (victim, sibling)
    }
    acked = server.post("/mutate", {"op": "touch", "owner": victim})
    assert acked["ok"] and acked["seq"] is not None

    os.kill(shard_pids_of(server)[victim_shard], signal.SIGKILL)

    # fault isolation: the sibling's owner serves throughout
    status, document, _ = request_status(
        server.url, f"/score?owner={sibling}"
    )
    assert status == 200
    assert document["digest"] == before[sibling]

    # failover: bounded 503s, then a digest-identical score after the
    # supervisor restarts the worker and the WAL replays
    recovered = await_victim_recovery(server, victim)
    assert recovered["digest"] == before[victim]
    versions = {
        row["owner"]: row["version"]
        for row in server.get("/owners")["owners"]
    }
    assert versions[victim] >= acked["versions"][str(victim)]
    snapshot = {
        row["shard"]: row
        for row in server.get("/shards")["supervisor"]["shards"]
    }
    assert snapshot[victim_shard]["restarts"] >= 1

    code, stderr = server.sigterm()
    assert code == 0
    assert "final metrics:" in stderr


@pytest.mark.slow
def test_sharded_kill9_under_mixed_load_isolates_and_recovers(serve):
    """The chaos gate: 4 shards under live mixed traffic, kill -9 one.

    Healthy shards' owners must see *zero* failed requests across the
    whole window (before, during, and after the kill); the victim
    shard's owners only ever see 200 or a bounded 503; recovery serves
    byte-identical scores.
    """
    server = serve("--shards", "4", cohort=SHARD_COHORT)
    owner_shards = owner_shards_of(server)
    populated = sorted({shard for shard in owner_shards.values()})
    assert len(populated) >= 2
    victim_shard = populated[-1]
    victim_owners = [
        owner for owner, shard in owner_shards.items()
        if shard == victim_shard
    ]
    healthy_owners = [
        owner for owner, shard in owner_shards.items()
        if shard != victim_shard
    ]
    assert victim_owners and healthy_owners

    before = {
        owner: server.get(f"/score?owner={owner}")["digest"]
        for owner in owner_shards
    }

    # One acked touch per victim owner *before* the kill: enough to
    # prove WAL replay, while freezing the victims' mutation history —
    # a touch's warm rescore digest legitimately differs from the cold
    # digest, so mutating a victim after restart would break the
    # byte-exact recovery oracle.
    acked = {}
    for owner in victim_owners:
        document = server.post("/mutate", {"op": "touch", "owner": owner})
        assert document["ok"] and document["seq"] is not None
        acked[owner] = document["versions"][str(owner)]

    results: dict[int, list[int]] = {owner: [] for owner in owner_shards}
    stop = threading.Event()

    def load(owner: int) -> None:
        requests: tuple = ((f"/score?owner={owner}", None),)
        if owner in healthy_owners:  # mutations keep flowing elsewhere
            requests += (("/mutate", {"op": "touch", "owner": owner}),)
        while not stop.is_set():
            for path, body in requests:
                try:
                    status, _, _ = request_status(server.url, path, body)
                except (urllib.error.URLError, ConnectionError, OSError):
                    status = -1  # router itself unreachable: always a bug
                results[owner].append(status)
                if stop.is_set():
                    return

    threads = [
        threading.Thread(target=load, args=(owner,))
        for owner in owner_shards
    ]
    for thread in threads:
        thread.start()
    # let mixed traffic flow, then pull the plug on one shard
    time.sleep(2.0)
    os.kill(shard_pids_of(server)[victim_shard], signal.SIGKILL)
    time.sleep(4.0)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)

    for owner in healthy_owners:
        assert results[owner], f"no traffic reached owner {owner}"
        # fault isolation: not a single failed request for healthy shards
        assert set(results[owner]) == {200}, (
            f"owner {owner} on a healthy shard saw "
            f"{sorted(set(results[owner]))}"
        )
    for owner in victim_owners:
        assert set(results[owner]) <= {200, 503}, (
            f"victim owner {owner} saw {sorted(set(results[owner]))}"
        )

    # recovery: every owner serves again, victims digest-identical, and
    # the pre-kill acked touches survived the WAL replay
    for owner in victim_owners:
        recovered = await_victim_recovery(server, owner)
        assert recovered["digest"] == before[owner]
    versions = {
        row["owner"]: row["version"]
        for row in server.get("/owners")["owners"]
    }
    for owner in victim_owners:
        assert versions[owner] >= acked[owner]
    snapshot = {
        row["shard"]: row
        for row in server.get("/shards")["supervisor"]["shards"]
    }
    assert snapshot[victim_shard]["restarts"] >= 1

    code, stderr = server.sigterm()
    assert code == 0
    assert "final metrics:" in stderr


# ---------------------------------------------------------------------------
# slow chaos: injected crash points and concurrent traffic
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("crash_at", [1, 2, 4])
def test_crash_at_every_injected_point_preserves_acked_prefix(
    serve, crash_at
):
    first = serve("--crash-at-mutation", str(crash_at))
    owner = owner_of(first)
    acked = []
    try:
        for n in range(crash_at + 2):
            acked.append(first.post("/mutate", {"op": "touch", "owner": owner}))
    except (urllib.error.URLError, ConnectionError, OSError):
        pass  # the injected crash severed the connection mid-request
    assert first.wait() == CRASH_EXIT
    # every *acknowledged* mutation precedes the crash point
    assert len(acked) < crash_at + 2

    second = serve()
    recovered_version = version_of(second, owner)
    recovered_seq = second.get("/healthz")["last_seq"]
    if acked:
        last = acked[-1]
        assert recovered_seq >= last["seq"]
        assert recovered_version >= last["versions"][str(owner)]
    # the crashing mutation itself was durable before the crash hook ran
    # (crash_at_mutation fires *after* commit), so it may appear — but
    # nothing beyond it can
    assert recovered_version <= crash_at


@pytest.mark.slow
def test_torn_write_truncates_and_keeps_the_acked_prefix(serve):
    torn_at = 3
    first = serve("--torn-write-at-mutation", str(torn_at))
    owner = owner_of(first)
    acked = []
    try:
        for _ in range(torn_at):
            acked.append(first.post("/mutate", {"op": "touch", "owner": owner}))
    except (urllib.error.URLError, ConnectionError, OSError):
        pass
    assert first.wait() == TORN_WRITE_EXIT
    assert len(acked) == torn_at - 1  # the torn mutation was never acked

    second = serve()
    health = second.get("/healthz")
    assert health["recovery"]["source"] == "recovered"
    assert health["recovery"]["truncated_bytes"] > 0  # checksum caught it
    assert version_of(second, owner) == torn_at - 1


@pytest.mark.slow
def test_kill9_under_concurrent_mutation_traffic(serve):
    first = serve()
    owner = owner_of(first)
    acked: list[dict] = []
    stop = threading.Event()

    def mutate_loop():
        while not stop.is_set():
            try:
                acked.append(
                    first.post("/mutate", {"op": "touch", "owner": owner})
                )
            except (urllib.error.URLError, ConnectionError, OSError):
                return  # the kill landed mid-request

    threads = [threading.Thread(target=mutate_loop) for _ in range(3)]
    for thread in threads:
        thread.start()
    # let real traffic accumulate, then pull the plug mid-flight
    deadline = time.monotonic() + 60
    while len(acked) < 25 and time.monotonic() < deadline:
        time.sleep(0.01)
    first.kill9()
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    assert acked

    second = serve()
    recovered_seq = second.get("/healthz")["last_seq"]
    recovered_version = version_of(second, owner)
    max_acked_seq = max(a["seq"] for a in acked)
    max_acked_version = max(a["versions"][str(owner)] for a in acked)
    # zero acknowledged mutations lost — seqs and versions both prove it
    assert recovered_seq >= max_acked_seq
    assert recovered_version >= max_acked_version


@pytest.mark.slow
def test_killed_and_restarted_run_matches_an_unkilled_control(tmp_path):
    mutations = [{"op": "touch", "owner": None}] * 3

    def run(wal_dir: Path, kill_after: int | None) -> str:
        """Apply the script; optionally kill -9 and restart mid-way."""
        server = ServeProcess(wal_dir)
        try:
            owner = owner_of(server)
            for index, mutation in enumerate(mutations):
                if kill_after is not None and index == kill_after:
                    server.kill9()
                    server.cleanup()
                    server = ServeProcess(wal_dir)
                server.post("/mutate", {**mutation, "owner": owner})
            return server.get(f"/score?owner={owner}")["digest"]
        finally:
            server.cleanup()

    control = run(tmp_path / "control", kill_after=None)
    chaos = run(tmp_path / "chaos", kill_after=2)
    # same mutation history -> byte-identical risk labels, kill or no kill
    assert control == chaos


# ---------------------------------------------------------------------------
# async serving: group-committed acks survive kill -9
# ---------------------------------------------------------------------------
def test_async_kill9_loses_no_group_committed_ack(serve):
    """The async serving smoke: ``serve`` defaults to the group-commit
    WAL, where an ack means "your batch's fsync completed" — so a
    ``kill -9`` under concurrent mutation traffic must lose nothing that
    was acked, and recovery must serve byte-identical scores."""
    first = serve("--async")
    owner = owner_of(first)
    before = first.get(f"/score?owner={owner}")

    acked: list[dict] = []
    errors: list[BaseException] = []

    def mutate_burst(count: int) -> None:
        try:
            for _ in range(count):
                acked.append(
                    first.post("/mutate", {"op": "touch", "owner": owner})
                )
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            errors.append(error)

    threads = [
        threading.Thread(target=mutate_burst, args=(5,)) for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors and len(acked) == 15
    assert all(entry["ok"] and entry["seq"] is not None for entry in acked)

    metrics = first.get("/metrics")
    assert metrics["wal"]["policy"] == "group"  # the serve default
    assert metrics["wal"]["group"]["durable_seq"] >= max(
        entry["seq"] for entry in acked
    )
    assert "admission" in metrics  # the async front-end answered

    first.kill9()

    second = serve()  # --async is accepted and ignored: same server
    health = second.get("/healthz")
    assert health["recovery"]["source"] == "recovered"
    assert health["last_seq"] >= max(entry["seq"] for entry in acked)
    assert version_of(second, owner) >= max(
        entry["versions"][str(owner)] for entry in acked
    )
    rescored = second.get(f"/score?owner={owner}")
    assert rescored["digest"] == before["digest"]

    code, stderr = second.sigterm()
    assert code == 0
    assert "final metrics:" in stderr


@pytest.mark.slow
def test_async_kill9_mid_flight_keeps_the_acked_prefix(serve):
    """Kill -9 lands *while* mutations are in flight at the barrier: an
    unacked mutation may or may not survive (like any timed-out write),
    but every acked seq/version must."""
    first = serve("--async")
    owner = owner_of(first)
    acked: list[dict] = []
    stop = threading.Event()

    def mutate_loop():
        while not stop.is_set():
            try:
                acked.append(
                    first.post("/mutate", {"op": "touch", "owner": owner})
                )
            except (urllib.error.URLError, ConnectionError, OSError):
                return  # the kill landed mid-request
            except http.client.HTTPException:
                return

    threads = [threading.Thread(target=mutate_loop) for _ in range(3)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 60
    while len(acked) < 25 and time.monotonic() < deadline:
        time.sleep(0.01)
    first.kill9()
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    assert acked

    second = serve()
    assert second.get("/healthz")["last_seq"] >= max(
        entry["seq"] for entry in acked
    )
    assert version_of(second, owner) >= max(
        entry["versions"][str(owner)] for entry in acked
    )
