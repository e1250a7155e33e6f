"""Shared fixtures for the benchmark harness.

The cohort and the two studies (NPP / NSP) are generated once per
benchmark session; the individual benches time their own analysis step
and write the rendered paper-style artifact to ``benchmarks/out/``
(``benchmarks/out/local/`` when any ``REPRO_BENCH_*`` knob is set).

Scale knobs come from environment variables so the same harness serves a
quick CI pass and a full-scale reproduction run:

* ``REPRO_BENCH_OWNERS``    (default 10)
* ``REPRO_BENCH_STRANGERS`` (default 300)
* ``REPRO_BENCH_SEED``      (default 2012)
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import urllib.parse
from pathlib import Path

import pytest

from repro.experiments import run_study
from repro.synth import EgoNetConfig, generate_study_population

OWNERS = int(os.environ.get("REPRO_BENCH_OWNERS", "10"))
STRANGERS = int(os.environ.get("REPRO_BENCH_STRANGERS", "300"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2012"))

#: Where records land.  A run with any ``REPRO_BENCH_*`` override is a
#: reduced- or off-default-scale run: it writes under the untracked
#: ``out/local/`` so the committed full-scale records stay as they are.
OUT_DIR = Path(__file__).parent / "out"
if any(name.startswith("REPRO_BENCH_") for name in os.environ):
    OUT_DIR = OUT_DIR / "local"


class KeepAliveClient:
    """Persistent HTTP/1.1 connections to a served benchmark target.

    ``urllib.request.urlopen`` opens a fresh TCP connection per request,
    so a throughput sweep through it measures connection setup as much
    as the service.  This client keeps one ``http.client.HTTPConnection``
    per calling thread and reuses it across requests, which is what a
    real load generator (and any sane production client) does.  A
    connection that the server closed (or that errored mid-request) is
    discarded and rebuilt once, transparently.
    """

    def __init__(self, url: str, timeout: float = 600.0):
        parsed = urllib.parse.urlsplit(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _reset(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
        self._local.conn = None

    def request(self, method: str, path: str, body: dict | None = None):
        """One request on the thread's persistent connection.

        Returns ``(status, document)``; retries exactly once on a stale
        keep-alive connection.
        """
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError):
                self._reset()
                if attempt:
                    raise
                continue
            return response.status, json.loads(raw)
        raise AssertionError("unreachable")

    def get(self, path: str) -> dict:
        status, document = self.request("GET", path)
        assert status == 200, f"GET {path} -> {status}: {document}"
        return document

    def post(self, path: str, body: dict) -> dict:
        status, document = self.request("POST", path, body)
        assert status == 200, f"POST {path} -> {status}: {document}"
        return document

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure next to the benchmark results."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)


@pytest.fixture(scope="session")
def population():
    """The benchmark cohort (generated once)."""
    return generate_study_population(
        num_owners=OWNERS,
        ego_config=EgoNetConfig(num_friends=40, num_strangers=STRANGERS),
        seed=SEED,
    )


@pytest.fixture(scope="session")
def npp_study(population):
    """The paper's NPP study over the benchmark cohort."""
    return run_study(population, pooling="npp", seed=SEED)


@pytest.fixture(scope="session")
def nsp_study(population):
    """The NSP baseline study over the benchmark cohort."""
    return run_study(population, pooling="nsp", seed=SEED)
