"""Served workloads: server processes, keep-alive clients, closed loop.

:class:`Server` runs ``python -m repro serve --async`` (optionally with
``--shards``) as a subprocess of this benchmark and stops it, and any
shard workers it spawned, before returning.  :func:`drive` runs the op
script closed-loop over two keep-alive connections.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from inputs import OpScript, Read

#: Closed-loop client connections (callers wait for their scores).
CONNECTIONS = 2
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: Socket timeout of every client connection.
CLIENT_TIMEOUT_S = 60.0

_SCORE_HEAD = re.compile(
    rb'"source": "(\w+)", "measure": "(\w+)", "digest": "([0-9a-f]+)"'
)
_SHARD_READY = re.compile(r"shard (\d+) ready at (http://\S+)")


class BenchError(RuntimeError):
    """The benchmark could not run its workload."""


class Server:
    """One ``serve --async`` deployment booted from a saved cohort."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        dataset: Path,
        seed: int,
        shards: int,
        env: dict[str, str],
    ) -> None:
        self.wal_dir = workdir / "wal"
        self.log_path = workdir / "serve.err"
        argv = [
            sys.executable, "-m", "repro", "serve", "--async",
            "--port", "0",
            "--load-dataset", str(dataset),
            "--wal-dir", str(self.wal_dir),
            "--seed", str(seed),
        ]
        if shards:
            argv += ["--shards", str(shards)]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.url = ""
        self.shard_urls: dict[int, str] = {}
        self.children: list[int] = []

    def wait_ready(self) -> None:
        """Block until the front door announces ``serving on <url>``."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                found = _SHARD_READY.search(line)
                if found:
                    self.shard_urls[int(found.group(1))] = found.group(2)
                if line.startswith("serving on "):
                    self.url = line.split("serving on ", 1)[1].strip()
            if self.url:
                self.children = _child_pids(self.process.pid)
                return
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode}:\n"
                    + text[-2000:]
                )
            time.sleep(0.02)
        raise BenchError("server did not announce its URL in time")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server process and its shard workers."""
        total_kb = 0
        for pid in [self.process.pid, *self.children]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the front door, wait for it and every shard worker."""
        children = self.children or _child_pids(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        self._log.close()


def _child_pids(parent: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent:
            pids.append(int(entry.name))
    return sorted(pids)


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Client:
    """One keep-alive HTTP/1.1 connection to a server."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=CLIENT_TIMEOUT_S
        )

    def request(
        self, method: str, path: str, body: str | None = None
    ) -> tuple[int, bytes]:
        """``(status, body)``; status 0 when the connection failed."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(
                method,
                path,
                body=body.encode() if body else None,
                headers=headers,
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return 0, b""

    def json(self, method: str, path: str, body: str | None = None) -> dict:
        status, raw = self.request(method, path, body)
        if status != 200:
            raise BenchError(f"{method} {path} answered {status}: {raw[:200]!r}")
        return json.loads(raw)

    def close(self) -> None:
        self._conn.close()


def score_path(owner: int, measure: str) -> str:
    return f"/score?owner={owner}&measure={measure}"


def parse_score(raw: bytes) -> tuple[str, str, str] | None:
    """``(source, measure, digest)`` from a ``/score`` answer's head."""
    found = _SCORE_HEAD.search(raw, 0, 512)
    if found is None:
        return None
    return tuple(part.decode() for part in found.groups())  # type: ignore


@dataclass
class LoopRecord:
    """What one closed-loop run observed."""

    latencies: list[float] = field(default_factory=list)
    update_to_score: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    wall: float = 0.0
    sweeps: list[dict[tuple[int, str], str]] = field(default_factory=list)
    calib_ms: list[float] = field(default_factory=list)


def drive(
    url: str,
    script: OpScript,
    seconds: float,
    *,
    between_passes: Callable[[], float],
) -> LoopRecord:
    """Run whole passes of ``script`` until ``seconds`` of pass time.

    Two threads, one keep-alive connection each, take units in script
    order (closed loop: a thread sends its next request only after the
    previous answer).  A barrier ends every phase.  Between passes, with
    the load stopped, ``between_passes`` runs (the host-speed probe); its
    time is not pass time.  Each sweep's digests are kept per pass.
    """
    record = LoopRecord()
    lock = threading.Lock()
    state = {
        "phases": script.pass_at(0),
        "phase": 0,
        "next": 0,
        "pass_start": 0.0,
        "stop": False,
    }
    sweep: dict[tuple[int, str], str] = {}

    def phase_done() -> None:
        # runs in exactly one thread while the other waits at the barrier
        state["next"] = 0
        if state["phase"] < len(state["phases"]) - 1:
            state["phase"] += 1
            return
        record.wall += time.perf_counter() - state["pass_start"]
        record.passes += 1
        record.sweeps.append(dict(sweep))
        sweep.clear()
        state["phase"] = 0
        state["phases"] = script.pass_at(record.passes)
        if record.wall >= seconds:
            state["stop"] = True
            return
        record.calib_ms.append(between_passes())
        state["pass_start"] = time.perf_counter()

    barrier = threading.Barrier(CONNECTIONS, action=phase_done)
    errors: list[BaseException] = []

    def worker() -> None:
        client = Client(url)
        latencies: list[float] = []
        updates: list[float] = []
        attempted = failed = 0
        try:
            while not state["stop"]:
                phases, phase_index = state["phases"], state["phase"]
                phase = phases[phase_index]
                in_sweep = phase_index == len(phases) - 1
                while True:
                    with lock:
                        index = state["next"]
                        state["next"] += 1
                    if index >= len(phase):
                        break
                    unit = phase[index]
                    if isinstance(unit, Read):
                        start = time.perf_counter()
                        status, raw = client.request(
                            "GET", score_path(unit.owner, unit.measure)
                        )
                        latencies.append(time.perf_counter() - start)
                        attempted += 1
                        head = parse_score(raw) if status == 200 else None
                        if head is None:
                            failed += 1
                        elif in_sweep:
                            with lock:
                                sweep[(unit.owner, unit.measure)] = head[2]
                        continue
                    start = time.perf_counter()
                    status, _ = client.request("POST", "/mutate", unit.body)
                    middle = time.perf_counter()
                    latencies.append(middle - start)
                    attempted += 1
                    if status != 200:
                        failed += 1
                        continue
                    status, raw = client.request(
                        "GET", score_path(unit.owner, "stranger")
                    )
                    end = time.perf_counter()
                    latencies.append(end - middle)
                    attempted += 1
                    if status == 200 and parse_score(raw) is not None:
                        updates.append(end - start)
                    else:
                        failed += 1
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException as error:  # re-raised by the caller
            errors.append(error)
            barrier.abort()
        finally:
            client.close()
            with lock:
                record.latencies += latencies
                record.update_to_score += updates
                record.attempted += attempted
                record.failed += failed

    state["pass_start"] = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"client thread failed: {errors[0]!r}")
    return record
