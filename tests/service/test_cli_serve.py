"""``repro-study serve`` end to end as a real subprocess, and the argv
its router gives each shard worker."""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def read_line_with_timeout(stream, timeout: float) -> str:
    """Read one line from a pipe without risking a hung test."""
    lines: queue.Queue[str] = queue.Queue()
    reader = threading.Thread(
        target=lambda: lines.put(stream.readline()), daemon=True
    )
    reader.start()
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        return ""


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


@pytest.fixture
def serve_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",  # ephemeral: the announced URL tells us where
            "--owners",
            "1",
            "--strangers",
            "30",
            "--friends",
            "10",
            "--seed",
            "3",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        yield process
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        process.stderr.close()


def test_serve_announces_and_scores(serve_process):
    # skip progress chatter (cohort generation etc.) up to the announcement
    announcement = ""
    for _ in range(20):
        line = read_line_with_timeout(serve_process.stderr, timeout=120)
        if not line:
            break
        if line.startswith("serving on http://"):
            announcement = line
            break
    assert announcement.startswith("serving on http://"), announcement
    url = announcement.split()[-1].strip()

    health = get_json(f"{url}/healthz")
    assert health["status"] == "ok"
    assert health["owners"] == 1

    owners = get_json(f"{url}/owners")["owners"]
    assert len(owners) == 1
    owner_id = owners[0]["owner"]

    record = get_json(f"{url}/score?owner={owner_id}")
    assert record["owner"] == owner_id
    assert record["source"] == "cold"
    assert record["labels"]

    again = get_json(f"{url}/score?owner={owner_id}")
    assert again["source"] == "cache"
    assert again["digest"] == record["digest"]


@pytest.mark.parametrize(
    "bound",
    [
        ("--admission", "0"),
        ("--workers", "0"),
        ("--max-pending", "0"),
        ("--shards", "2", "--workers", "0"),
    ],
)
def test_serve_rejects_unusable_bounds_before_booting(bound):
    """A bound below 1 is a usage error (exit 2) raised before any cohort
    is generated or shard worker spawned — never a traceback after boot,
    never a shard fleet crash-looping on the same error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--owners", "1", "--strangers", "20", "--friends", "6", *bound],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # lets a timeout reap any shard workers
    )
    try:
        _, stderr = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail(f"serve {' '.join(bound)} booted instead of exiting")
    assert process.returncode == 2, stderr
    assert "must be >= 1" in stderr
    assert "generating cohort" not in stderr
    assert "shard worker" not in stderr


def non_default_value(action) -> str:
    """A command-line value that parses to something other than the
    option's default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    if action.type in (int, float):
        return str((action.default or 0) + 3)
    return f"{action.dest}-value"


def test_sharded_serve_forwards_every_serve_option():
    """A shard worker's argv, parsed back through the serve parser,
    carries every option the router parsed, except the per-shard ones
    ``build_worker_argv`` sets and the single-server crash flags.  The
    router's argv sets every option to a non-default value, so an
    option the derivation drops shows up as a default on the worker."""
    from repro.cli import build_serve_parser, worker_base_args
    from repro.service import build_worker_argv

    parser = build_serve_parser()
    router_argv: list[str] = []
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        router_argv.append(action.option_strings[0])
        if action.nargs != 0:
            router_argv.append(non_default_value(action))
    router = vars(parser.parse_args(router_argv))
    for dest, value in router.items():
        assert value != parser.get_default(dest), dest

    argv = build_worker_argv(
        1, 3, worker_base_args(parser.parse_args(router_argv)),
        wal_dir="wal/shard-1",
    )
    assert argv[:4] == [sys.executable, "-m", "repro", "serve"]
    worker = vars(parser.parse_args(argv[4:]))
    per_shard = {
        "shards": 0,
        "port": 0,
        "wal_dir": "wal/shard-1",
        "shard_index": 1,
        "shard_count": 3,
        "join_empty": False,
        "crash_at_mutation": None,
        "torn_write_at_mutation": None,
    }
    assert worker.keys() == router.keys()
    for dest, value in worker.items():
        expected = per_shard.get(dest, router[dest])
        assert value == expected, dest


@pytest.mark.parametrize("topology", [(), ("--shards", "2")])
def test_serve_refuses_a_busy_port(topology):
    """A port another socket already listens on fails the boot: a
    non-zero exit and no ``serving on`` line, which perfbench and the
    supervisor read as readiness.  The router binds before it spawns
    any shard worker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = str(busy.getsockname()[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", port,
             "--owners", "1", "--strangers", "20", "--friends", "6",
             *topology],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # lets a timeout reap any shard workers
        )
        try:
            _, stderr = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail(f"serve --port {port} kept running on a busy port")
    assert process.returncode != 0, stderr
    assert "serving on" not in stderr
    assert "Address already in use" in stderr
    assert "shard worker" not in stderr


def test_sharded_serve_reaps_every_worker_on_sigterm():
    """``serve --shards 2`` answers SIGTERM with exit 0 and a ``final
    metrics:`` line, and leaves none of its shard workers running."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--owners", "4", "--strangers", "20", "--friends", "6",
         "--shards", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # lets a failure reap any shard workers
    )
    try:
        announcement = ""
        for _ in range(50):
            line = read_line_with_timeout(process.stderr, timeout=120)
            if not line or line.startswith("serving on "):
                announcement = line
                break
        assert announcement.startswith("serving on http://"), announcement
        url = announcement.split()[-1].strip()
        rows = get_json(f"{url}/shards")["supervisor"]["shards"]
        pids = [row["pid"] for row in rows]
        assert len(pids) == 2 and all(row["alive"] for row in rows)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    assert process.returncode == 0, stderr
    assert "final metrics:" in stderr
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def child_pids(pid: int) -> list[int]:
    """The live processes whose parent is ``pid``, from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while listed
        # the fields after the parenthesized command: state, then ppid
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sharded_serve_reaps_every_worker_on_sigterm_during_boot():
    """SIGTERM while the shard workers are still generating their cohort
    (no ``serving on`` yet) stops every worker spawned so far: exit 0, a
    ``final metrics:`` line, nothing served and no worker left running."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--owners", "20", "--strangers", "3000", "--friends", "6",
         "--shards", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # lets a failure reap any shard workers
    )
    try:
        line = read_line_with_timeout(process.stderr, timeout=60)
        assert line.startswith("starting 2 shard worker(s)"), line
        deadline = time.monotonic() + 30
        while len(pids := child_pids(process.pid)) < 2:
            assert time.monotonic() < deadline, pids
            time.sleep(0.01)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    assert process.returncode == 0, stderr
    assert "final metrics:" in stderr
    assert "serving on" not in stderr
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
