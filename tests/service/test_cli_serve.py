"""End-to-end test: ``repro-study serve`` as a real subprocess."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
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
