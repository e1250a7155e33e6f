"""Supervisor restart policy: exponential backoff, jitter, crash loops.

The fixed ``0.25s`` respawn pause became an exponential schedule with
seeded jitter and a crash-loop breaker: a worker that keeps dying gets
progressively slower respawns, and past ``CRASH_LOOP_THRESHOLD``
restarts inside the window the supervisor marks it *failed* and stops
respawning — a poisoned WAL must page an operator, not spin the host.
Elastic-fleet plumbing (``add_worker`` / ``retire_worker``) is covered
here at the process level; the full migration uses it via the
coordinator (``test_rebalance.py``).  The supervisor's coroutines run
on a :class:`~tests.service.conftest.LoopThread`, as they would on a
router's event loop.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.service import ShardSpec, ShardSupervisor
from repro.service import supervisor as supervisor_module

from .conftest import wait_until

#: A worker that announces like a real serve process, then exits at
#: once — the shape of a crash-looping shard (bad disk, poisoned WAL).
ANNOUNCE_AND_DIE = [
    sys.executable,
    "-c",
    "import sys; print('serving on http://127.0.0.1:9', file=sys.stderr)",
]

#: A worker that exits without ever announcing (boot failure).
DIE_SILENTLY = [sys.executable, "-c", "raise SystemExit(1)"]

#: A worker that announces and then stays up, like a healthy shard.
ANNOUNCE_AND_LIVE = [
    sys.executable,
    "-c",
    "import sys, time\n"
    "print('serving on http://127.0.0.1:9', file=sys.stderr, flush=True)\n"
    "time.sleep(600)",
]

#: A worker that writes 1 MB stderr lines around its announcement, then
#: touches the file named by its first argument and stays up: it only
#: gets there if its stderr keeps draining.
LONG_STDERR_LINES = [
    sys.executable,
    "-c",
    "import pathlib, sys, time\n"
    "sys.stderr.write('x' * 1_000_000 + '\\n')\n"
    "print('serving on http://127.0.0.1:9', file=sys.stderr, flush=True)\n"
    "for _ in range(4):\n"
    "    sys.stderr.write('y' * 1_000_000 + '\\n')\n"
    "sys.stderr.flush()\n"
    "pathlib.Path(sys.argv[1]).touch()\n"
    "time.sleep(600)",
]


@pytest.fixture(autouse=True)
def fast_policy(monkeypatch):
    """Tight sweeps, a short boot wait, no respawn pauses and a breaker
    at three restarts: the crash-loop tests stay fast."""
    for name, value in (
        ("HEALTH_INTERVAL", 0.05),
        ("BOOT_TIMEOUT", 20.0),
        ("RESTART_BACKOFF", 0.0),
        ("CRASH_LOOP_THRESHOLD", 3),
        ("CRASH_LOOP_WINDOW", 60.0),
    ):
        monkeypatch.setattr(supervisor_module, name, value)


def make_supervisor(specs=None, **kwargs):
    if specs is None:
        specs = [ShardSpec(index=0, argv=list(ANNOUNCE_AND_DIE))]
    return ShardSupervisor(specs, **kwargs)


class TestBackoffSchedule:
    def test_exponential_growth_with_bounded_jitter(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF", 0.25)
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF_CAP", 15.0)
        supervisor = make_supervisor(backoff_seed=7)
        for k in range(1, 12):
            exponential = min(15.0, 0.25 * 2 ** (k - 1))
            delay = supervisor._next_backoff(k)
            # jitter stretches the base by up to +50%, never shrinks it
            assert exponential <= delay <= exponential * 1.5

    def test_cap_bounds_the_schedule(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF", 0.25)
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF_CAP", 2.0)
        supervisor = make_supervisor(backoff_seed=7)
        assert supervisor._next_backoff(30) <= 2.0 * 1.5

    def test_zero_base_disables_backoff(self):
        supervisor = make_supervisor()  # RESTART_BACKOFF is 0.0 here
        assert supervisor._next_backoff(5) == 0.0

    def test_jitter_is_seeded_and_decorrelated(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF", 0.25)
        same_a = make_supervisor(backoff_seed=3)
        same_b = make_supervisor(backoff_seed=3)
        other = make_supervisor(backoff_seed=4)
        schedule_a = [same_a._next_backoff(k) for k in range(1, 6)]
        schedule_b = [same_b._next_backoff(k) for k in range(1, 6)]
        schedule_other = [other._next_backoff(k) for k in range(1, 6)]
        # deterministic per seed (reproducible tests), different across
        # seeds (sibling fleets don't respawn in lockstep)
        assert schedule_a == schedule_b
        assert schedule_a != schedule_other


class TestCrashLoopBreaker:
    def test_crash_looping_worker_is_marked_failed_not_respawned_forever(
        self, loop_thread
    ):
        supervisor = make_supervisor()
        loop_thread.run(supervisor.start())
        try:
            deadline = time.monotonic() + 30
            row = None
            while time.monotonic() < deadline:
                row = supervisor.snapshot()["shards"][0]
                if row["failed"]:
                    break
                time.sleep(0.05)
            assert row is not None and row["failed"] is True
            # the breaker tripped at the threshold — restarts stopped
            restarts_at_trip = row["restarts"]
            assert restarts_at_trip >= 1
            time.sleep(0.5)
            assert (
                supervisor.snapshot()["shards"][0]["restarts"]
                == restarts_at_trip
            )
            # a failed shard is unaddressable: the router fails fast
            assert supervisor.url_of(0) is None
        finally:
            loop_thread.run(supervisor.stop(drain_timeout=2.0))


class TestWatch:
    def test_a_killed_worker_is_restarted_as_soon_as_it_exits(
        self, loop_thread, monkeypatch
    ):
        """Exit is noticed by the worker's own task, not by the next
        health sweep: with sweeps 30 s apart, a ``kill -9``ed worker is
        respawned and announced again within seconds."""
        monkeypatch.setattr(supervisor_module, "HEALTH_INTERVAL", 30.0)
        supervisor = make_supervisor(
            specs=[ShardSpec(index=0, argv=list(ANNOUNCE_AND_LIVE))],
        )
        loop_thread.run(supervisor.start())
        try:
            old_pid = supervisor.pid_of(0)
            os.kill(old_pid, signal.SIGKILL)
            assert wait_until(
                lambda: supervisor.pid_of(0) != old_pid
                and supervisor.url_of(0) is not None,
                timeout=10,
            )
            row = supervisor.snapshot()["shards"][0]
            assert row["restarts"] == 1
            assert row["last_exit_code"] == -signal.SIGKILL
        finally:
            loop_thread.run(supervisor.stop(drain_timeout=5.0))

    def test_stderr_lines_past_the_stream_limit_are_read_whole(
        self, loop_thread, tmp_path
    ):
        """A 1 MB stderr line before the announcement neither hides it
        nor stops the draining: the worker writes 4 MB more and gets
        past them instead of blocking on a full pipe."""
        marker = tmp_path / "drained"
        supervisor = make_supervisor(
            specs=[
                ShardSpec(
                    index=0, argv=[*LONG_STDERR_LINES, str(marker)]
                )
            ],
        )
        loop_thread.run(supervisor.start())
        try:
            assert supervisor.url_of(0) == "http://127.0.0.1:9"
            assert wait_until(marker.exists, timeout=30)
            assert supervisor.alive(0)
        finally:
            loop_thread.run(supervisor.stop(drain_timeout=5.0))


class TestElasticFleet:
    def test_add_worker_requires_the_tail_index(self, loop_thread):
        supervisor = make_supervisor(
            specs=[ShardSpec(index=0, argv=list(ANNOUNCE_AND_DIE))]
        )
        with pytest.raises(ServiceError):
            loop_thread.run(
                supervisor.add_worker(
                    ShardSpec(index=5, argv=list(ANNOUNCE_AND_DIE))
                )
            )
        assert supervisor.num_shards == 1

    def test_failed_join_leaves_the_fleet_unchanged(
        self, loop_thread, monkeypatch
    ):
        monkeypatch.setattr(supervisor_module, "BOOT_TIMEOUT", 2.0)
        supervisor = make_supervisor(
            specs=[ShardSpec(index=0, argv=list(ANNOUNCE_AND_DIE))],
        )
        with pytest.raises(ServiceError):
            loop_thread.run(
                supervisor.add_worker(
                    ShardSpec(index=1, argv=list(DIE_SILENTLY))
                )
            )
        assert supervisor.num_shards == 1

    def test_retire_worker_is_tail_only_and_keeps_the_last_shard(
        self, loop_thread
    ):
        specs = [
            ShardSpec(index=0, argv=list(ANNOUNCE_AND_DIE)),
            ShardSpec(index=1, argv=list(ANNOUNCE_AND_DIE)),
        ]
        supervisor = make_supervisor(specs=specs)
        with pytest.raises(ServiceError):
            loop_thread.run(supervisor.retire_worker(0))  # not the tail
        loop_thread.run(supervisor.retire_worker(1))
        assert supervisor.num_shards == 1
        assert supervisor.url_of(1) is None  # positional lookups stay safe
        with pytest.raises(ServiceError):
            # never strand the fleet at zero
            loop_thread.run(supervisor.retire_worker(0))
