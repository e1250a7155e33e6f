"""Fault-isolating shard supervision: spawn, watch, restart, drain.

Each shard worker is a full ``repro-study serve`` subprocess — its own
interpreter, :class:`~repro.service.DurableOwnerStore` WAL directory,
:class:`~repro.service.RiskEngine`, and scheduler — so one shard dying
(OOM kill, segfault, ``kill -9``) cannot take sibling shards' owners
down with it.  :class:`ShardSupervisor` owns those subprocesses:

* **boot** — spawn every worker with ``--port 0`` and learn each bound
  address from its ``serving on http://...`` announcement (no port
  races, ever);
* **watch** — a monitor thread polls process liveness and probes
  ``GET /readyz``; a dead process, or a live-but-unresponsive one
  (``probe_failures_before_restart`` consecutive probe failures), is
  restarted with the *same* argv — same WAL dir — so recovery replays
  the shard's log and serves digest-identical scores;
* **drain** — :meth:`stop` SIGTERMs every worker (each runs its own
  graceful drain) and escalates to ``kill -9`` only past the timeout.

The supervisor never parses scores and holds no owner state; the router
(:mod:`repro.service.router`) asks it one question — :meth:`url_of` —
and treats ``None`` (worker down or rebooting) as "fail fast with 503,
the supervisor is already on it".
"""

from __future__ import annotations

import http.client
import random
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import ServiceError

#: Announcement line prefix every serve process prints once it is bound.
ANNOUNCEMENT = "serving on "


@dataclass
class ShardSpec:
    """How to (re)start one shard worker."""

    index: int
    argv: list[str]
    #: Extra environment entries merged over ``os.environ`` (None = none).
    env: dict[str, str] | None = None


@dataclass
class _WorkerHandle:
    """Live state of one supervised shard worker."""

    spec: ShardSpec
    process: subprocess.Popen | None = None
    url: str | None = None
    announced: threading.Event = field(default_factory=threading.Event)
    restarts: int = 0
    probe_failures: int = 0
    last_exit_code: int | None = None
    stderr_tail: deque[str] = field(default_factory=lambda: deque(maxlen=40))
    #: Restart timestamps inside the crash-loop window (monotonic clock).
    recent_restarts: deque[float] = field(
        default_factory=lambda: deque(maxlen=32)
    )
    #: Tripped by the crash-loop breaker: no more respawns, ``/shards``
    #: reports the shard as failed until an operator intervenes.
    failed: bool = False
    #: Set when the worker was deliberately retired (shrink rebalance);
    #: the monitor must neither probe nor resurrect it.
    retired: bool = False


class ShardSupervisor:
    """Keeps N shard worker subprocesses alive and addressable.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per shard, ``argv`` ready to exec.  The
        worker must announce ``serving on http://host:port`` on stderr
        once bound (``repro-study serve`` does).
    health_interval:
        Seconds between monitor sweeps (liveness poll + readiness probe).
    boot_timeout:
        Seconds to wait for a worker's announcement before declaring the
        boot failed.
    probe_timeout:
        Per-probe HTTP timeout for ``GET /readyz``.
    probe_failures_before_restart:
        Consecutive failed probes (connection-level, not 503s) after
        which a *live* process is presumed hung and force-restarted.
    restart_backoff:
        *Base* of the exponential respawn delay: restart ``k`` within
        the crash-loop window waits ``restart_backoff * 2**(k-1)``
        seconds (capped at ``restart_backoff_cap``), plus seeded jitter
        so a fleet of crashed shards doesn't respawn in lockstep.
    restart_backoff_cap:
        Ceiling on the exponential delay.
    backoff_seed:
        Seed for the jitter PRNG — deterministic backoff schedules in
        tests, decorrelated ones in production (vary the seed).
    crash_loop_threshold:
        Restarts within ``crash_loop_window`` seconds after which the
        breaker trips: the shard is marked failed in ``/shards`` and no
        longer respawned — a persistently-crashing worker (bad disk,
        poisoned WAL) must page an operator, not spin the host.
    crash_loop_window:
        Width of the sliding window the threshold counts within.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        *,
        health_interval: float = 0.5,
        boot_timeout: float = 120.0,
        probe_timeout: float = 5.0,
        probe_failures_before_restart: int = 3,
        restart_backoff: float = 0.25,
        restart_backoff_cap: float = 15.0,
        backoff_seed: int = 0,
        crash_loop_threshold: int = 5,
        crash_loop_window: float = 30.0,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if not specs:
            raise ServiceError("a shard supervisor needs at least one spec")
        if crash_loop_threshold < 1:
            raise ServiceError(
                f"crash_loop_threshold must be >= 1, got {crash_loop_threshold}"
            )
        self._handles = [_WorkerHandle(spec=spec) for spec in specs]
        self._health_interval = health_interval
        self._boot_timeout = boot_timeout
        self._probe_timeout = probe_timeout
        self._probe_failures_before_restart = probe_failures_before_restart
        self._restart_backoff = restart_backoff
        self._restart_backoff_cap = restart_backoff_cap
        self._jitter = random.Random(backoff_seed)
        self._crash_loop_threshold = crash_loop_threshold
        self._crash_loop_window = crash_loop_window
        self._log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many shard workers are supervised."""
        return len(self._handles)

    def start(self) -> None:
        """Spawn every worker, wait for announcements, start the monitor."""
        for handle in self._handles:
            self._spawn(handle)
        for handle in self._handles:
            if not handle.announced.wait(timeout=self._boot_timeout):
                tail = "\n".join(handle.stderr_tail)
                self.stop(drain_timeout=5.0)
                raise ServiceError(
                    f"shard {handle.spec.index} never announced within "
                    f"{self._boot_timeout:.0f}s; last stderr:\n{tail}"
                )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self, drain_timeout: float = 15.0) -> dict[str, Any]:
        """SIGTERM every worker (graceful drain), kill stragglers.

        Returns a JSON-ready summary (per-shard exit codes and restart
        counts) for the router's final metrics line.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self._health_interval + 5.0)
        for handle in self._handles:
            process = handle.process
            if process is not None and process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + drain_timeout
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                handle.last_exit_code = process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                handle.last_exit_code = process.wait(timeout=10)
        return self.snapshot()

    # ------------------------------------------------------------------
    # the router's view
    # ------------------------------------------------------------------
    def url_of(self, shard_index: int) -> str | None:
        """The shard's current base URL, or ``None`` while it is down.

        The URL changes across restarts (workers bind ephemeral ports),
        so callers must re-ask per request rather than cache.  Failed
        (crash-loop breaker) and retired shards answer ``None`` too.
        """
        handle = self._handle_at(shard_index)
        if handle is None:
            return None
        with self._lock:
            if (
                handle.failed
                or handle.retired
                or handle.process is None
                or handle.process.poll() is not None
                or not handle.announced.is_set()
            ):
                return None
            return handle.url

    def pid_of(self, shard_index: int) -> int | None:
        """The worker's pid (chaos harnesses aim ``kill -9`` here)."""
        handle = self._handle_at(shard_index)
        process = handle.process if handle is not None else None
        return process.pid if process is not None else None

    def alive(self, shard_index: int) -> bool:
        """Whether the worker process is currently running."""
        handle = self._handle_at(shard_index)
        process = handle.process if handle is not None else None
        return process is not None and process.poll() is None

    def _handle_at(self, shard_index: int) -> _WorkerHandle | None:
        with self._lock:
            if 0 <= shard_index < len(self._handles):
                return self._handles[shard_index]
            return None

    def wait_for_ready(
        self, shard_index: int, timeout: float = 60.0
    ) -> bool:
        """Block until the shard answers ``/readyz`` 200 (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            url = self.url_of(shard_index)
            if url is not None and self._probe(url):
                return True
            time.sleep(0.05)
        return False

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready supervisor state for ``/shards`` and metrics."""
        with self._lock:
            return {
                "shards": [
                    {
                        "shard": handle.spec.index,
                        "alive": (
                            handle.process is not None
                            and handle.process.poll() is None
                        ),
                        "url": handle.url if handle.announced.is_set() else None,
                        "pid": (
                            handle.process.pid
                            if handle.process is not None
                            else None
                        ),
                        "restarts": handle.restarts,
                        "last_exit_code": handle.last_exit_code,
                        "failed": handle.failed,
                        "retired": handle.retired,
                    }
                    for handle in self._handles
                ]
            }

    # ------------------------------------------------------------------
    # runtime topology changes (live rebalancing)
    # ------------------------------------------------------------------
    def add_worker(self, spec: ShardSpec) -> None:
        """Spawn one more shard worker while the fleet is serving.

        The new spec's index must be the next tail index — consistent
        hashing only ever grows/shrinks the ring at the tail, and tail-
        only mutation keeps ``url_of(i)`` positional lookups stable for
        every existing shard.  Blocks until the worker announces; on a
        boot failure the worker is killed and the fleet is unchanged.
        """
        with self._lock:
            expected = len(self._handles)
            if spec.index != expected:
                raise ServiceError(
                    f"add_worker expects tail index {expected}, "
                    f"got {spec.index}"
                )
            handle = _WorkerHandle(spec=spec)
            self._handles.append(handle)
        self._spawn(handle)
        if not handle.announced.wait(timeout=self._boot_timeout):
            tail = "\n".join(handle.stderr_tail)
            process = handle.process
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            with self._lock:
                self._handles.remove(handle)
            raise ServiceError(
                f"new shard {spec.index} never announced within "
                f"{self._boot_timeout:.0f}s; last stderr:\n{tail}"
            )
        self._log(f"shard {spec.index} joined the fleet")

    def retire_worker(
        self, shard_index: int, drain_timeout: float = 15.0
    ) -> None:
        """Drain and remove the tail shard worker (shrink rebalance).

        Marks the handle retired first so the monitor neither probes nor
        resurrects it, SIGTERMs for a graceful drain, and escalates to
        ``kill -9`` past the timeout.  Tail-only, like :meth:`add_worker`.
        """
        with self._lock:
            if shard_index != len(self._handles) - 1:
                raise ServiceError(
                    f"retire_worker expects tail index "
                    f"{len(self._handles) - 1}, got {shard_index}"
                )
            if len(self._handles) == 1:
                raise ServiceError("refusing to retire the last shard")
            handle = self._handles[shard_index]
            handle.retired = True
        process = handle.process
        if process is not None and process.poll() is None:
            process.terminate()
            try:
                handle.last_exit_code = process.wait(timeout=drain_timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                handle.last_exit_code = process.wait(timeout=10)
        with self._lock:
            if self._handles and self._handles[-1] is handle:
                self._handles.pop()
        self._log(f"shard {shard_index} retired")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        env = None
        if handle.spec.env is not None:
            import os

            env = {**os.environ, **handle.spec.env}
        with self._lock:
            handle.announced = threading.Event()
            handle.url = None
            handle.probe_failures = 0
            handle.process = subprocess.Popen(
                handle.spec.argv,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
        threading.Thread(
            target=self._drain_stderr,
            args=(handle, handle.process),
            name=f"shard-{handle.spec.index}-stderr",
            daemon=True,
        ).start()

    def _drain_stderr(
        self, handle: _WorkerHandle, process: subprocess.Popen
    ) -> None:
        """Read the worker's stderr forever: announcements + diagnostics.

        Draining also keeps the pipe from filling and blocking the
        worker.  The thread dies with the process (readline returns '').
        """
        stream = process.stderr
        if stream is None:  # pragma: no cover - PIPE is always set
            return
        for line in stream:
            handle.stderr_tail.append(line.rstrip("\n"))
            if ANNOUNCEMENT in line and not handle.announced.is_set():
                url = line.split(ANNOUNCEMENT, 1)[1].strip()
                with self._lock:
                    if handle.process is process:
                        handle.url = url
                handle.announced.set()
                # NOT "serving on": that prefix is the announcement
                # grammar, and harnesses parsing our *own* stderr must
                # only match the router's line
                self._log(
                    f"shard {handle.spec.index} ready at {url} "
                    f"(pid {process.pid})"
                )
        stream.close()

    def _probe(self, url: str) -> bool:
        """One ``GET /readyz``; any HTTP answer (even 503) counts as
        reachable — the probe hunts hung/dead workers, not drains.
        ``http.client`` never consults proxy environment variables."""
        connection = http.client.HTTPConnection(
            url.removeprefix("http://"), timeout=self._probe_timeout
        )
        try:
            connection.request("GET", "/readyz")
            connection.getresponse().read()
            return True
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(timeout=self._health_interval):
            # iterate a copy: add_worker/retire_worker mutate the list
            with self._lock:
                handles = list(self._handles)
            for handle in handles:
                if self._stopping.is_set():
                    return
                if handle.failed or handle.retired:
                    continue
                process = handle.process
                if process is None:
                    continue
                exit_code = process.poll()
                if exit_code is not None:
                    handle.last_exit_code = exit_code
                    self._restart(handle, f"exited rc={exit_code}")
                    continue
                if not handle.announced.is_set():
                    continue  # still booting; boot_timeout governed start
                url = handle.url
                if url is not None and not self._probe(url):
                    handle.probe_failures += 1
                    if (
                        handle.probe_failures
                        >= self._probe_failures_before_restart
                    ):
                        process.kill()
                        process.wait(timeout=10)
                        self._restart(
                            handle,
                            f"unresponsive ({handle.probe_failures} failed "
                            "readyz probes)",
                        )
                else:
                    handle.probe_failures = 0

    def _restart(self, handle: _WorkerHandle, reason: str) -> None:
        if self._stopping.is_set() or handle.retired:
            return
        handle.restarts += 1
        now = time.monotonic()
        while (
            handle.recent_restarts
            and now - handle.recent_restarts[0] > self._crash_loop_window
        ):
            handle.recent_restarts.popleft()
        handle.recent_restarts.append(now)
        rapid = len(handle.recent_restarts)
        if rapid >= self._crash_loop_threshold:
            handle.failed = True
            self._log(
                f"shard {handle.spec.index} crash-looping ({rapid} restarts "
                f"in {self._crash_loop_window:.0f}s); breaker tripped — "
                "marking failed and giving up"
            )
            return
        delay = self._next_backoff(rapid)
        self._log(
            f"shard {handle.spec.index} {reason}; restarting "
            f"(restart #{handle.restarts}, backoff {delay:.2f}s)"
        )
        if delay:
            if self._stopping.wait(timeout=delay):
                return
        self._spawn(handle)

    def _next_backoff(self, rapid_restarts: int) -> float:
        """Exponential delay for the ``k``-th rapid restart, with jitter.

        ``base * 2**(k-1)`` capped at the ceiling, then stretched by up
        to +50% from the seeded jitter PRNG so sibling shards that died
        together don't respawn in lockstep.
        """
        if not self._restart_backoff:
            return 0.0
        exponential = min(
            self._restart_backoff_cap,
            self._restart_backoff * (2 ** max(0, rapid_restarts - 1)),
        )
        return exponential * (1.0 + self._jitter.uniform(0.0, 0.5))


def build_worker_argv(
    shard_index: int,
    shard_count: int,
    base_args: Sequence[str],
    wal_dir: str | None = None,
    join_empty: bool = False,
) -> list[str]:
    """The exec line for one shard worker.

    ``base_args`` are the serve flags shared by every shard (cohort,
    classifier, durability policy...); the shard identity, an ephemeral
    port, and the per-shard WAL directory are appended here so they can
    never be forgotten or collide.  ``join_empty`` boots the worker with
    zero registered owners — the spawn mode of a shard joining a live
    rebalance, which receives its owners via slice import.
    """
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--shard-index",
        str(shard_index),
        "--shard-count",
        str(shard_count),
        *base_args,
    ]
    if wal_dir is not None:
        argv += ["--wal-dir", wal_dir]
    if join_empty:
        argv.append("--join-empty")
    return argv


__all__ = [
    "ANNOUNCEMENT",
    "ShardSpec",
    "ShardSupervisor",
    "build_worker_argv",
]
