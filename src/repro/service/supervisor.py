"""Fault-isolating shard supervision: spawn, watch, restart, drain.

Each shard worker is a full ``repro-study serve`` subprocess — its own
interpreter, :class:`~repro.service.DurableOwnerStore` WAL directory,
:class:`~repro.service.RiskEngine`, and scheduler — so one shard dying
(OOM kill, segfault, ``kill -9``) cannot take sibling shards' owners
down with it.  :class:`ShardSupervisor` owns those subprocesses, on the
event loop the router serves from:

* **boot** — spawn every worker with ``--port 0`` and learn each bound
  address from its ``serving on http://...`` announcement (no port
  races, ever);
* **watch** — each worker's task reads its stderr and awaits its exit,
  so a dead worker is restarted at once, with the *same* argv — same
  WAL dir — and recovery replays the shard's log and serves
  digest-identical scores; a probe task kills a live worker that fails
  ``probe_failures_before_restart`` ``GET /readyz`` probes in a row;
* **drain** — :meth:`stop` SIGTERMs every worker (each runs its own
  graceful drain) and escalates to ``kill -9`` only past the timeout.

The supervisor never parses scores and holds no owner state; the router
(:mod:`repro.service.router`) asks it one question — :meth:`url_of` —
and treats ``None`` (worker down or rebooting) as "fail fast with 503,
the supervisor is already on it".
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Sequence

from ..errors import ServiceError, ShardUnavailableError
from .http import read_line

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
    process: asyncio.subprocess.Process | None = None
    #: The worker's one task: reads stderr, awaits exit, restarts.
    task: asyncio.Task | None = None
    url: str | None = None
    #: Set by the current process's announcement (a new event per spawn).
    announced: asyncio.Event = field(default_factory=asyncio.Event)
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
    #: it is neither probed nor resurrected.
    retired: bool = False

    @property
    def running(self) -> bool:
        """Whether the worker process is running."""
        return self.process is not None and self.process.returncode is None

    @property
    def address(self) -> str | None:
        """The announced URL, or ``None`` while the worker is down,
        booting, failed or retired."""
        up = self.running and self.announced.is_set()
        return self.url if up and not (self.failed or self.retired) else None


class ShardSupervisor:
    """Keeps N shard worker subprocesses alive and addressable.

    Its lifecycle calls are coroutines on the router's event loop; the
    read-only ones (``url_of``, ``pid_of``, ``alive``, ``snapshot``) not.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per shard, ``argv`` ready to exec.  The
        worker must announce ``serving on http://host:port`` on stderr
        once bound (``repro-study serve`` does).
    health_interval:
        Seconds between readiness probe sweeps.
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
        self._stopping = False
        self._prober: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many shard workers are supervised."""
        return len(self._handles)

    async def start(self) -> None:
        """Spawn every worker, wait for announcements, start probing."""
        announcements = [await self._spawn(handle) for handle in self._handles]
        for handle, announced in zip(self._handles, announcements):
            if not await self._within_boot_timeout(announced):
                tail = "\n".join(handle.stderr_tail)
                await self.stop(drain_timeout=5.0)
                raise ServiceError(
                    f"shard {handle.spec.index} never announced within "
                    f"{self._boot_timeout:.0f}s; last stderr:\n{tail}"
                )
        self._prober = asyncio.create_task(self._probe_loop())

    async def stop(self, drain_timeout: float = 15.0) -> dict[str, Any]:
        """SIGTERM every worker (graceful drain), kill stragglers.

        Returns a JSON-ready summary (per-shard exit codes and restart
        counts) for the router's final metrics line.
        """
        self._stopping = True
        if self._prober is not None:
            self._prober.cancel()
            await asyncio.wait({self._prober})
        await asyncio.gather(
            *(self._end(handle, drain_timeout) for handle in self._handles)
        )
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
        return handle.address if handle is not None else None

    def pid_of(self, shard_index: int) -> int | None:
        """The worker's pid (chaos harnesses aim ``kill -9`` here)."""
        handle = self._handle_at(shard_index)
        return None if handle is None else getattr(handle.process, "pid", None)

    def alive(self, shard_index: int) -> bool:
        """Whether the worker process is currently running."""
        handle = self._handle_at(shard_index)
        return handle is not None and handle.running

    def _handle_at(self, shard_index: int) -> _WorkerHandle | None:
        if 0 <= shard_index < len(self._handles):
            return self._handles[shard_index]
        return None

    async def wait_for_ready(
        self, shard_index: int, timeout: float = 60.0
    ) -> bool:
        """Wait until the shard answers ``/readyz`` (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            url = self.url_of(shard_index)
            if url is not None and await self._probe(url):
                return True
            await asyncio.sleep(0.05)
        return False

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready supervisor state for ``/shards`` and metrics."""
        return {
            "shards": [
                {
                    "shard": handle.spec.index,
                    "alive": handle.running,
                    "url": handle.url if handle.announced.is_set() else None,
                    "pid": getattr(handle.process, "pid", None),
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
    async def add_worker(self, spec: ShardSpec) -> None:
        """Spawn one more shard worker while the fleet is serving.

        The new spec's index must be the next tail index — consistent
        hashing only ever grows/shrinks the ring at the tail, and tail-
        only mutation keeps ``url_of(i)`` positional lookups stable for
        every existing shard.  Returns once the worker announces; on a
        boot failure the worker is killed and the fleet is unchanged.
        """
        if self._stopping:
            raise ServiceError("the supervisor is stopping")
        expected = len(self._handles)
        if spec.index != expected:
            raise ServiceError(
                f"add_worker expects tail index {expected}, "
                f"got {spec.index}"
            )
        handle = _WorkerHandle(spec=spec)
        self._handles.append(handle)
        if not await self._within_boot_timeout(await self._spawn(handle)):
            tail = "\n".join(handle.stderr_tail)
            handle.retired = True
            await self._end(handle, drain_timeout=0.0)
            self._handles.remove(handle)
            raise ServiceError(
                f"new shard {spec.index} never announced within "
                f"{self._boot_timeout:.0f}s; last stderr:\n{tail}"
            )
        self._log(f"shard {spec.index} joined the fleet")

    async def retire_worker(
        self, shard_index: int, drain_timeout: float = 15.0
    ) -> None:
        """Drain and remove the tail shard worker (shrink rebalance).

        Marks the handle retired first so it is neither probed nor
        resurrected, SIGTERMs for a graceful drain, and escalates to
        ``kill -9`` past the timeout.  Tail-only, like :meth:`add_worker`.
        """
        if shard_index != len(self._handles) - 1:
            raise ServiceError(
                f"retire_worker expects tail index "
                f"{len(self._handles) - 1}, got {shard_index}"
            )
        if len(self._handles) == 1:
            raise ServiceError("refusing to retire the last shard")
        handle = self._handles[shard_index]
        handle.retired = True
        await self._end(handle, drain_timeout)
        if self._handles and self._handles[-1] is handle:
            self._handles.pop()
        self._log(f"shard {shard_index} retired")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _within_boot_timeout(self, announced: asyncio.Event) -> bool:
        try:
            await asyncio.wait_for(announced.wait(), self._boot_timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def _spawn(self, handle: _WorkerHandle) -> asyncio.Event:
        """Start the worker process (and, the first time, its task);
        returns the event its announcement sets."""
        env = None
        if handle.spec.env is not None:
            env = {**os.environ, **handle.spec.env}
        handle.announced = asyncio.Event()
        handle.url = None
        handle.probe_failures = 0
        handle.process = await asyncio.create_subprocess_exec(
            *handle.spec.argv,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        if handle.task is None:
            handle.task = asyncio.create_task(self._watch(handle))
        return handle.announced

    async def _watch(self, handle: _WorkerHandle) -> None:
        """The worker's task: drain its stderr to end-of-file, await its
        exit, and restart it, until it must stay down."""
        while True:
            await self._read_stderr(handle)
            handle.last_exit_code = await handle.process.wait()
            if handle.probe_failures >= self._probe_failures_before_restart:
                reason = (
                    f"unresponsive ({handle.probe_failures} failed "
                    "readyz probes)"
                )
            else:
                reason = f"exited rc={handle.last_exit_code}"
            if not await self._restart(handle, reason):
                return

    async def _read_stderr(self, handle: _WorkerHandle) -> None:
        """Read the worker's stderr to end-of-file: its announcement and
        diagnostics.  Draining also keeps the pipe from filling and
        blocking the worker; a line of any length is read whole."""
        process, announced = handle.process, handle.announced
        while line := await read_line(process.stderr):
            text = line.decode("utf-8", "replace").rstrip("\r\n")
            handle.stderr_tail.append(text)
            if ANNOUNCEMENT in text and not announced.is_set():
                handle.url = text.split(ANNOUNCEMENT, 1)[1].strip()
                announced.set()
                # NOT "serving on": that prefix is the announcement
                # grammar, and harnesses parsing our *own* stderr must
                # only match the router's line
                self._log(
                    f"shard {handle.spec.index} ready at {handle.url} "
                    f"(pid {process.pid})"
                )

    async def _probe(self, url: str) -> bool:
        """One ``GET /readyz``; any HTTP answer (even 503) counts as
        reachable — the probe hunts hung/dead workers, not drains."""
        from .router import ShardClient  # the router imports this module

        # a client whose shard always resolves to ``url``
        client = ShardClient(
            SimpleNamespace(url_of=lambda _: url),
            0,
            timeout=self._probe_timeout,
        )
        try:
            await client.attempt("GET", "/readyz")
        except ShardUnavailableError:
            return False
        finally:
            client.close()
        return True

    async def _probe_loop(self) -> None:
        """Probe every announced worker each ``health_interval``; kill
        one that keeps failing, for its task to restart."""
        while True:
            await asyncio.sleep(self._health_interval)
            for handle in list(self._handles):
                process, url = handle.process, handle.address
                if url is None:
                    continue
                reachable = await self._probe(url)
                if handle.process is not process or handle.address is None:
                    continue  # exited, restarted or retired while probed
                if reachable:
                    handle.probe_failures = 0
                    continue
                handle.probe_failures += 1
                if (
                    handle.probe_failures
                    >= self._probe_failures_before_restart
                ):
                    process.kill()

    async def _restart(self, handle: _WorkerHandle, reason: str) -> bool:
        """Respawn an exited worker after its backoff; ``False`` when it
        must stay down (stopping, retired, or crash-looping)."""
        if self._stopping or handle.retired:
            return False
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
            return False
        delay = self._next_backoff(rapid)
        self._log(
            f"shard {handle.spec.index} {reason}; restarting "
            f"(restart #{handle.restarts}, backoff {delay:.2f}s)"
        )
        if delay:
            await asyncio.sleep(delay)  # cut short by _end's cancel
        await self._spawn(handle)
        return True

    async def _end(self, handle: _WorkerHandle, drain_timeout: float) -> None:
        """SIGTERM the worker (a graceful drain), SIGKILL it past
        ``drain_timeout``, and await its task, which restarts nothing:
        the caller set ``retired`` or ``_stopping``.  A task with no
        process running is in a backoff pause or a respawn: cancelled."""
        task = handle.task
        if task is None:
            return
        if handle.running:
            handle.process.terminate()
        else:
            task.cancel()
        done, _ = await asyncio.wait({task}, timeout=drain_timeout)
        if not done:
            if handle.running:
                handle.process.kill()
            await asyncio.wait({task})
        handle.last_exit_code = handle.process.returncode

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
