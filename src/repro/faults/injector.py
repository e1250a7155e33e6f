"""Seedable fault injection for oracles, profile sources, and crawls.

Real OSN data arrives incrementally and partially: crawls stall during
outages, profile fetches fail or return half-empty profiles, and the
human oracle times out or abstains.  :class:`FaultInjector` reproduces
those archetypes deterministically so robustness experiments are exactly
replayable:

* **per-call faults** (oracle timeout/abstention, transient fetch
  failure) draw from one seeded stream — same seed and call order, same
  faults.  The stream's state can be captured and restored, which is how
  checkpoint/resume replays a killed run byte-for-byte;
* **per-user faults** (unreachable users, dropped profile attributes)
  are pure functions of ``(seed, user)``, so they agree across retries
  and across resumed runs regardless of call order;
* **crawl outages** shift discovery events past configured outage
  windows, modeling the "crawler was down for a week" archetype.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import (
    ConfigError,
    OracleAbstainError,
    OracleTimeoutError,
    TransientFetchError,
    UnreachableUserError,
)
from ..graph.profile import Profile
from ..graph.social_graph import SocialGraph
from ..learning.oracle import LabelOracle, LabelQuery, _validate_label
from ..synth.crawler import CrawlSimulation, DiscoveryEvent
from ..types import RiskLabel, UserId


@dataclass(frozen=True)
class OutageWindow:
    """An inclusive day range during which the crawler saw nothing."""

    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        if self.start_day < 1 or self.end_day < self.start_day:
            raise ConfigError(
                f"invalid outage window [{self.start_day}, {self.end_day}]"
            )

    def covers(self, day: int) -> bool:
        """Whether ``day`` falls inside the outage."""
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class FaultPlan:
    """Rates and windows for every fault archetype.

    All rates are probabilities in ``[0, 1]``; the default plan injects
    nothing, so wrapping with an empty plan is a no-op.
    """

    oracle_timeout_rate: float = 0.0
    oracle_abstain_rate: float = 0.0
    fetch_failure_rate: float = 0.0
    unreachable_rate: float = 0.0
    attribute_drop_rate: float = 0.0
    outages: tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "oracle_timeout_rate",
            "oracle_abstain_rate",
            "fetch_failure_rate",
            "unreachable_rate",
            "attribute_drop_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.oracle_timeout_rate + self.oracle_abstain_rate > 1.0:
            raise ConfigError(
                "oracle timeout and abstain rates must sum to at most 1"
            )

    @property
    def injects_anything(self) -> bool:
        """Whether any archetype is active."""
        return bool(
            self.oracle_timeout_rate
            or self.oracle_abstain_rate
            or self.fetch_failure_rate
            or self.unreachable_rate
            or self.attribute_drop_rate
            or self.outages
        )


class FaultInjector:
    """Deterministic source of the fault archetypes in a :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        Which faults to produce, and how often.
    seed:
        Any int or string; derived streams are stable across processes
        (string seeding avoids Python's per-process hash randomization).
    """

    def __init__(self, plan: FaultPlan, seed: int | str = 0) -> None:
        self._plan = plan
        self._seed = str(seed)
        self._rng = random.Random(f"fault-injector:{self._seed}")

    @property
    def plan(self) -> FaultPlan:
        """The active fault plan."""
        return self._plan

    # ------------------------------------------------------------------
    # per-call stream (order-dependent; checkpointable)
    # ------------------------------------------------------------------
    def draw(self) -> float:
        """One uniform draw from the injector's fault stream."""
        return self._rng.random()

    def state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the fault stream."""
        version, internal, gauss_next = self._rng.getstate()
        return {
            "version": version,
            "internal": list(internal),
            "gauss_next": gauss_next,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        self._rng.setstate(
            (
                state["version"],
                tuple(state["internal"]),
                state["gauss_next"],
            )
        )

    # ------------------------------------------------------------------
    # per-user faults (order-independent)
    # ------------------------------------------------------------------
    def is_unreachable(self, user_id: UserId) -> bool:
        """Whether ``user_id`` is permanently gone under this plan."""
        if not self._plan.unreachable_rate:
            return False
        roll = random.Random(f"{self._seed}:unreachable:{user_id}").random()
        return roll < self._plan.unreachable_rate

    def degrade_profile(self, profile: Profile) -> Profile:
        """Drop attributes at ``attribute_drop_rate``, deterministically.

        The same user always loses the same attributes, so repeated
        fetches (retries, resumed runs) agree on what arrived.
        """
        if not self._plan.attribute_drop_rate:
            return profile
        rng = random.Random(f"{self._seed}:attrs:{profile.user_id}")
        kept = {
            attribute: value
            for attribute, value in sorted(profile.attributes.items())
            if rng.random() >= self._plan.attribute_drop_rate
        }
        if len(kept) == len(profile.attributes):
            return profile
        return Profile(
            user_id=profile.user_id,
            attributes=kept,
            privacy=dict(profile.privacy),
        )

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap_oracle(self, oracle: LabelOracle) -> "FlakyOracle":
        """Decorate ``oracle`` with timeout/abstention injection."""
        return FlakyOracle(oracle, self)

    def wrap_source(self, source=None) -> "FlakyProfileSource":
        """A profile source with transient failures and degraded data."""
        return FlakyProfileSource(self, source)

    def apply_outages(self, crawl: CrawlSimulation) -> CrawlSimulation:
        """Delay discovery events that fall inside outage windows.

        Each affected event moves to the first non-outage day after its
        window; events pushed past the crawl horizon are lost entirely
        (the deployment simply never saw them).
        """
        if not self._plan.outages:
            return crawl
        moved: list[DiscoveryEvent] = []
        for event in crawl.events:
            day = event.day
            while any(window.covers(day) for window in self._plan.outages):
                day = max(
                    window.end_day
                    for window in self._plan.outages
                    if window.covers(day)
                ) + 1
            if day > crawl.days:
                continue
            if day == event.day:
                moved.append(event)
            else:
                moved.append(
                    DiscoveryEvent(
                        day=day,
                        stranger=event.stranger,
                        via_friend=event.via_friend,
                    )
                )
        moved.sort(key=lambda event: event.day)  # stable: preserves order
        return CrawlSimulation(
            owner=crawl.owner,
            events=tuple(moved),
            days=crawl.days,
            total_strangers=crawl.total_strangers,
        )


class FlakyOracle:
    """Oracle decorator injecting timeouts and abstentions.

    Each query rolls once against the injector's stream: timeout first,
    abstention next, honest answer otherwise.  Retried queries roll again
    — a stranger who timed out may answer on the next attempt, and may
    also abstain.
    """

    def __init__(self, inner: LabelOracle, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def label(self, query: LabelQuery) -> RiskLabel:
        """Answer, or raise the injected fault for this draw."""
        plan = self._injector.plan
        roll = self._injector.draw()
        if roll < plan.oracle_timeout_rate:
            raise OracleTimeoutError(
                f"oracle timed out for stranger {query.stranger}",
                stranger=query.stranger,
            )
        if roll < plan.oracle_timeout_rate + plan.oracle_abstain_rate:
            raise OracleAbstainError(
                f"owner abstained on stranger {query.stranger}",
                stranger=query.stranger,
            )
        return _validate_label(self._inner.label(query), query.stranger)

    def label_or_abstain(self, query: LabelQuery) -> RiskLabel | None:
        """Like :meth:`label`, mapping abstention to ``None``."""
        try:
            return self.label(query)
        except OracleAbstainError:
            return None


class FlakyProfileSource:
    """Profile source decorator: outages of the data layer.

    Unreachable users fail permanently; other fetches fail transiently at
    the plan's rate and otherwise return the (possibly degraded) profile.
    """

    def __init__(self, injector: FaultInjector, inner=None) -> None:
        self._injector = injector
        self._inner = inner

    def fetch_one(self, graph: SocialGraph, user_id: UserId) -> Profile:
        """Fetch one profile through the fault plan."""
        if self._injector.is_unreachable(user_id):
            raise UnreachableUserError(
                f"user {user_id} is gone (deleted or blocked)",
                user_id=user_id,
            )
        plan = self._injector.plan
        if plan.fetch_failure_rate and self._injector.draw() < plan.fetch_failure_rate:
            raise TransientFetchError(
                f"transient failure fetching user {user_id}", user_id=user_id
            )
        if self._inner is not None:
            profile = self._inner.fetch_one(graph, user_id)
        else:
            profile = graph.profile(user_id)
        return self._injector.degrade_profile(profile)


# ---------------------------------------------------------------------------
# service-level faults (durability layer)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceFaultPlan:
    """Disk- and crash-level faults aimed at the serving durability layer.

    Where :class:`FaultPlan` models a flaky *world* (oracle, fetches,
    crawler), this plan models a flaky *machine*: the write-ahead log's
    fsync can fail, the disk can be slow, a record can be torn mid-write
    by a power cut, and the whole process can die at a chosen mutation.
    The crash points are deterministic (Nth mutation, not a rate) so a
    chaos harness can kill the service at every interesting boundary and
    assert recovery byte-for-byte.
    """

    fsync_failure_rate: float = 0.0
    slow_disk_seconds: float = 0.0
    torn_write_at_mutation: int | None = None
    crash_at_mutation: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fsync_failure_rate <= 1.0:
            raise ConfigError(
                "fsync_failure_rate must lie in [0, 1], "
                f"got {self.fsync_failure_rate}"
            )
        if self.slow_disk_seconds < 0:
            raise ConfigError(
                f"slow_disk_seconds must be >= 0, got {self.slow_disk_seconds}"
            )
        for name in ("torn_write_at_mutation", "crash_at_mutation"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    @property
    def injects_anything(self) -> bool:
        """Whether any service-level fault is active."""
        return bool(
            self.fsync_failure_rate
            or self.slow_disk_seconds
            or self.torn_write_at_mutation is not None
            or self.crash_at_mutation is not None
        )


class ServiceFaultInjector:
    """Deterministic producer of the faults in a :class:`ServiceFaultPlan`.

    The write-ahead log calls the three hooks at its commit boundaries:

    * :meth:`mangle_record` — may tear the Nth record (keep only half
      the encoded bytes) and arm an immediate crash, modeling a power
      cut mid-write;
    * :meth:`before_fsync` — may sleep (slow disk) and may raise
      :class:`OSError` (fsync failure) from a seeded stream;
    * :meth:`after_commit` — may kill the process right after the Nth
      mutation reached disk but *before* it was acknowledged.

    ``crash`` is injectable for in-process tests; the default
    ``os._exit`` is deliberate — a real crash must skip ``finally``
    blocks, atexit hooks, and buffered writes, exactly like ``kill -9``.
    """

    def __init__(
        self,
        plan: ServiceFaultPlan,
        seed: int | str = 0,
        *,
        sleeper: Callable[[float], None] = time.sleep,
        crash: Callable[[int], None] = os._exit,
    ) -> None:
        self._plan = plan
        self._rng = random.Random(f"service-fault-injector:{seed}")
        self._sleeper = sleeper
        self._crash = crash
        self._crash_pending = False

    @property
    def plan(self) -> ServiceFaultPlan:
        """The active service fault plan."""
        return self._plan

    def mangle_record(self, mutation_index: int, line: bytes) -> bytes:
        """Possibly tear the encoded record for this mutation."""
        if mutation_index == self._plan.torn_write_at_mutation:
            self._crash_pending = True
            return line[: max(1, len(line) // 2)]
        return line

    def after_write(self, mutation_index: int) -> None:
        """Crash now if :meth:`mangle_record` tore this record."""
        if self._crash_pending:
            self._crash(23)

    def before_fsync(self) -> None:
        """Model the disk: maybe slow, maybe failing to sync."""
        if self._plan.slow_disk_seconds:
            self._sleeper(self._plan.slow_disk_seconds)
        if (
            self._plan.fsync_failure_rate
            and self._rng.random() < self._plan.fsync_failure_rate
        ):
            raise OSError("injected fsync failure (disk said no)")

    def after_commit(self, mutation_index: int) -> None:
        """Crash after the Nth mutation is durable but unacknowledged."""
        if mutation_index == self._plan.crash_at_mutation:
            self._crash(24)


__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FlakyOracle",
    "FlakyProfileSource",
    "OutageWindow",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
]
