"""The one session driver: cold runs, resumes and warm replays.

:func:`replay_session` runs the paper's Figure 1 pipeline — ``NS()`` per
stranger, the benefit ``B(o, s)``, the pools of Definitions 1–3, one
active-learning loop per pool — for every caller: the study and
:meth:`RiskLearningSession.run
<repro.learning.session.RiskLearningSession.run>`, a checkpointed run
resuming after a kill, and the engine's cold and warm scores.  They
differ only in what they pass in.

The paper's motivation for active learning is the *dynamic* graph —
"stranger connections might change very fast ... it is preferable to
select the training set on the fly" (Section III).  Given the stage
outputs of a previous run (:class:`SessionReplayState`) and the dirty
delta of the mutations since (:class:`~repro.service.dirty.DirtyDelta`),
the driver reproduces — byte for byte — what a run from scratch on the
current graph computes, while only paying for what the delta touched:

* ``NS(o, s)`` is recomputed only for dirty strangers (the batch bitset
  kernel over the touched rows); every other similarity is replayed
  from the state.
* Benefits are recomputed only for strangers whose profile changed
  (``B(o, s)`` reads nothing but the stranger's own profile).
* NS binning always re-runs (linear, cheap), but Squeezer re-clusters
  only the groups whose membership or member profiles moved
  (:func:`~repro.clustering.pools.build_pools_cached`).
* Each pool's learning loop re-runs only when its *inputs* changed.
  Every pool samples from its own RNG, derived from the session seed
  and the pool id (:func:`~repro.learning.session.pool_rng`), and the
  oracle is a deterministic ground-truth lookup, so a pool's outcome is
  a pure function of its fingerprint — id, members, their
  similarities, benefits, and profiles.  A recorded pool whose
  fingerprint matches is taken verbatim; a changed pool re-runs without
  touching any other.
* Re-run pools with unchanged profiles reuse their similarity graph and
  classifier through the state's classifier memo.

**Reuse rule.**  Prior stages are reused only when a prior state and a
dirty delta are both given, the session carries none of the
:data:`~repro.learning.session.REPLAY_UNSAFE_KWARGS` hooks, and the call
passes no ``strangers=`` subset, no ``initial_labels=`` and no
checkpointer.  Otherwise the prior is empty and every stage recomputes
every row.  Because reuse is gated on *recomputed-input equality*, not
on the dirty sets alone, conservative (superset) deltas cost extra
recomputation but can never change the result — the substrate of the
engine's digest-equivalence guarantee, property-tested by the stateful
mutate/score suite.

A checkpoint is one more source of completed pools: their saved
results are taken as they are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping

from ..clustering.pools import (
    PooledGroup,
    StrangerPool,
    build_network_only_pools,
    build_pools_cached,
)
from ..errors import LearningError
from ..types import RiskLabel, UserId
from .results import PoolResult, SessionResult
from .session import RiskLearningSession


@dataclass
class PoolRecord:
    """One completed pool: its inputs and outcome."""

    fingerprint: tuple
    result: PoolResult


@dataclass
class SessionReplayState:
    """Everything a later replay can reuse from one session run."""

    similarities: dict[UserId, float] = field(default_factory=dict)
    benefits: dict[UserId, float] = field(default_factory=dict)
    groups: dict[int, PooledGroup] = field(default_factory=dict)
    pools: dict[str, PoolRecord] = field(default_factory=dict)
    #: ``pool_id -> (profiles, classifier)`` — the memo carrying each
    #: pool's similarity graph and classifier across runs.
    classifiers: dict[str, tuple] = field(default_factory=dict)


@dataclass
class ReplayStats:
    """Delta accounting of one replay, for ``/metrics``."""

    full_run: bool = False
    ns_reused: int = 0
    ns_recomputed: int = 0
    benefits_reused: int = 0
    benefits_recomputed: int = 0
    groups_reused: int = 0
    groups_total: int = 0
    pools_reused: int = 0
    pools_rerun: int = 0

    def to_dict(self) -> dict[str, int | bool]:
        """The JSON-shaped form merged into the ``incremental`` block."""
        return asdict(self)


@dataclass
class ReplayOutcome:
    """A driven session: the result, its stage outputs, bookkeeping.

    ``reused_labels`` counts the owner labels of pools replayed from the
    prior state (no new oracle query was asked for them).
    """

    result: SessionResult
    state: SessionReplayState
    stats: ReplayStats
    reused_labels: int


def replay_session(
    session: RiskLearningSession,
    state: SessionReplayState | None = None,
    dirty=None,
    *,
    strangers: frozenset[UserId] | set[UserId] | None = None,
    initial_labels: Mapping[UserId, RiskLabel] | None = None,
    checkpointer=None,
) -> ReplayOutcome:
    """Run one owner's session, reusing what the reuse rule allows.

    ``state`` is a previous run's :class:`SessionReplayState` and
    ``dirty`` the merged :class:`~repro.service.dirty.DirtyDelta`
    covering every mutation since; ``strangers``, ``initial_labels``
    and ``checkpointer`` are the study inputs of
    :meth:`~repro.learning.session.RiskLearningSession.run`.  The
    returned result is byte-identical to a run from scratch with the
    same study inputs on the current graph.

    Raises
    ------
    LearningError
        If the owner has no strangers (nothing to learn about), or the
        subset contains non-strangers.
    """
    ego_strangers = session.ego.strangers
    if strangers is None:
        target = ego_strangers
    else:
        unknown = set(strangers) - ego_strangers
        if unknown:
            raise LearningError(
                f"not strangers of owner {session.ego.owner}: "
                f"{sorted(unknown)[:5]}"
            )
        target = frozenset(strangers)
    if not target:
        raise LearningError(
            f"owner {session.ego.owner} has no strangers; nothing to learn"
        )
    reuse = (
        state is not None
        and dirty is not None
        and not session.hooked
        and strangers is None
        and initial_labels is None
        and checkpointer is None
    )
    prior = state if reuse else SessionReplayState()
    stats = ReplayStats()

    # --- per-stranger stages: recompute only the rows the delta staled
    # (``dirty`` is read only for rows the prior holds, i.e. on reuse)
    similarities, stats.ns_recomputed = _refresh_rows(
        target,
        prior.similarities,
        lambda s: dirty.stales_ns(s),
        session.compute_similarities,
    )
    stats.ns_reused = len(target) - stats.ns_recomputed
    benefits, stats.benefits_recomputed = _refresh_rows(
        target,
        prior.benefits,
        lambda s: dirty.stales_profile(s),
        session.compute_benefits,
    )
    stats.benefits_reused = len(target) - stats.benefits_recomputed

    # --- pooling: re-bin everything, re-Squeeze only moved groups -----
    profiles = session.ego.stranger_profiles()
    if session.pooling == "nsp":
        pools = build_network_only_pools(similarities, session.config.pooling)
        groups: dict[int, PooledGroup] = {}
        stats.groups_total = len(pools)
    else:
        pools, groups, stats.groups_reused = build_pools_cached(
            similarities, profiles, session.config.pooling, prior.groups
        )
        stats.groups_total = len(groups)

    # --- pool loops: take restored and matching pools, run the rest --
    restored = checkpointer.load() if checkpointer is not None else {}
    pool_results: list[PoolResult] = []
    records: dict[str, PoolRecord] = {}
    reused_labels = 0
    for pool in pools:
        if pool.pool_id in restored:
            pool_results.append(restored[pool.pool_id])
            stats.pools_reused += 1
            continue
        fingerprint = _pool_fingerprint(pool, similarities, benefits, profiles)
        record = prior.pools.get(pool.pool_id)
        if record is not None and record.fingerprint == fingerprint:
            reused_labels += record.result.labels_requested
            stats.pools_reused += 1
        else:
            result = session._run_pool(
                pool, similarities, benefits, initial_labels, prior.classifiers
            )
            record = PoolRecord(fingerprint, result)
            stats.pools_rerun += 1
            if checkpointer is not None:
                checkpointer.record(result)
        records[pool.pool_id] = record
        pool_results.append(record.result)
    stats.full_run = stats.pools_reused == 0

    return ReplayOutcome(
        result=SessionResult(
            owner=session.ego.owner,
            pool_results=tuple(pool_results),
            confidence=session.config.learning.confidence,
        ),
        state=SessionReplayState(
            similarities=similarities,
            benefits=benefits,
            groups=groups,
            pools=records,
            classifiers=prior.classifiers,
        ),
        stats=stats,
        reused_labels=reused_labels,
    )


def _refresh_rows(
    target: frozenset[UserId],
    prior_rows: Mapping[UserId, float],
    stale: Callable[[UserId], bool],
    compute: Callable[[frozenset[UserId]], dict[UserId, float]],
) -> tuple[dict[UserId, float], int]:
    """One per-stranger stage: prior rows the delta left alone, plus
    ``compute`` over the rest; returns the rows and the recomputed count.

    With no reusable row ``compute`` gets ``target`` itself, so a run
    from scratch yields its rows in the order the stage's own batch
    does.
    """
    dirty_rows = frozenset(
        s for s in target if s not in prior_rows or stale(s)
    )
    rows = {s: prior_rows[s] for s in target if s not in dirty_rows}
    if dirty_rows:
        rows.update(compute(dirty_rows if rows else target))
    return rows, len(dirty_rows)


def _pool_fingerprint(
    pool: StrangerPool,
    similarities: Mapping[UserId, float],
    benefits: Mapping[UserId, float],
    profiles: Mapping[UserId, Any],
) -> tuple:
    """Everything a pool's outcome depends on.

    The id seeds the pool's RNG, members fix the candidate set,
    similarities/benefits feed every oracle query's metadata and the
    sampling order, and profiles drive the classifier's edge weights,
    Squeezer attributes, and display names.  Ground truth is
    deliberately absent: an existing stranger's judgment never changes
    (lazy judgments only *add* entries for newly visible users), and the
    set of members actually queried is a pure function of the
    fingerprint.
    """
    return (
        pool.pool_id,
        pool.members,
        tuple(similarities[m] for m in pool.members),
        tuple(benefits[m] for m in pool.members),
        tuple(profiles[m] for m in pool.members),
    )


__all__ = [
    "PoolRecord",
    "ReplayOutcome",
    "ReplayStats",
    "SessionReplayState",
    "replay_session",
]
