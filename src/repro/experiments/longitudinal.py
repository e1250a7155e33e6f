"""Longitudinal deployment: the Sight story, end to end.

The paper's app ran for two months: strangers surfaced progressively
through friend interactions, and "the user can start to label and learn
about the risk since the first day".  :func:`run_longitudinal` replays
that deployment for one owner:

1. the crawl simulator produces a discovery timeline;
2. at each checkpoint, an **incremental** session runs over the
   strangers known so far, reusing every previously gathered label;
3. per checkpoint we record coverage, owner effort, and (for simulated
   owners) agreement with the full judgment.

The expected shape — asserted by the E25 benchmark — is the paper's
pitch: weekly question cost *decreases* as the label base grows, while
coverage rises and agreement holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..graph.ego import EgoNetwork
from ..learning.incremental import continue_session
from ..learning.oracle import LabelOracle, RecordingOracle
from ..learning.results import SessionResult
from ..learning.session import RiskLearningSession
from ..synth.crawler import simulate_sight_crawl
from ..types import RiskLabel, UserId


@dataclass(frozen=True)
class Checkpoint:
    """State of the deployment at one crawl checkpoint."""

    day: int
    strangers_known: int
    coverage: float
    new_queries: int
    reused_labels: int
    agreement: float | None
    result: SessionResult


def run_longitudinal(
    graph,
    owner: UserId,
    oracle: LabelOracle,
    checkpoints: Sequence[int] = (7, 14, 28, 56),
    interactions_per_friend_per_day: float = 0.35,
    truth: Callable[[UserId], RiskLabel] | None = None,
    seed: int = 0,
) -> list[Checkpoint]:
    """Replay a Sight-style deployment for one owner.

    Parameters
    ----------
    graph, owner, oracle:
        As in :class:`~repro.learning.session.RiskLearningSession`.
    checkpoints:
        Crawl days at which to (re-)run learning; the last entry is the
        deployment length.
    interactions_per_friend_per_day:
        Crawl discovery rate.
    truth:
        Optional ground-truth lookup (stranger → label) for agreement
        measurement; omit for real owners.
    seed:
        Seeds both the crawl and the per-checkpoint sessions.
    """
    if not checkpoints or list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be a strictly increasing sequence")
    ego = EgoNetwork(graph, owner)
    crawl = simulate_sight_crawl(
        ego,
        days=checkpoints[-1],
        interactions_per_friend_per_day=interactions_per_friend_per_day,
        rng=random.Random(seed),
    )

    history: list[Checkpoint] = []
    previous: SessionResult | None = None
    for day in checkpoints:
        known = crawl.discovered_by(day)
        if not known:
            continue
        if previous is None:
            recorder = RecordingOracle(oracle)
            session = RiskLearningSession(graph, owner, recorder, seed=seed)
            result = session.run(strangers=known)
            new_queries = recorder.stats.queries
            reused = 0
        else:
            update = continue_session(
                graph, owner, oracle, previous, seed=seed + day,
                strangers=known,
            )
            result = update.result
            new_queries = update.new_queries
            reused = update.reused_labels

        agreement = None
        if truth is not None:
            final = result.final_labels()
            agreement = sum(
                1 for stranger, label in final.items()
                if label is truth(stranger)
            ) / len(final)
        history.append(
            Checkpoint(
                day=day,
                strangers_known=len(known),
                coverage=len(known) / max(len(ego.strangers), 1),
                new_queries=new_queries,
                reused_labels=reused,
                agreement=agreement,
                result=result,
            )
        )
        previous = result
    return history


def render_longitudinal(history: list[Checkpoint]) -> str:
    """A per-checkpoint text table of the deployment."""
    lines = [
        "Longitudinal deployment — crawl + incremental learning",
        f"{'day':>5}  {'known':>6}  {'coverage':>8}  {'new Qs':>6}  "
        f"{'reused':>6}  {'agreement':>9}",
    ]
    for checkpoint in history:
        agreement = (
            f"{checkpoint.agreement:.1%}"
            if checkpoint.agreement is not None
            else "-"
        )
        lines.append(
            f"{checkpoint.day:>5}  {checkpoint.strangers_known:>6}  "
            f"{checkpoint.coverage:>8.0%}  {checkpoint.new_queries:>6}  "
            f"{checkpoint.reused_labels:>6}  {agreement:>9}"
        )
    return "\n".join(lines)
