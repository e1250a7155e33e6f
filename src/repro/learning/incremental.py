"""Incremental re-learning on a changed social graph.

The paper motivates active learning with the *dynamic* nature of the
owner's graph: "stranger connections might change very fast ... it is not
efficient to adopt a pre-defined and fixed training set.  Rather, it is
preferable to select the training set on the fly so that changes in the
social graph are immediately reflected" (Section III).

:func:`continue_session` is that workflow across snapshots: given the
result of a previous session and the current (grown or rewired) graph, it
re-runs the pipeline while

* reusing every owner label already gathered (the oracle — a consistent
  human — would repeat them anyway, so they seed the pools for free), and
* re-pooling from scratch, because new strangers and new edges can move
  existing strangers between similarity groups.

The savings are measured by :class:`IncrementalResult`: new oracle
queries versus what a cold re-run would have cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.social_graph import SocialGraph
from ..types import RiskLabel, UserId
from .oracle import LabelOracle, RecordingOracle
from .results import SessionResult
from .session import RiskLearningSession


def gathered_labels(result: SessionResult) -> dict[UserId, RiskLabel]:
    """Every owner-given label in a session result."""
    labels: dict[UserId, RiskLabel] = {}
    for pool in result.pool_results:
        labels.update(pool.owner_labels)
    return labels


@dataclass(frozen=True)
class IncrementalResult:
    """Outcome of an incremental update."""

    result: SessionResult
    reused_labels: int
    new_queries: int

    @property
    def total_known_labels(self) -> int:
        """Labels available after the update (reused + new)."""
        return self.reused_labels + self.new_queries


def continue_session(
    graph: SocialGraph,
    owner: UserId,
    oracle: LabelOracle,
    previous: SessionResult,
    seed: int | None = None,
    strangers: frozenset[UserId] | set[UserId] | None = None,
    **session_kwargs,
) -> IncrementalResult:
    """Update risk labels after the owner's graph changed.

    Parameters
    ----------
    graph:
        The *current* social graph (new strangers, new edges).
    owner, oracle:
        As in :class:`~repro.learning.session.RiskLearningSession`.
    previous:
        The result of the last session; its owner labels are reused for
        strangers that are still 2-hop contacts.
    strangers:
        Optional restriction to a subset of the current stranger set —
        e.g. the prefix a crawler has discovered so far.
    session_kwargs:
        Forwarded to the session constructor (config, classifier, ...).

    Returns
    -------
    IncrementalResult
        The fresh session result plus the query-savings accounting.
    """
    recorder = RecordingOracle(oracle)
    session = RiskLearningSession(
        graph, owner, recorder, seed=seed, **session_kwargs
    )
    target = session.ego.strangers if strangers is None else frozenset(strangers)
    old_labels = gathered_labels(previous)
    # strangers that left the 2-hop set (e.g. became friends) drop out
    still_strangers = {
        stranger: label
        for stranger, label in old_labels.items()
        if stranger in target and stranger in session.ego.strangers
    }
    result = session.run(strangers=target, initial_labels=still_strangers)
    return IncrementalResult(
        result=result,
        reused_labels=len(still_strangers),
        new_queries=recorder.stats.queries,
    )
