"""The default measure: the paper's stranger-risk pipeline.

A thin adapter putting the one session driver
(:func:`~repro.learning.replay.replay_session`) behind the
:class:`~repro.measures.base.RiskMeasure` contract, *byte-identically*:
every score builds the session from the same
:func:`~repro.experiments.plan_owner_session` the study uses (same
derived seed ``seed + index``), a warm re-score replays only what a
mutation touched and lands on the result a cold score would, and the
digest is :func:`repro.io.result_digest` of the
:class:`~repro.learning.results.SessionResult` — so every digest
recorded before the measure subsystem existed still matches.
"""

from __future__ import annotations

from typing import Any

from ..experiments.study import plan_owner_session
from ..io.serialization import result_digest, session_result_to_dict
from ..learning.replay import replay_session
from ..learning.results import SessionResult
from ..types import RiskLabel, UserId
from .base import IncrementalScore, MeasureRequest, MeasureScore, RiskMeasure
from .registry import register_measure


@register_measure("stranger")
class StrangerRiskMeasure(RiskMeasure):
    """Active-learning risk of the owner's 2-hop strangers (ICDE 2012)."""

    description = (
        "Active-learning stranger risk over the owner's 2-hop contacts "
        "(the paper's pipeline: NS pooling, owner labeling, "
        "label completion)"
    )

    def compute(self, request: MeasureRequest) -> MeasureScore:
        """Run the paper's scoring session from scratch."""
        return self.compute_incremental(request).score

    def compute_incremental(
        self, request: MeasureRequest, state=None, dirty=None
    ) -> IncrementalScore:
        """Cold-identical score at delta cost (see :mod:`..learning.replay`).

        With ``state=None`` this is a full run that *builds* the replay
        state; otherwise only what ``dirty`` touched is recomputed.
        Either way the result — and therefore the digest — is the one a
        cold :meth:`compute` would produce on the current graph.
        """
        session = plan_owner_session(
            request.owner,
            request.index,
            pooling=request.pooling,  # type: ignore[arg-type]
            classifier=request.classifier,
            config=request.config,
            seed=request.seed,
            use_owner_confidence=request.use_owner_confidence,
        ).build_session(request.graph)
        outcome = replay_session(session, state, dirty)
        result = outcome.result
        score = MeasureScore(
            result=result,
            digest=result_digest(result),
            reused_labels=outcome.reused_labels,
            new_queries=result.labels_requested - outcome.reused_labels,
        )
        return IncrementalScore(
            score=score,
            state=outcome.state,
            stats=outcome.stats.to_dict(),
        )

    def digest(self, result: SessionResult) -> str:
        """The service's historical session digest (``repro.io``)."""
        return result_digest(result)

    def describe(self, result: SessionResult) -> dict[str, Any]:
        """Final labels plus the full session payload, JSON-ready."""
        return {
            "labels": {
                str(stranger): int(label)
                for stranger, label in sorted(result.final_labels().items())
            },
            "session": session_result_to_dict(result),
        }

    def granted_labels(
        self, result: SessionResult
    ) -> dict[UserId, RiskLabel]:
        """Oracle labels the owner granted, persisted on the store."""
        return {
            stranger: label
            for pool in result.pool_results
            for stranger, label in pool.owner_labels.items()
        }


__all__ = ["StrangerRiskMeasure"]
