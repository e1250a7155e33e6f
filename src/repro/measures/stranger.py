"""The default measure: the paper's stranger-risk pipeline.

A thin adapter putting the existing cold/warm scoring paths behind the
:class:`~repro.measures.base.RiskMeasure` contract, *byte-identically*:
cold scores run the exact :func:`~repro.experiments.plan_owner_session`
→ ``build_session().run()`` sequence the engine always ran (same derived
seed ``seed + index``), warm re-scores replay only what a mutation
touched (:mod:`repro.learning.replay`) and land on the same result, and
the digest is :func:`repro.io.result_digest` of the
:class:`~repro.learning.results.SessionResult` — so every digest
recorded before the measure subsystem existed still matches.
"""

from __future__ import annotations

from typing import Any

from ..experiments.study import plan_owner_session
from ..io.serialization import result_digest, session_result_to_dict
from ..learning.replay import replay_session, replay_supported
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
    #: An ego session only touches the owner's universe subgraph, so the
    #: measure runs on worker processes digest-identically.
    remote_safe = True
    #: Cold-identical delta replay via :mod:`repro.learning.replay`.
    supports_incremental = True

    def compute(self, request: MeasureRequest) -> MeasureScore:
        """Run the paper's scoring session from scratch."""
        plan = plan_owner_session(
            request.owner,
            request.index,
            pooling=request.pooling,  # type: ignore[arg-type]
            classifier=request.classifier,
            config=request.config,
            seed=request.seed,
            use_owner_confidence=request.use_owner_confidence,
            fault_plan=request.fault_plan,
            retry_policy=request.retry_policy,
        )
        result = plan.build_session(request.graph).run()
        return MeasureScore(
            result=result,
            digest=result_digest(result),
            reused_labels=0,
            new_queries=result.labels_requested,
        )

    def compute_incremental(
        self, request: MeasureRequest, state=None, dirty=None
    ) -> IncrementalScore:
        """Cold-identical score at delta cost (see :mod:`..learning.replay`).

        With ``state=None`` this is a full run that *builds* the replay
        state; otherwise only what ``dirty`` touched is recomputed.
        Either way the result — and therefore the digest — is the one a
        cold :meth:`compute` would produce on the current graph.  Plans
        carrying replay-unsafe hooks (fault injection) fall back to a
        plain cold run with no state.
        """
        plan = plan_owner_session(
            request.owner,
            request.index,
            pooling=request.pooling,  # type: ignore[arg-type]
            classifier=request.classifier,
            config=request.config,
            seed=request.seed,
            use_owner_confidence=request.use_owner_confidence,
            fault_plan=request.fault_plan,
            retry_policy=request.retry_policy,
        )
        if plan.injector is not None or not replay_supported(
            plan.session_kwargs
        ):
            return IncrementalScore(score=self.compute(request))
        outcome = replay_session(
            request.graph,
            plan.owner_id,
            plan.oracle,
            plan.seed,
            plan.session_kwargs,
            state,
            dirty,
        )
        if state is None:
            # Cold-run accounting parity with ``compute``: report the
            # session's own label tally rather than the recorder's.
            new_queries = outcome.result.labels_requested
        else:
            new_queries = outcome.new_queries
        score = MeasureScore(
            result=outcome.result,
            digest=result_digest(outcome.result),
            reused_labels=outcome.reused_labels if state is not None else 0,
            new_queries=new_queries,
        )
        return IncrementalScore(
            score=score, state=outcome.state, stats=outcome.stats.to_dict()
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
