"""Foundation of the pluggable risk-measure subsystem.

The ICDE-2012 paper answers one question — how risky are an owner's
*strangers* — but the related literature asks adjacent ones over the
same graph + profile substrate: how risky would a *candidate friend* be
(Akcora et al., arXiv:1210.3234), and how *identifying* is an owner's
neighborhood structure (Romanini et al., arXiv:2009.09973).  A
:class:`RiskMeasure` packages one such question as a pluggable scorer
behind the :class:`~repro.service.RiskEngine` seam:

* :class:`MeasureRequest` — everything a measure may consult: the graph,
  the owner (with attitude/thetas/ground truth), the owner's cohort
  index, and the study parameters.  The request is measure-agnostic so
  the engine, the worker pool, and the CLI build it identically.
* :class:`MeasureScore` — what a measure returns: an opaque result, its
  deterministic digest, and label accounting.
* :class:`RiskMeasure` — the contract: ``compute`` (a cold score),
  ``compute_incremental`` (optional cold-identical delta re-score),
  ``digest`` (recompute the canonical
  digest of a result), ``describe``
  (the measure-specific JSON blocks of a ``/score`` response), and
  ``granted_labels`` (oracle labels to persist through the store).

**Digest contract.**  A measure's digest must be a pure function of the
result and byte-identical wherever the result is computed: inline
or on any shard of a sharded deployment (shards hold full graph copies and owners keep
their global cohort indices, so seeds and cohorts agree).
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from ..config import PipelineConfig
from ..graph.social_graph import SocialGraph
from ..synth.owners import SimulatedOwner
from ..types import RiskLabel, UserId

#: The measure served when a request names none: the paper's own
#: stranger-risk pipeline.
DEFAULT_MEASURE = "stranger"


def canonical_digest(payload: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of ``payload``.

    Same canonical form as :func:`repro.io.result_digest` (sorted keys,
    compact separators), so every measure's digest is comparable
    machinery-wise even though the payloads differ per measure.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MeasureRequest:
    """One scoring request, measure-agnostic.

    ``seed`` is the *study* base seed; measures that need randomness
    must derive their streams from ``seed + index`` (the per-owner
    session seed), exactly as :func:`repro.experiments.plan_owner_session`
    does, so cohort position — not registration order — fixes the
    stream.  ``fault_plan``/``retry_policy`` only matter to measures
    that drive the resilient oracle loop.
    """

    graph: SocialGraph
    owner: SimulatedOwner
    index: int
    pooling: str = "npp"
    classifier: str = "harmonic"
    config: PipelineConfig | None = None
    seed: int = 0
    use_owner_confidence: bool = True
    fault_plan: Any = None
    retry_policy: Any = None


@dataclass(frozen=True)
class MeasureScore:
    """A measure's answer: the result plus digest and label accounting."""

    result: Any
    digest: str
    reused_labels: int = 0
    new_queries: int = 0


@dataclass(frozen=True)
class IncrementalScore:
    """An incremental measure's answer: score, carry-over state, stats.

    ``state`` is opaque to the engine — it is handed back verbatim on
    the next incremental call for the same ``(owner, measure)``.
    ``stats`` is a JSON-ready dict of delta accounting (what was reused
    vs recomputed), surfaced in ``/metrics``.
    """

    score: MeasureScore
    state: Any = None
    stats: Mapping[str, Any] | None = None


class RiskMeasure(abc.ABC):
    """Contract of one pluggable risk scorer.

    Subclasses are registered with
    :func:`repro.measures.registry.register_measure` and served under
    their registered name (``/score?measure=<name>``).  Instances are
    stateless singletons: all per-request state lives in the
    :class:`MeasureRequest` and the returned result.
    """

    #: Registered name; assigned by the registry decorator.
    name: ClassVar[str] = ""
    #: One-line human description for the ``/measures`` endpoint.
    description: ClassVar[str] = ""
    #: Whether :meth:`compute_incremental` is implemented.  Incremental
    #: measures promise a hard contract: the incremental result (and its
    #: digest) is byte-identical to a cold :meth:`compute` on the same
    #: graph, for any conservative dirty delta.
    supports_incremental: ClassVar[bool] = False

    @abc.abstractmethod
    def compute(self, request: MeasureRequest) -> MeasureScore:
        """Score one owner from scratch.

        The engine also calls this to re-score a stale memo of a measure
        without :meth:`compute_incremental`.
        """

    def compute_incremental(
        self, request: MeasureRequest, state: Any = None, dirty: Any = None
    ) -> IncrementalScore:
        """Score one owner from a prior pipeline state plus a dirty delta.

        ``state`` is what the previous :class:`IncrementalScore` carried
        (``None`` = no usable state: run fully, but *build* state);
        ``dirty`` is the merged
        :class:`~repro.service.dirty.DirtyDelta` covering every store
        mutation between that state and the current graph, or ``None``
        when the gap is unknown (must be treated as full).  The returned
        score must be byte-identical to a cold :meth:`compute` on the
        current graph — the engine's equivalence gate enforces it.
        """
        raise NotImplementedError(
            f"measure {self.name!r} does not support incremental scoring"
        )

    @abc.abstractmethod
    def digest(self, result: Any) -> str:
        """Recompute the canonical digest of a result.

        Must equal the ``digest`` of the :class:`MeasureScore` that
        produced ``result``.
        """

    @abc.abstractmethod
    def describe(self, result: Any) -> dict[str, Any]:
        """The measure-specific JSON blocks of a ``/score`` response."""

    def granted_labels(self, result: Any) -> dict[UserId, RiskLabel]:
        """Oracle-granted labels to persist through the owner store.

        Only measures that interrogate the owner's oracle have any;
        the default is none.
        """
        del result
        return {}


__all__ = [
    "DEFAULT_MEASURE",
    "IncrementalScore",
    "MeasureRequest",
    "MeasureScore",
    "RiskMeasure",
    "canonical_digest",
]
