"""The per-pool active-learning loop (Sections III-B to III-D).

One :class:`PoolLearner` drives one pool ``P`` of Definition 3:

* each round it samples ``labels_per_round`` unlabeled strangers and asks
  the oracle (the owner) for their risk labels;
* strangers that already had a prediction from the previous round yield
  validation pairs, giving the round's RMSE (Definition 4);
* the classifier then re-predicts every remaining unlabeled stranger;
* classification change against the previous round's predictions feeds the
  stabilization criterion (Definition 5);
* the loop stops when the combined condition of Section III-D holds, the
  pool is exhausted, or the round budget runs out.
"""

from __future__ import annotations

import random
from typing import Mapping

from ..classifier.base import PoolClassifier, PoolPredictions
from ..config import LearningConfig
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    LearningError,
    OracleTimeoutError,
    RetryExhaustedError,
)
from ..types import RiskLabel, UserId
from .accuracy import root_mean_square_error
from .oracle import LabelOracle, LabelQuery, label_or_abstain
from .results import PoolResult, RoundRecord
from .sampling import RandomSampler, Sampler
from .stabilization import unstabilized_strangers
from .stopping import StoppingCondition, StopReason


class PoolLearner:
    """Active learner for one stranger pool.

    Parameters
    ----------
    pool_id, nsg_index:
        Identity of the pool (propagated into the result).
    members:
        The pool's strangers.
    classifier:
        A :class:`~repro.classifier.base.PoolClassifier` bound to the
        pool's similarity graph.
    oracle:
        The owner (or a simulation thereof).
    config:
        Loop parameters (labels per round, thresholds, confidence, caps).
    similarities, benefits:
        Per-stranger ``NS`` and ``B`` values shown to the owner in each
        query; strangers missing from either mapping default to 0.
    names:
        Optional display names for queries.
    sampler:
        In-pool sampling strategy; defaults to the paper's random sampler.
    rng:
        Source of randomness (seed it for reproducible runs).
    initial_labels:
        Owner labels already known for some members (e.g. from a previous
        session on a smaller stranger set).  They seed the labeled set
        without any oracle queries — the warm start of incremental
        re-learning.
    """

    def __init__(
        self,
        pool_id: str,
        nsg_index: int,
        members: tuple[UserId, ...],
        classifier: PoolClassifier,
        oracle: LabelOracle,
        config: LearningConfig | None = None,
        similarities: Mapping[UserId, float] | None = None,
        benefits: Mapping[UserId, float] | None = None,
        names: Mapping[UserId, str] | None = None,
        sampler: Sampler | None = None,
        rng: random.Random | None = None,
        initial_labels: Mapping[UserId, RiskLabel] | None = None,
    ) -> None:
        if not members:
            raise LearningError(f"pool {pool_id} has no members")
        self._pool_id = pool_id
        self._nsg_index = nsg_index
        self._members = tuple(members)
        self._classifier = classifier
        self._oracle = oracle
        self._config = config or LearningConfig()
        self._similarities = dict(similarities or {})
        self._benefits = dict(benefits or {})
        self._names = dict(names or {})
        self._sampler = sampler or RandomSampler()
        self._rng = rng or random.Random(self._config.seed)
        member_set = set(self._members)
        self._initial_labels = {
            stranger: label
            for stranger, label in (initial_labels or {}).items()
            if stranger in member_set
        }

    def run(self) -> PoolResult:
        """Execute the loop until a stopping condition fires."""
        unlabeled: set[UserId] = set(self._members) - set(self._initial_labels)
        labeled: dict[UserId, RiskLabel] = dict(self._initial_labels)
        unreachable: set[UserId] = set()
        if labeled and not unlabeled:
            # everything already known: nothing to learn
            return PoolResult(
                pool_id=self._pool_id,
                nsg_index=self._nsg_index,
                rounds=(),
                owner_labels=labeled,
                predicted_labels={},
                stop_reason=StopReason.EXHAUSTED,
            )
        rounds: list[RoundRecord] = []
        stopping = StoppingCondition(self._config)
        stop_reason = StopReason.MAX_ROUNDS
        # the last prediction round's result and its record's two dicts
        previous: PoolPredictions | None = None
        previous_scores: dict[UserId, float] = {}
        previous_labels: dict[UserId, RiskLabel] = {}

        for round_index in range(1, self._config.max_rounds + 1):
            queried, answers, abstained, newly_unreachable = self._query_round(
                unlabeled, previous
            )
            unreachable.update(newly_unreachable)
            validation_pairs = tuple(
                (int(previous_labels[stranger]), int(answers[stranger]))
                for stranger in queried
                if stranger in previous_labels
            )
            rmse = (
                root_mean_square_error(validation_pairs)
                if validation_pairs
                else None
            )
            labeled.update(answers)
            unlabeled.difference_update(queried)
            unlabeled.difference_update(newly_unreachable)

            if not unlabeled or not labeled:
                # The pool is exhausted, or every query so far abstained or
                # failed and there is nothing to fit yet (a barren round:
                # sample again).
                exhausted = not unlabeled
                rounds.append(
                    RoundRecord(
                        round_index=round_index,
                        queried=tuple(queried),
                        answers=answers,
                        validation_pairs=validation_pairs,
                        rmse=rmse,
                        predicted_scores={},
                        predicted_labels={},
                        unstabilized=frozenset(),
                        stabilized=exhausted,
                        abstained=abstained,
                    )
                )
                if not exhausted:
                    continue
                stop_reason = StopReason.EXHAUSTED
                # Owner-labeled strangers need no prediction; unreachable
                # ones keep their last prediction (degraded, not absent).
                previous_labels = {
                    stranger: label
                    for stranger, label in previous_labels.items()
                    if stranger in unreachable
                }
                break

            predictions = self._classifier.predict(labeled)
            current_scores = predictions.score_map()
            if previous:
                unstable = unstabilized_strangers(
                    previous_scores, current_scores, self._config.confidence
                )
                stabilized = not unstable
            else:
                # First prediction round: every label is brand new, so the
                # pool cannot be considered stable yet.
                unstable = frozenset(predictions.nodes)
                stabilized = False

            should_stop = stopping.observe(rmse, stabilized)
            previous = predictions
            previous_scores = current_scores
            previous_labels = predictions.label_map()
            rounds.append(
                RoundRecord(
                    round_index=round_index,
                    queried=tuple(queried),
                    answers=answers,
                    validation_pairs=validation_pairs,
                    rmse=rmse,
                    predicted_scores=current_scores,
                    predicted_labels=previous_labels,
                    unstabilized=unstable,
                    stabilized=stabilized,
                    abstained=abstained,
                )
            )
            if should_stop:
                stop_reason = StopReason.CONVERGED
                break

        return PoolResult(
            pool_id=self._pool_id,
            nsg_index=self._nsg_index,
            rounds=tuple(rounds),
            owner_labels=labeled,
            predicted_labels=dict(previous_labels),
            stop_reason=stop_reason,
            unreachable=frozenset(unreachable),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _query_round(
        self,
        unlabeled: set[UserId],
        previous: PoolPredictions | None,
    ) -> tuple[tuple[UserId, ...], dict[UserId, RiskLabel], tuple[UserId, ...], set[UserId]]:
        """Gather one round's answers, resampling around faults.

        Abstentions and dead strangers do not consume the round's label
        quota: replacements are drawn until the quota is met or the pool
        runs out of candidates.  Abstainers stay unlabeled (the owner may
        answer in a later round); strangers whose oracle path failed for
        good are dropped from the loop and reported as unreachable.
        With a fault-free oracle this reduces to the paper's single
        random draw per round.
        """
        answered: list[UserId] = []
        answers: dict[UserId, RiskLabel] = {}
        abstained: list[UserId] = []
        unreachable: set[UserId] = set()
        candidates = set(unlabeled)
        quota = self._config.labels_per_round
        while candidates and len(answered) < quota:
            batch = self._sampler.select(
                sorted(candidates),
                quota - len(answered),
                self._rng,
                previous,
            )
            if not batch:
                break
            for stranger in batch:
                candidates.discard(stranger)
                outcome, label = self._ask(stranger)
                if outcome == "ok":
                    answered.append(stranger)
                    answers[stranger] = label
                elif outcome == "abstain":
                    abstained.append(stranger)
                else:
                    unreachable.add(stranger)
        return tuple(answered), answers, tuple(abstained), unreachable

    def _ask(self, stranger: UserId) -> tuple[str, RiskLabel | None]:
        """One oracle exchange: ``("ok" | "abstain" | "unreachable", label)``.

        Permanent failures of the resilience layer (retries exhausted,
        circuit open, deadline blown) and unretried timeouts mark the
        stranger unreachable; wrap the oracle in
        :class:`~repro.resilience.ResilientOracle` to absorb transient
        timeouts before they land here.
        """
        query = LabelQuery(
            stranger=stranger,
            similarity=self._similarities.get(stranger, 0.0),
            benefit=self._benefits.get(stranger, 0.0),
            stranger_name=self._names.get(stranger),
        )
        try:
            label = label_or_abstain(self._oracle, query)
        except (
            RetryExhaustedError,
            CircuitOpenError,
            DeadlineExceededError,
            OracleTimeoutError,
        ):
            return "unreachable", None
        if label is None:
            return "abstain", None
        return "ok", label
