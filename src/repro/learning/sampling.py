"""Per-round stranger sampling inside a pool.

The paper's informativeness strategy lives in the *pool construction*
(similar strangers share a pool, so any member is representative); within a
pool, strangers "are randomly selected at each round" — that is
:class:`RandomSampler`.  :class:`UncertaintySampler` is an extension for
the ablation benches: it prefers strangers whose current predictions are
least confident, the classic pool-based uncertainty criterion from the
active-learning survey the paper cites (ref [15]).
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

from ..classifier.base import PoolPredictions
from ..errors import LearningError
from ..types import UserId


class Sampler(Protocol):
    """Strategy choosing which unlabeled strangers to query this round."""

    def select(
        self,
        unlabeled: Sequence[UserId],
        count: int,
        rng: random.Random,
        predictions: PoolPredictions | None,
    ) -> list[UserId]:  # pragma: no cover - protocol signature
        """Choose up to ``count`` strangers from ``unlabeled``."""
        ...


def _check_request(unlabeled: Sequence[UserId], count: int) -> None:
    if count < 1:
        raise LearningError(f"sample count must be >= 1, got {count}")
    if not unlabeled:
        raise LearningError("cannot sample from an empty unlabeled set")


class RandomSampler:
    """Uniform random sampling — the paper's in-pool strategy."""

    def select(
        self,
        unlabeled: Sequence[UserId],
        count: int,
        rng: random.Random,
        predictions: PoolPredictions | None = None,
    ) -> list[UserId]:
        """Pick up to ``count`` strangers uniformly at random."""
        _check_request(unlabeled, count)
        pool = sorted(unlabeled)  # determinism under a seeded rng
        take = min(count, len(pool))
        return rng.sample(pool, take)


class UncertaintySampler:
    """Least-confidence sampling (extension; not in the paper's pipeline).

    Strangers with the smallest top-class mass are queried first.  Before
    any prediction exists (round 1) it falls back to random sampling.
    """

    def __init__(self) -> None:
        self._fallback = RandomSampler()

    def select(
        self,
        unlabeled: Sequence[UserId],
        count: int,
        rng: random.Random,
        predictions: PoolPredictions | None = None,
    ) -> list[UserId]:
        """Pick the ``count`` least-confident strangers."""
        _check_request(unlabeled, count)
        if not predictions:
            return self._fallback.select(unlabeled, count, rng, predictions)

        confidence = dict(
            zip(predictions.nodes, predictions.masses.max(axis=1).tolist())
        )
        # a stranger never predicted ranks first: maximally interesting
        ranked = sorted(
            sorted(unlabeled), key=lambda stranger: confidence.get(stranger, -1.0)
        )
        return ranked[: min(count, len(ranked))]
