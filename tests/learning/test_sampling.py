"""Tests for in-pool samplers."""

import random

import pytest

from repro.classifier.base import PoolPredictions
from repro.errors import LearningError
from repro.learning.sampling import RandomSampler, UncertaintySampler


def predictions(confidences):
    """Predictions whose top-class mass is ``confidences[node]``."""
    rows = [
        [confidence, (1.0 - confidence) / 2, (1.0 - confidence) / 2]
        for confidence in confidences.values()
    ]
    return PoolPredictions.from_masses(list(confidences), rows)


class TestRandomSampler:
    def test_sample_size(self):
        sampler = RandomSampler()
        chosen = sampler.select(list(range(10)), 3, random.Random(0), None)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3

    def test_sample_clamped_to_population(self):
        sampler = RandomSampler()
        chosen = sampler.select([1, 2], 5, random.Random(0), None)
        assert sorted(chosen) == [1, 2]

    def test_deterministic_under_seed(self):
        sampler = RandomSampler()
        first = sampler.select(list(range(50)), 5, random.Random(7), None)
        second = sampler.select(list(range(50)), 5, random.Random(7), None)
        assert first == second

    def test_order_of_input_does_not_matter(self):
        sampler = RandomSampler()
        forward = sampler.select(list(range(20)), 4, random.Random(7), None)
        backward = sampler.select(list(reversed(range(20))), 4, random.Random(7), None)
        assert forward == backward

    def test_empty_population_rejected(self):
        with pytest.raises(LearningError):
            RandomSampler().select([], 1, random.Random(0), None)

    def test_zero_count_rejected(self):
        with pytest.raises(LearningError):
            RandomSampler().select([1], 0, random.Random(0), None)


class TestUncertaintySampler:
    def test_prefers_least_confident(self):
        sampler = UncertaintySampler()
        chosen = sampler.select(
            [1, 2, 3], 2, random.Random(0), predictions({1: 0.9, 2: 0.4, 3: 0.6})
        )
        assert chosen == [2, 3]

    def test_unpredicted_strangers_come_first(self):
        sampler = UncertaintySampler()
        chosen = sampler.select([1, 2], 1, random.Random(0), predictions({1: 0.5}))
        assert chosen == [2]

    def test_falls_back_to_random_without_predictions(self):
        sampler = UncertaintySampler()
        chosen = sampler.select(list(range(10)), 3, random.Random(7), None)
        assert len(chosen) == 3
        empty = PoolPredictions.from_masses([], [])
        assert sampler.select(list(range(10)), 3, random.Random(7), empty) == chosen

    def test_empty_population_rejected(self):
        with pytest.raises(LearningError):
            UncertaintySampler().select([], 1, random.Random(0), None)
