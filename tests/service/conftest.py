"""Fixtures for the service-layer tests.

The session-scoped cohort fixtures in the top-level conftest are
read-only; delta tests mutate the graph, so this module provides a small
*fresh* population per module.
"""

from __future__ import annotations

import time

import pytest

from repro.service import OwnerStore, RiskEngine
from repro.synth import EgoNetConfig, generate_study_population

SERVICE_SEED = 17


def make_service_population():
    """A small mutable cohort for store/engine delta tests."""
    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(num_friends=15, num_strangers=50),
        seed=SERVICE_SEED,
    )


def wait_until(predicate, timeout: float = 10.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return bool(predicate())


class StaticSupervisor:
    """Fake supervisor over in-process servers; tests flip shards down."""

    def __init__(self, servers):
        self.servers = servers
        self.down: set[int] = set()

    def url_of(self, shard_index: int):
        if shard_index in self.down:
            return None
        return self.servers[shard_index].url

    def snapshot(self):
        return {
            "shards": [
                {
                    "shard": index,
                    "alive": index not in self.down,
                    "url": self.url_of(index),
                    "pid": None,
                    "restarts": 0,
                    "last_exit_code": None,
                }
                for index in range(len(self.servers))
            ]
        }


@pytest.fixture
def service_population():
    """A fresh (mutable) two-owner cohort."""
    return make_service_population()


@pytest.fixture
def service_store(service_population):
    """An owner store over the fresh cohort."""
    return OwnerStore.from_population(service_population)


@pytest.fixture
def service_engine(service_store):
    """An engine over the fresh store."""
    return RiskEngine(service_store, seed=SERVICE_SEED)
