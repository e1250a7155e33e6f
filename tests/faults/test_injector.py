"""FaultInjector: deterministic fault archetypes and their wrappers."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    ConfigError,
    OracleAbstainError,
    OracleTimeoutError,
    TransientFetchError,
    UnreachableUserError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FlakyOracle,
    FlakyProfileSource,
)
from repro.learning.oracle import LabelQuery, ScriptedOracle
from repro.types import RiskLabel

from ..conftest import make_ego_graph


def query(stranger=7):
    return LabelQuery(stranger=stranger, similarity=0.5, benefit=0.5)


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(oracle_abstain_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(fetch_failure_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(oracle_timeout_rate=0.6, oracle_abstain_rate=0.6)

    def test_injects_anything(self):
        assert not FaultPlan().injects_anything
        assert FaultPlan(oracle_abstain_rate=0.1).injects_anything


class TestDeterminism:
    def test_same_seed_same_stream(self):
        plan = FaultPlan(oracle_abstain_rate=0.5)
        first = FaultInjector(plan, seed="abc")
        second = FaultInjector(plan, seed="abc")
        keys = [
            (kind, user, attempt)
            for kind in ("oracle", "fetch")
            for user in range(5)
            for attempt in range(3)
        ]
        assert [first.roll(*key) for key in keys] == [
            second.roll(*key) for key in keys
        ]

    def test_different_seeds_differ(self):
        plan = FaultPlan(oracle_abstain_rate=0.5)
        first = FaultInjector(plan, seed=1)
        second = FaultInjector(plan, seed=2)
        assert [first.roll("oracle", 7, n) for n in range(10)] != [
            second.roll("oracle", 7, n) for n in range(10)
        ]

    def test_rolls_do_not_depend_on_call_order(self):
        plan = FaultPlan(oracle_timeout_rate=0.3, oracle_abstain_rate=0.3)

        def outcomes(order):
            oracle = FaultInjector(plan, seed="s").wrap_oracle(
                ScriptedOracle({}, default=RiskLabel.RISKY)
            )
            seen = {}
            for stranger in order:
                try:
                    oracle.label(query(stranger))
                    outcome = "answer"
                except OracleTimeoutError:
                    outcome = "timeout"
                except OracleAbstainError:
                    outcome = "abstain"
                seen.setdefault(stranger, []).append(outcome)
            return seen

        strangers = [s for s in range(20) for _ in range(3)]
        forward = outcomes(strangers)
        assert outcomes(list(reversed(strangers))) == forward
        assert outcomes(random.Random(3).sample(strangers, 60)) == forward

    def test_a_retry_gets_a_fresh_roll(self):
        plan = FaultPlan(fetch_failure_rate=0.5)
        injector = FaultInjector(plan, seed="s")
        graph, _ = make_ego_graph()
        source = injector.wrap_source()
        failures = []
        for attempt in range(12):
            try:
                source.fetch_one(graph, 6)
                failures.append(False)
            except TransientFetchError:
                failures.append(True)
        # attempt n of user 6 fails exactly when its own roll says so
        assert failures == [
            injector.roll("fetch", 6, attempt) < 0.5 for attempt in range(12)
        ]
        assert any(failures) and not all(failures)

    def test_is_unreachable_is_a_pure_function_of_seed_and_user(self):
        plan = FaultPlan(unreachable_rate=0.3)
        injector = FaultInjector(plan, seed="s")
        verdicts = {uid: injector.is_unreachable(uid) for uid in range(200)}
        # repeated queries do not change verdicts
        assert all(
            injector.is_unreachable(uid) == verdict
            for uid, verdict in verdicts.items()
        )
        share = sum(verdicts.values()) / len(verdicts)
        assert 0.1 < share < 0.5
        assert not FaultInjector(FaultPlan(), seed="s").is_unreachable(1)

    def test_degrade_profile_is_deterministic_per_user(self):
        graph, _ = make_ego_graph()
        plan = FaultPlan(attribute_drop_rate=0.5)
        injector = FaultInjector(plan, seed="s")
        profile = graph.profile(6)
        once = injector.degrade_profile(profile)
        again = injector.degrade_profile(profile)
        assert once.attributes == again.attributes
        assert once.user_id == profile.user_id
        assert set(once.attributes) <= set(profile.attributes)
        # across many users, some attribute somewhere is dropped
        degraded = [
            injector.degrade_profile(graph.profile(uid)) for uid in range(6, 18)
        ]
        assert any(
            len(d.attributes) < len(graph.profile(d.user_id).attributes)
            for d in degraded
        )


class TestFlakyOracle:
    def test_fault_partition(self):
        plan = FaultPlan(oracle_timeout_rate=0.3, oracle_abstain_rate=0.3)
        injector = FaultInjector(plan, seed=0)
        oracle = injector.wrap_oracle(
            ScriptedOracle({}, default=RiskLabel.RISKY)
        )
        assert isinstance(oracle, FlakyOracle)
        outcomes = {"timeout": 0, "abstain": 0, "answer": 0}
        for _ in range(300):
            try:
                label = oracle.label(query())
            except OracleTimeoutError:
                outcomes["timeout"] += 1
            except OracleAbstainError:
                outcomes["abstain"] += 1
            else:
                assert label == RiskLabel.RISKY
                outcomes["answer"] += 1
        assert outcomes["timeout"] > 50
        assert outcomes["abstain"] > 50
        assert outcomes["answer"] > 50

    def test_label_or_abstain_maps_abstention(self):
        plan = FaultPlan(oracle_abstain_rate=1.0)
        injector = FaultInjector(plan, seed=0)
        oracle = injector.wrap_oracle(ScriptedOracle({}, default=RiskLabel.RISKY))
        assert oracle.label_or_abstain(query()) is None

    def test_no_fault_plan_is_transparent(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        oracle = injector.wrap_oracle(
            ScriptedOracle({7: RiskLabel.VERY_RISKY})
        )
        assert oracle.label(query(7)) == RiskLabel.VERY_RISKY


class TestFlakyProfileSource:
    def test_transient_and_permanent_faults(self):
        graph, _ = make_ego_graph()
        plan = FaultPlan(fetch_failure_rate=0.5, unreachable_rate=0.2)
        injector = FaultInjector(plan, seed="fetch")
        source = injector.wrap_source()
        assert isinstance(source, FlakyProfileSource)
        outcomes = {"transient": 0, "unreachable": 0, "profile": 0}
        for uid in range(6, 18):
            for _ in range(10):
                try:
                    profile = source.fetch_one(graph, uid)
                except TransientFetchError:
                    outcomes["transient"] += 1
                except UnreachableUserError:
                    outcomes["unreachable"] += 1
                else:
                    assert profile.user_id == uid
                    outcomes["profile"] += 1
        assert outcomes["transient"] > 0
        assert outcomes["unreachable"] > 0
        assert outcomes["profile"] > 0

    def test_unreachable_users_never_fetch(self):
        graph, _ = make_ego_graph()
        plan = FaultPlan(unreachable_rate=1.0)
        source = FaultInjector(plan, seed=0).wrap_source()
        with pytest.raises(UnreachableUserError) as excinfo:
            source.fetch_one(graph, 6)
        assert excinfo.value.user_id == 6


class TestServiceFaultPlan:
    def test_validation(self):
        from repro.faults import ServiceFaultPlan

        with pytest.raises(ConfigError):
            ServiceFaultPlan(fsync_failure_rate=1.5)
        with pytest.raises(ConfigError):
            ServiceFaultPlan(slow_disk_seconds=-1)
        with pytest.raises(ConfigError):
            ServiceFaultPlan(crash_at_mutation=0)
        with pytest.raises(ConfigError):
            ServiceFaultPlan(torn_write_at_mutation=-3)

    def test_injects_anything(self):
        from repro.faults import ServiceFaultPlan

        assert not ServiceFaultPlan().injects_anything
        assert ServiceFaultPlan(fsync_failure_rate=0.1).injects_anything
        assert ServiceFaultPlan(crash_at_mutation=5).injects_anything
        assert ServiceFaultPlan(torn_write_at_mutation=1).injects_anything
        assert ServiceFaultPlan(slow_disk_seconds=0.5).injects_anything


class TestServiceFaultInjector:
    def test_fsync_failures_are_seeded_and_deterministic(self):
        from repro.faults import ServiceFaultInjector, ServiceFaultPlan

        def failures(seed):
            injector = ServiceFaultInjector(
                ServiceFaultPlan(fsync_failure_rate=0.5), seed=seed
            )
            observed = []
            for _ in range(20):
                try:
                    injector.before_fsync()
                    observed.append(False)
                except OSError:
                    observed.append(True)
            return observed

        assert failures(7) == failures(7)
        assert failures(7) != failures(8)
        assert any(failures(7)) and not all(failures(7))

    def test_torn_write_mangles_only_the_chosen_mutation(self):
        from repro.faults import ServiceFaultInjector, ServiceFaultPlan

        crashes = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(torn_write_at_mutation=2),
            crash=lambda code: crashes.append(code),
        )
        line = b"0a1b2c3d {payload}\n"
        assert injector.mangle_record(1, line) == line
        injector.after_write(1)
        assert crashes == []
        torn = injector.mangle_record(2, line)
        assert torn != line and len(torn) < len(line)
        injector.after_write(2)
        assert crashes == [23]

    def test_crash_after_commit_uses_exit_code_24(self):
        from repro.faults import ServiceFaultInjector, ServiceFaultPlan

        crashes = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(crash_at_mutation=3),
            crash=lambda code: crashes.append(code),
        )
        injector.after_commit(1)
        injector.after_commit(2)
        assert crashes == []
        injector.after_commit(3)
        assert crashes == [24]

    def test_slow_disk_sleeps_before_fsync(self):
        from repro.faults import ServiceFaultInjector, ServiceFaultPlan

        naps = []
        injector = ServiceFaultInjector(
            ServiceFaultPlan(slow_disk_seconds=0.25), sleeper=naps.append
        )
        injector.before_fsync()
        assert naps == [0.25]
