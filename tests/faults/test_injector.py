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
    OutageWindow,
)
from repro.graph.ego import EgoNetwork
from repro.learning.oracle import LabelQuery, ScriptedOracle
from repro.synth.crawler import simulate_sight_crawl
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
        assert FaultPlan(
            outages=(OutageWindow(start_day=1, end_day=2),)
        ).injects_anything

    def test_outage_window_validation(self):
        with pytest.raises(ConfigError):
            OutageWindow(start_day=0, end_day=3)
        with pytest.raises(ConfigError):
            OutageWindow(start_day=5, end_day=4)
        window = OutageWindow(start_day=3, end_day=5)
        assert window.covers(3) and window.covers(5)
        assert not window.covers(2) and not window.covers(6)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        plan = FaultPlan(oracle_abstain_rate=0.5)
        first = FaultInjector(plan, seed="abc")
        second = FaultInjector(plan, seed="abc")
        assert [first.draw() for _ in range(20)] == [
            second.draw() for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        plan = FaultPlan(oracle_abstain_rate=0.5)
        first = FaultInjector(plan, seed=1)
        second = FaultInjector(plan, seed=2)
        assert [first.draw() for _ in range(10)] != [
            second.draw() for _ in range(10)
        ]

    def test_state_round_trip_resumes_the_stream(self):
        injector = FaultInjector(FaultPlan(oracle_abstain_rate=0.5), seed=3)
        for _ in range(7):
            injector.draw()
        snapshot = injector.state()
        expected = [injector.draw() for _ in range(10)]
        other = FaultInjector(FaultPlan(oracle_abstain_rate=0.5), seed=999)
        other.restore(snapshot)
        assert [other.draw() for _ in range(10)] == expected

    def test_is_unreachable_is_a_pure_function_of_seed_and_user(self):
        plan = FaultPlan(unreachable_rate=0.3)
        injector = FaultInjector(plan, seed="s")
        verdicts = {uid: injector.is_unreachable(uid) for uid in range(200)}
        # repeated queries and draws in between do not change verdicts
        injector.draw()
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


class TestOutages:
    def _crawl(self):
        graph, owner = make_ego_graph(num_friends=6, num_strangers=20, seed=4)
        ego = EgoNetwork(graph, owner)
        return simulate_sight_crawl(ego, days=30, rng=random.Random(11))

    def test_no_events_inside_outage_windows(self):
        crawl = self._crawl()
        plan = FaultPlan(outages=(OutageWindow(start_day=5, end_day=10),))
        shifted = FaultInjector(plan, seed=0).apply_outages(crawl)
        assert all(
            not (5 <= event.day <= 10) for event in shifted.events
        )
        assert shifted.days == crawl.days
        assert shifted.total_strangers == crawl.total_strangers

    def test_events_shift_to_first_day_after_the_window(self):
        crawl = self._crawl()
        in_window = [e for e in crawl.events if 5 <= e.day <= 10]
        assert in_window  # precondition: the outage really covers events
        plan = FaultPlan(outages=(OutageWindow(start_day=5, end_day=10),))
        shifted = FaultInjector(plan, seed=0).apply_outages(crawl)
        by_stranger = {e.stranger: e for e in shifted.events}
        for event in in_window:
            assert by_stranger[event.stranger].day == 11

    def test_events_past_the_horizon_are_lost(self):
        crawl = self._crawl()
        plan = FaultPlan(outages=(OutageWindow(start_day=2, end_day=30),))
        shifted = FaultInjector(plan, seed=0).apply_outages(crawl)
        survivors = {e.stranger for e in crawl.events if e.day == 1}
        assert {e.stranger for e in shifted.events} == survivors
        assert shifted.coverage <= crawl.coverage

    def test_empty_plan_returns_the_same_crawl(self):
        crawl = self._crawl()
        assert FaultInjector(FaultPlan(), seed=0).apply_outages(crawl) is crawl


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
