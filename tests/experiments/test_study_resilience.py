"""Study-level resilience: faulted runs complete; killed runs resume.

The issue's acceptance scenarios:

* a study under ``abstain 0.2 / fetch-fail 0.1 / unreachable 0.05``
  completes with degraded-but-nonempty results;
* a study killed mid-run resumes from its checkpoints to final labels
  byte-identical to an uninterrupted run with the same seed.
"""

from __future__ import annotations

import pytest

from repro.experiments.study import run_study
from repro.faults import FaultPlan
from repro.synth import EgoNetConfig, generate_study_population
from repro.synth.owners import SimulatedOwner

ACCEPTANCE_PLAN = FaultPlan(
    oracle_abstain_rate=0.2,
    fetch_failure_rate=0.1,
    unreachable_rate=0.05,
)


@pytest.fixture(scope="module")
def small_population():
    return generate_study_population(
        num_owners=3,
        ego_config=EgoNetConfig(num_friends=15, num_strangers=60),
        seed=77,
    )


class TestFaultedStudy:
    def test_faulted_study_completes_degraded_but_nonempty(
        self, small_population
    ):
        study = run_study(
            small_population, seed=9, fault_plan=ACCEPTANCE_PLAN
        )
        assert study.degraded
        assert study.total_abstentions > 0
        for run in study.runs:
            assert run.result.final_labels()
        # accounting matches the per-run records
        assert study.total_unreachable == sum(
            len(run.result.unreachable_strangers) for run in study.runs
        )

    def test_faulted_study_is_deterministic(self, small_population):
        first = run_study(small_population, seed=9, fault_plan=ACCEPTANCE_PLAN)
        second = run_study(small_population, seed=9, fault_plan=ACCEPTANCE_PLAN)
        assert [run.result.final_labels() for run in first.runs] == [
            run.result.final_labels() for run in second.runs
        ]

    def test_empty_plan_changes_nothing(self, small_population):
        plain = run_study(small_population, seed=9)
        empty = run_study(small_population, seed=9, fault_plan=FaultPlan())
        assert [run.result.final_labels() for run in plain.runs] == [
            run.result.final_labels() for run in empty.runs
        ]
        assert not plain.degraded


class _StudyKilled(Exception):
    """Stands in for SIGKILL: aborts run_study mid-study."""


class _KillSwitch:
    """Raises after ``budget`` oracle answers across the whole study."""

    def __init__(self, budget):
        self.budget = budget
        self.calls = 0

    def wrap(self, oracle):
        switch = self

        class Killing:
            def label(self, query):
                switch.calls += 1
                if switch.calls > switch.budget:
                    raise _StudyKilled()
                return oracle.label(query)

        return Killing()


class TestCheckpointResume:
    @pytest.mark.parametrize("fault_plan", [None, ACCEPTANCE_PLAN])
    def test_killed_study_resumes_byte_identical(
        self, small_population, tmp_path, monkeypatch, fault_plan
    ):
        options = dict(pooling="npp", seed=4, fault_plan=fault_plan)
        baseline = run_study(small_population, **options)
        expected = [run.result.final_labels() for run in baseline.runs]

        # kill the study partway through: enough answers to complete at
        # least one pool, far too few to finish the cohort
        switch = _KillSwitch(budget=25)
        original = SimulatedOwner.as_oracle

        def killing_as_oracle(self):
            return switch.wrap(original(self))

        monkeypatch.setattr(SimulatedOwner, "as_oracle", killing_as_oracle)
        with pytest.raises(_StudyKilled):
            run_study(
                small_population, checkpoint_dir=tmp_path, **options
            )
        monkeypatch.setattr(SimulatedOwner, "as_oracle", original)

        # checkpoints from completed pools survived the crash
        assert list(tmp_path.glob("*.json"))

        resumed = run_study(
            small_population,
            checkpoint_dir=tmp_path,
            resume=True,
            **options,
        )
        assert [
            run.result.final_labels() for run in resumed.runs
        ] == expected

    def test_fresh_run_discards_stale_checkpoints(
        self, small_population, tmp_path
    ):
        options = dict(pooling="npp", seed=4)
        first = run_study(small_population, checkpoint_dir=tmp_path, **options)
        # without --resume, a second run starts over (and still matches,
        # since the inputs are identical)
        second = run_study(small_population, checkpoint_dir=tmp_path, **options)
        assert [run.result.final_labels() for run in first.runs] == [
            run.result.final_labels() for run in second.runs
        ]

    def test_resume_after_completion_replays_saved_results(
        self, small_population, tmp_path
    ):
        options = dict(pooling="npp", seed=4, fault_plan=ACCEPTANCE_PLAN)
        first = run_study(small_population, checkpoint_dir=tmp_path, **options)
        resumed = run_study(
            small_population, checkpoint_dir=tmp_path, resume=True, **options
        )
        for before, after in zip(first.runs, resumed.runs):
            assert before.result.pool_results == after.result.pool_results
