"""Tests for the study runner."""

import dataclasses
import os
import pickle

import pytest

from repro.experiments.study import ScoreJob, execute_owner_run_job, run_study
from repro.types import RiskLabel


class TestStudyRunner:
    def test_one_run_per_owner(self, npp_study, population):
        assert npp_study.num_owners == len(population.owners)

    def test_every_stranger_labeled(self, npp_study, population):
        for run in npp_study.runs:
            strangers = set(population.strangers_of(run.owner.user_id))
            assert set(run.result.final_labels()) == strangers

    def test_labels_are_fewer_than_strangers(self, npp_study):
        assert npp_study.total_labels < npp_study.total_strangers

    def test_accuracy_metrics_available(self, npp_study):
        assert npp_study.exact_match_accuracy is not None
        assert 0.0 <= npp_study.exact_match_accuracy <= 1.0
        assert npp_study.holdout_accuracy is not None

    def test_owner_confidence_respected(self, npp_study):
        for run in npp_study.runs:
            assert run.result.confidence == pytest.approx(run.owner.confidence)

    def test_similarity_and_benefit_maps_cover_strangers(self, npp_study, population):
        for run in npp_study.runs:
            strangers = set(population.strangers_of(run.owner.user_id))
            assert set(run.similarities) == strangers
            assert set(run.benefits) == strangers
            assert set(run.visibility) == strangers
            assert set(run.profiles) == strangers

    def test_ground_truth_pooling(self, npp_study):
        labels = npp_study.all_ground_truth()
        assert len(labels) == npp_study.total_strangers
        assert all(isinstance(label, RiskLabel) for label in labels.values())

    def test_owner_labels_match_ground_truth(self, npp_study):
        """The simulated owner must answer exactly its ground truth."""
        for run in npp_study.runs:
            for pool in run.result.pool_results:
                for stranger, label in pool.owner_labels.items():
                    assert label is run.owner.truth(stranger)

    def test_nsp_study_covers_same_strangers(self, npp_study, nsp_study):
        assert nsp_study.total_strangers == npp_study.total_strangers

    def test_classifier_option(self, population):
        study = run_study(population, classifier="majority", seed=1)
        assert study.classifier == "majority"
        assert study.exact_match_accuracy is not None

    def test_fixed_confidence_option(self, population):
        study = run_study(population, seed=1, use_owner_confidence=False)
        for run in study.runs:
            assert run.result.confidence == pytest.approx(80.0)


class TestParallelStudy:
    """``run_study(..., workers=N)`` must reproduce the serial study
    byte for byte: same per-owner seeds, results merged in submission
    order."""

    @pytest.fixture(scope="class")
    def small_population(self):
        from repro.synth import EgoNetConfig, generate_study_population

        return generate_study_population(
            num_owners=3,
            ego_config=EgoNetConfig(num_friends=10, num_strangers=40),
            seed=23,
        )

    @pytest.fixture(scope="class")
    def serial_study(self, small_population):
        return run_study(small_population, seed=23)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_digests_match_serial_across_worker_counts(
        self, small_population, serial_study, workers
    ):
        from repro.io import result_digest

        parallel = run_study(small_population, seed=23, workers=workers)
        assert [result_digest(run.result) for run in parallel.runs] == [
            result_digest(run.result) for run in serial_study.runs
        ]

    def test_vectorized_core_matches_scalar_reference_digests(
        self, small_population, serial_study, monkeypatch
    ):
        """A parallel run on the scoring core's fast paths (batch NS,
        vectorized Squeezer, cached sparse LU) must produce the same
        digests as a serial run on the scalar references: NS scored per
        stranger, the textbook Squeezer loop and the dense harmonic
        solve.  The workers are subprocesses, so the patches below only
        reach the serial side.  At this scale pools stay below the
        sparse threshold, so the solves are identical dense solves in
        both runs and the equality is exact."""
        from repro.clustering import pools
        from repro.config import ClassifierConfig, PipelineConfig
        from repro.io import result_digest
        from repro.similarity.network import NetworkSimilarity

        from ..clustering.squeezer_oracle import reference_squeezer

        def per_stranger(self, graph, owner, strangers):
            return {stranger: self(graph, owner, stranger) for stranger in strangers}

        vectorized = run_study(small_population, seed=23, workers=2)
        monkeypatch.setattr(NetworkSimilarity, "for_strangers", per_stranger)
        monkeypatch.setattr(pools, "squeezer", reference_squeezer)
        dense_config = PipelineConfig(
            classifier=ClassifierConfig(sparse_size_threshold=0)
        )
        scalar = run_study(small_population, seed=23, config=dense_config)
        assert [result_digest(run.result) for run in vectorized.runs] == [
            result_digest(run.result) for run in scalar.runs
        ]

    def test_run_payloads_match_serial(self, small_population, serial_study):
        parallel = run_study(small_population, seed=23, workers=2)
        for serial_run, parallel_run in zip(serial_study.runs, parallel.runs):
            assert parallel_run.owner.user_id == serial_run.owner.user_id
            assert parallel_run.similarities == serial_run.similarities
            assert parallel_run.benefits == serial_run.benefits
            assert parallel_run.visibility == serial_run.visibility
            assert parallel_run.profiles == serial_run.profiles

    def test_workers_conflict_with_checkpointing(
        self, small_population, tmp_path
    ):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_study(
                small_population,
                seed=23,
                workers=2,
                checkpoint_dir=tmp_path,
            )

    def test_workers_conflict_with_custom_similarity(self, small_population):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_study(
                small_population,
                seed=23,
                workers=2,
                network_similarity=lambda *a, **k: 0.0,
            )

    def test_negative_workers_rejected(self, small_population):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_study(small_population, seed=23, workers=-1)

    def test_fault_plan_runs_match_serial(self, small_population):
        """The fault plan and retry policy travel inside each job: a
        parallel study under every fault class gives the serial digests,
        payloads and degradation accounting."""
        from repro.faults import FaultPlan
        from repro.io import result_digest
        from repro.resilience import RetryPolicy

        plan = FaultPlan(
            oracle_timeout_rate=0.1,
            oracle_abstain_rate=0.1,
            fetch_failure_rate=0.1,
            unreachable_rate=0.05,
            attribute_drop_rate=0.1,
        )
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        kwargs = dict(seed=23, fault_plan=plan, retry_policy=policy)
        serial = run_study(small_population, **kwargs)
        parallel = run_study(small_population, workers=2, **kwargs)
        assert serial.degraded
        assert [result_digest(run.result) for run in parallel.runs] == [
            result_digest(run.result) for run in serial.runs
        ]
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert parallel_run.similarities == serial_run.similarities
            assert parallel_run.benefits == serial_run.benefits
            assert parallel_run.visibility == serial_run.visibility
            assert parallel_run.profiles == serial_run.profiles
        assert parallel.total_unreachable == serial.total_unreachable
        assert parallel.total_abstentions == serial.total_abstentions

    def test_dead_worker_raises_worker_crash_error_naming_the_job(
        self, small_population, monkeypatch
    ):
        from repro.errors import WorkerCrashError
        from repro.experiments import study

        class _ExitOnUnpickle:
            """Kills the worker process that unpickles it."""

            def __reduce__(self):
                return (os._exit, (25,))

        build = study.ScoreJob.from_universe

        def poisoned(owner, index, *args, **kwargs):
            job = build(owner, index, *args, **kwargs)
            if index == 0:
                job = dataclasses.replace(job, retry_policy=_ExitOnUnpickle())
            return job

        monkeypatch.setattr(study.ScoreJob, "from_universe", poisoned)
        first = small_population.owners[0].user_id
        with pytest.raises(WorkerCrashError, match=f"owner {first} "):
            run_study(small_population, seed=23, workers=2)


class TestScoreJob:
    """The parallel study's job: a picklable value that reproduces one
    owner's serial run block in any process."""

    @pytest.fixture(scope="class")
    def population(self):
        from repro.synth import EgoNetConfig, generate_study_population

        return generate_study_population(
            num_owners=2,
            ego_config=EgoNetConfig(num_friends=15, num_strangers=50),
            seed=17,
        )

    @staticmethod
    def make_jobs(population):
        return [
            ScoreJob.from_universe(
                owner,
                index,
                population.graph,
                population.handles[owner.user_id].strangers,
                seed=17,
            )
            for index, owner in enumerate(population.owners)
        ]

    def test_job_is_picklable(self, population):
        job = self.make_jobs(population)[0]
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_subgraph_contains_the_full_ego_universe(self, population):
        job = self.make_jobs(population)[0]
        graph = job.subgraph()
        owner_id = job.owner.user_id
        full = population.graph
        assert graph.friends(owner_id) == full.friends(owner_id)
        assert graph.two_hop_neighbors(owner_id) == full.two_hop_neighbors(
            owner_id
        )

    def test_subgraph_reproduces_inline_score_in_process(self, population):
        # no pool involved: the subgraph + rebuilt-plan recipe alone must
        # already reproduce the serial study's runs
        from repro.io import result_digest

        serial = run_study(population, seed=17)
        for job, serial_run in zip(self.make_jobs(population), serial.runs):
            run, digest = execute_owner_run_job(job)
            assert digest == result_digest(serial_run.result)
            assert run.similarities == serial_run.similarities
            assert run.benefits == serial_run.benefits
            assert run.visibility == serial_run.visibility
            assert run.profiles == serial_run.profiles
