"""Running the full study over a synthetic cohort.

:func:`run_study` is the counterpart of the paper's two-month Sight
deployment: every owner runs a complete
:class:`~repro.learning.session.RiskLearningSession` against their own
simulated judgment, using their own confidence value — exactly the
protocol of Section IV.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Iterable, Literal

from ..benefits.model import BenefitModel
from ..config import PipelineConfig
from ..errors import ConfigError, WorkerCrashError, WorkerIntegrityError
from ..faults import FaultInjector, FaultPlan
from ..graph.profile import Profile
from ..graph.social_graph import SocialGraph
from ..graph.visibility import stranger_visibility_vector
from ..learning.accuracy import exact_match_fraction
from ..learning.oracle import LabelOracle
from ..learning.replay import replay_session
from ..learning.results import SessionResult
from ..learning.session import RiskLearningSession
from ..resilience import (
    ResilientFetcher,
    ResilientOracle,
    RetryPolicy,
    no_sleep,
)
from ..synth.owners import SimulatedOwner
from ..synth.population import StudyPopulation
from ..types import BenefitItem, RiskLabel, UserId


@dataclass
class OwnerSessionPlan:
    """A reproducible recipe for one owner's learning session.

    The plan captures everything :func:`run_study` derives per owner —
    the confidence-adjusted config, the theta-weighted benefit model, the
    (possibly fault-wrapped) oracle and fetcher, and the derived seed —
    so any consumer that builds a session from the same plan produces
    byte-identical results.  The serving layer
    (:class:`~repro.service.RiskEngine`) relies on this to guarantee its
    scores match a batch study.
    """

    owner_id: UserId
    oracle: LabelOracle
    seed: int
    session_kwargs: dict[str, Any] = field(default_factory=dict)

    def build_session(self, graph: SocialGraph) -> RiskLearningSession:
        """Instantiate the session against the given graph snapshot."""
        return RiskLearningSession(
            graph,
            self.owner_id,
            self.oracle,
            seed=self.seed,
            **self.session_kwargs,
        )


def plan_owner_session(
    owner: SimulatedOwner,
    index: int,
    pooling: Literal["npp", "nsp"] = "npp",
    classifier: str = "harmonic",
    config: PipelineConfig | None = None,
    seed: int = 0,
    use_owner_confidence: bool = True,
    edge_similarity_wrapper=None,
    network_similarity=None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
) -> OwnerSessionPlan:
    """Derive one owner's session plan exactly as :func:`run_study` does.

    ``index`` is the owner's position in the cohort iteration order; the
    session seed is ``seed + index``, which is what makes re-built
    sessions reproduce the batch study byte for byte.
    """
    base = config or PipelineConfig()
    owner_config = base
    if use_owner_confidence:
        owner_config = dataclasses.replace(
            base,
            learning=dataclasses.replace(
                base.learning, confidence=owner.confidence
            ),
        )
    benefit_model = BenefitModel(thetas=owner.thetas)
    oracle: LabelOracle = owner.as_oracle()
    fetcher = None
    if fault_plan is not None and fault_plan.injects_anything:
        injector = FaultInjector(fault_plan, seed=f"{seed}:{owner.user_id}")
        policy = retry_policy or RetryPolicy(base_delay=0.0, jitter=0.0)
        oracle = ResilientOracle(
            injector.wrap_oracle(oracle), policy=policy, sleeper=no_sleep
        )
        fetcher = ResilientFetcher(
            injector.wrap_source(), policy=policy, sleeper=no_sleep
        )
    return OwnerSessionPlan(
        owner_id=owner.user_id,
        oracle=oracle,
        seed=seed + index,
        session_kwargs=dict(
            config=owner_config,
            classifier=classifier,
            pooling=pooling,
            benefit_model=benefit_model,
            edge_similarity_wrapper=edge_similarity_wrapper,
            network_similarity=network_similarity,
            fetcher=fetcher,
        ),
    )


@dataclass(frozen=True)
class OwnerRun:
    """One owner's study artifacts."""

    owner: SimulatedOwner
    result: SessionResult
    similarities: dict[UserId, float]
    benefits: dict[UserId, float]
    visibility: dict[UserId, dict[BenefitItem, bool]]
    profiles: dict[UserId, Profile]

    @property
    def holdout_accuracy(self) -> float | None:
        """Exact-match accuracy of *pure* predictions against ground truth.

        Counts only strangers the owner never labeled — a stricter check
        than the paper's validation-pair accuracy, possible here because
        the simulated owner's full judgment is known.
        """
        pairs: list[tuple[int, int]] = []
        owner_labeled = {
            stranger
            for pool in self.result.pool_results
            for stranger in pool.owner_labels
        }
        for stranger, label in self.result.final_labels().items():
            if stranger in owner_labeled:
                continue
            pairs.append((int(label), int(self.owner.truth(stranger))))
        if not pairs:
            return None
        return exact_match_fraction(pairs)


@dataclass(frozen=True)
class StudyResult:
    """The aggregated study: one :class:`OwnerRun` per owner."""

    runs: tuple[OwnerRun, ...]
    pooling: str
    classifier: str

    @property
    def degraded(self) -> bool:
        """Whether any owner's result is partial due to faults."""
        return any(run.result.degraded for run in self.runs)

    @property
    def total_unreachable(self) -> int:
        """Strangers lost to fetch/oracle outages across the cohort."""
        return sum(len(run.result.unreachable_strangers) for run in self.runs)

    @property
    def total_abstentions(self) -> int:
        """Owner abstentions across the cohort."""
        return sum(run.result.abstentions for run in self.runs)

    @property
    def num_owners(self) -> int:
        """Cohort size."""
        return len(self.runs)

    @property
    def total_strangers(self) -> int:
        """Strangers covered across all owners."""
        return sum(run.result.num_strangers for run in self.runs)

    @property
    def total_labels(self) -> int:
        """Owner labels spent across the cohort (paper: 4,013)."""
        return sum(run.result.labels_requested for run in self.runs)

    @property
    def mean_labels_per_owner(self) -> float:
        """Average labels per owner (paper: 86)."""
        return self.total_labels / len(self.runs)

    @property
    def exact_match_accuracy(self) -> float | None:
        """Cohort exact-match accuracy over all validation pairs
        (paper headline: 83.38 %)."""
        pairs: list[tuple[int, int]] = []
        for run in self.runs:
            pairs.extend(run.result.validation_pairs())
        if not pairs:
            return None
        return exact_match_fraction(pairs)

    @property
    def holdout_accuracy(self) -> float | None:
        """Cohort exact-match accuracy of pure predictions vs ground truth."""
        values = [
            run.holdout_accuracy
            for run in self.runs
            if run.holdout_accuracy is not None
        ]
        if not values:
            return None
        # weight by prediction counts via re-pooling would be equivalent
        # here; per-owner averaging matches how the paper reports means.
        return sum(values) / len(values)

    @property
    def mean_rounds_to_stop(self) -> float:
        """Average rounds per pool across the cohort (paper: ~3.29)."""
        per_owner = [run.result.mean_rounds_to_stop for run in self.runs]
        return sum(per_owner) / len(per_owner)

    @property
    def mean_confidence(self) -> float:
        """Average owner confidence (paper: 78.39)."""
        return sum(run.owner.confidence for run in self.runs) / len(self.runs)

    def all_ground_truth(self) -> dict[UserId, RiskLabel]:
        """Ground-truth labels pooled across owners (ids are disjoint)."""
        labels: dict[UserId, RiskLabel] = {}
        for run in self.runs:
            labels.update(run.owner.ground_truth)
        return labels


def run_study(
    population: StudyPopulation,
    pooling: Literal["npp", "nsp"] = "npp",
    classifier: str = "harmonic",
    config: PipelineConfig | None = None,
    seed: int = 0,
    use_owner_confidence: bool = True,
    edge_similarity_wrapper=None,
    network_similarity=None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    workers: int = 0,
) -> StudyResult:
    """Run the active-learning study for every owner in the population.

    Parameters
    ----------
    population:
        A generated cohort.
    pooling:
        ``"npp"`` (paper) or ``"nsp"`` (Section IV-C baseline).
    classifier:
        ``"harmonic"`` (paper), ``"knn"``, or ``"majority"``.
    config:
        Base pipeline configuration; each owner's confidence overrides the
        learning config when ``use_owner_confidence`` is set.
    seed:
        Per-owner session seeds derive from this.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`: each owner's oracle and
        profile source are wrapped by a deterministic per-owner
        :class:`~repro.faults.FaultInjector` and the resilience layer
        (retry + graceful degradation), simulating the flaky conditions of
        the real deployment.
    retry_policy:
        Backoff policy used when faults are enabled (a fast-retry default
        otherwise).  Sleeps are suppressed — simulated faults need no
        wall-clock waits.
    checkpoint_dir:
        When set, per-owner learning state is checkpointed here after
        every completed pool (atomic JSON documents, keyed
        ``owner-<id>-<pooling>``).
    resume:
        Resume from existing checkpoints in ``checkpoint_dir`` instead of
        discarding them.  A killed study rerun with identical arguments
        reproduces the uninterrupted run's labels exactly.
    workers:
        Worker *processes* for the per-owner loop.  ``0`` (the default)
        runs serially in this process.  With ``workers >= 1`` each
        owner's session executes in a spawned
        ``concurrent.futures.ProcessPoolExecutor`` worker; owners keep
        their serial seeds (``seed + index``) and results merge in
        submission order, so the study's
        :func:`~repro.io.result_digest`\\ s match the serial run exactly.
        Incompatible with ``checkpoint_dir`` and with custom similarity
        callables (they may not survive pickling).
    """
    base = config or PipelineConfig()
    if workers:
        return _run_study_parallel(
            population,
            pooling=pooling,
            classifier=classifier,
            config=base,
            seed=seed,
            use_owner_confidence=use_owner_confidence,
            edge_similarity_wrapper=edge_similarity_wrapper,
            network_similarity=network_similarity,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            checkpoint_dir=checkpoint_dir,
            workers=workers,
        )
    store = None
    if checkpoint_dir is not None:
        # Imported lazily: repro.io's study exporter reads experiment
        # metrics, so a module-level import would be circular.
        from ..io.checkpoint import CheckpointStore, SessionCheckpointer

        store = CheckpointStore(checkpoint_dir)
    runs: list[OwnerRun] = []
    for index, owner in enumerate(population.owners):
        plan = plan_owner_session(
            owner,
            index,
            pooling=pooling,
            classifier=classifier,
            config=base,
            seed=seed,
            use_owner_confidence=use_owner_confidence,
            edge_similarity_wrapper=edge_similarity_wrapper,
            network_similarity=network_similarity,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        checkpointer = None
        if store is not None:
            checkpointer = SessionCheckpointer(
                store, f"owner-{owner.user_id}-{pooling}"
            )
            if not resume:
                checkpointer.reset()
        runs.append(
            _run_owner(owner, plan, population.graph, checkpointer)
        )
    return StudyResult(runs=tuple(runs), pooling=pooling, classifier=classifier)


def _run_owner(
    owner: SimulatedOwner,
    plan: OwnerSessionPlan,
    graph: SocialGraph,
    checkpointer=None,
) -> OwnerRun:
    """One owner's study block: the session run plus its artifacts.

    The run's own NS and benefit stages supply the similarities and
    benefits.  The serial loop and :func:`execute_owner_run_job` both run
    exactly this, so a worker reproduces the serial artifacts.
    """
    session = plan.build_session(graph)
    outcome = replay_session(session, checkpointer=checkpointer)
    return OwnerRun(
        owner=owner,
        result=outcome.result,
        similarities=outcome.state.similarities,
        benefits=outcome.state.benefits,
        visibility={
            stranger: stranger_visibility_vector(
                graph, owner.user_id, stranger
            )
            for stranger in session.ego.strangers
        },
        profiles=session.ego.stranger_profiles(),
    )


@dataclass(frozen=True)
class ScoreJob:
    """Everything a worker process needs to run one owner's study block.

    The job is a *value*: no oracle closures, no live graph references.
    The oracle is rebuilt in the worker from the owner's ground truth via
    :func:`plan_owner_session`, exactly as the serial loop builds it, so
    the derived seed (``seed + index``) and every downstream random
    stream match the serial run.

    ``profiles``/``edges`` carry the owner's universe as an induced
    subgraph.  That subgraph reproduces the serial run exactly: friends
    and 2-hop strangers are all inside the universe, NS only inspects
    mutual friends (a subset of the owner's friends) and the edges among
    them, and visibility uses the fixed owner-stranger distance of 2.
    """

    owner: SimulatedOwner
    index: int
    pooling: str
    classifier: str
    config: PipelineConfig | None
    seed: int
    use_owner_confidence: bool
    profiles: tuple[Profile, ...]
    edges: tuple[tuple[UserId, UserId], ...]
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None

    @classmethod
    def from_universe(
        cls,
        owner: SimulatedOwner,
        index: int,
        graph: SocialGraph,
        universe: Iterable[UserId],
        *,
        pooling: str = "npp",
        classifier: str = "harmonic",
        config: PipelineConfig | None = None,
        seed: int = 0,
        use_owner_confidence: bool = True,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "ScoreJob":
        """Snapshot one owner's universe off ``graph`` into a job.

        The universe is widened to the owner's friends and 2-hop
        strangers so the subgraph holds everything the session touches.
        """
        owner_id = owner.user_id
        members = set(universe)
        members.add(owner_id)
        members |= graph.friends(owner_id)
        members |= graph.two_hop_neighbors(owner_id)
        ordered = sorted(members)
        return cls(
            owner=owner,
            index=index,
            pooling=pooling,
            classifier=classifier,
            config=config,
            seed=seed,
            use_owner_confidence=use_owner_confidence,
            profiles=tuple(graph.profile(user) for user in ordered),
            edges=tuple(
                (user, friend)
                for user in ordered
                for friend in sorted(graph.friends(user) & members)
                if user < friend
            ),
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )

    def subgraph(self) -> SocialGraph:
        """Rebuild the owner's universe as a standalone graph."""
        return SocialGraph.from_edges(self.profiles, self.edges)

    def build_plan(self) -> OwnerSessionPlan:
        """Derive the session plan exactly as :func:`run_study` does."""
        return plan_owner_session(
            self.owner,
            self.index,
            pooling=self.pooling,  # type: ignore[arg-type]
            classifier=self.classifier,
            config=self.config,
            seed=self.seed,
            use_owner_confidence=self.use_owner_confidence,
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
        )


def execute_owner_run_job(job: ScoreJob) -> tuple[OwnerRun, str]:
    """Worker entry point of the parallel owner loop.

    Returns the owner's run and the :func:`~repro.io.result_digest` of
    its session result, computed in the worker so the parent can check
    that the result survived the trip back intact.
    """
    # Imported lazily: repro.io's study exporter imports this module.
    from ..io.serialization import result_digest

    run = _run_owner(job.owner, job.build_plan(), job.subgraph())
    return run, result_digest(run.result)


def _run_study_parallel(
    population: StudyPopulation,
    *,
    pooling: Literal["npp", "nsp"],
    classifier: str,
    config: PipelineConfig,
    seed: int,
    use_owner_confidence: bool,
    edge_similarity_wrapper,
    network_similarity,
    fault_plan: FaultPlan | None,
    retry_policy: RetryPolicy | None,
    checkpoint_dir: str | Path | None,
    workers: int,
) -> StudyResult:
    """Deterministic multi-process owner loop behind ``workers >= 1``.

    Each owner becomes a picklable :class:`ScoreJob` carrying their ego
    universe as an induced subgraph; workers replay the serial loop's
    per-owner block (same derived seed, same computation order), and
    results come back in submission order — so digests equal the serial
    study's.  A worker that dies fails the study with
    :class:`~repro.errors.WorkerCrashError` (no retry: the study is
    deterministic, so a rerun reproduces it); a result whose digest
    changed on the way back raises
    :class:`~repro.errors.WorkerIntegrityError`.
    """
    from ..io.serialization import result_digest

    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if checkpoint_dir is not None:
        raise ConfigError(
            "workers and checkpoint_dir are mutually exclusive: per-pool "
            "checkpoints are owned by the serial loop"
        )
    if edge_similarity_wrapper is not None or network_similarity is not None:
        raise ConfigError(
            "workers requires the built-in similarity measures: custom "
            "callables may not survive pickling into worker processes"
        )
    jobs = [
        ScoreJob.from_universe(
            owner,
            index,
            population.graph,
            population.handles[owner.user_id].strangers,
            pooling=pooling,
            classifier=classifier,
            config=config,
            seed=seed,
            use_owner_confidence=use_owner_confidence,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        for index, owner in enumerate(population.owners)
    ]
    runs: list[OwnerRun] = []
    with ProcessPoolExecutor(
        workers, mp_context=get_context("spawn")
    ) as pool:
        outcomes = pool.map(execute_owner_run_job, jobs)
        for job in jobs:
            try:
                run, digest = next(outcomes)
            except BrokenProcessPool as error:
                raise WorkerCrashError(
                    "a worker process died: the study job for owner "
                    f"{job.owner.user_id} (index {job.index}) did not "
                    "complete"
                ) from error
            if result_digest(run.result) != digest:
                raise WorkerIntegrityError(
                    f"study result of owner {job.owner.user_id} failed "
                    "its digest check after leaving the worker"
                )
            runs.append(run)
    return StudyResult(runs=tuple(runs), pooling=pooling, classifier=classifier)
