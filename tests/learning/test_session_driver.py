"""Golden digests for every input of the one session driver.

Cold runs, checkpoint resumes, study-input variants (stranger subsets,
initial labels), session hooks and engine scores all run through
:func:`repro.learning.replay.replay_session`.  Each scenario below pins
the :func:`repro.io.result_digest` of both owners of a tiny cohort, so
any drift in NS, benefits, pooling, the pool loop or the per-pool RNG
streams shows up as a changed digest.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import plan_owner_session, run_study
from repro.faults import FaultPlan
from repro.io.checkpoint import CheckpointStore, SessionCheckpointer
from repro.io.serialization import result_digest
from repro.learning.incremental import continue_session
from repro.learning.sampling import UncertaintySampler
from repro.learning.session import RiskLearningSession
from repro.service import OwnerStore, RiskEngine
from repro.similarity.augmented import VisibilityAugmentedSimilarity
from repro.similarity.network import ClusteredNetworkSimilarity
from repro.synth import EgoNetConfig, generate_study_population

SEED = 31

#: ``scenario -> (owner 0 digest, owner 1 digest)``, recorded from the
#: cold path once every pool sampled from its own RNG stream.
GOLDEN = {
    "augmented_edges": (
        "65a947307ee9577a354685a648b6b7ecc3f42f9370c337d9fa649cc07c1279e5",
        "5d27439e9cb61bf4fca9db6ba69721aa7f0b8fe187f1171c914997ac6a7cd47d",
    ),
    "checkpoint_resume": (
        "a1900c990d793cb81b7e9ddf7607a58545ef11eb770d0fb92f5a6306e92bb538",
        "de43060eaa4c32176346ea4ba89a7536d2376ac7aeec4c8e59a2fff78b343cb2",
    ),
    "clustered_ns": (
        "4f4d39a7fc358a9b6d500c1344614d03b7fce7fdf1c99744e28407c95e829d9a",
        "f1b5a2e0d8a20a9732fe72a58e6a571ab03cbcffc1ebf1bd9341b948d4f6a03e",
    ),
    "default": (
        "a1900c990d793cb81b7e9ddf7607a58545ef11eb770d0fb92f5a6306e92bb538",
        "de43060eaa4c32176346ea4ba89a7536d2376ac7aeec4c8e59a2fff78b343cb2",
    ),
    "engine_cold": (
        "a1900c990d793cb81b7e9ddf7607a58545ef11eb770d0fb92f5a6306e92bb538",
        "de43060eaa4c32176346ea4ba89a7536d2376ac7aeec4c8e59a2fff78b343cb2",
    ),
    "engine_warm": (
        "752ff9de8667e8d399f45bdb8a87d8c48ab37ea46c6e12429330c1f64a0aff23",
        "e5cd7d523d2a42472f00e809e54eacdbe22466e78904f35a5e6fbc0efb0ddf5d",
    ),
    "fault_plan": (
        "07948b5b9bec21e490d3f19d13328d30938b409c234dcc708112eba36594acef",
        "23703751b293f7b0a096c79f76930134939460f2ee80c5a3c380d4823110a81e",
    ),
    "initial_labels": (
        "b868fa7736df1a85485d505b651d4db615aad09dc8af457e0f8ab8e919dddb40",
        "72dbe88e5b7dbfa5504e07e3a13b97286d916331022474258087a4429c36f34c",
    ),
    "knn": (
        "a1900c990d793cb81b7e9ddf7607a58545ef11eb770d0fb92f5a6306e92bb538",
        "e6af4d15448af708f93e25c919867c103d7c477eb5210d726e57e0bf56ac0ccd",
    ),
    "majority": (
        "a19260dad21b48ef837575cae458ba682ee9149b01e8fcb0329ea0c1f1bd6f37",
        "c9f312d2f31bfc58a0f97407f338ad21ccb0e550ade0daa56dda912403767b2b",
    ),
    "nsp": (
        "f9303cdd25d8701b2dc8f2b590a567da664c7e86a02ea9117b60bff06e3bee4b",
        "cb5b9adcfac95cb9369a451a91c9d8c826870a2e7ef249af9e90196df801b467",
    ),
    "strangers_prefix": (
        "6988fe5cb750baae5a37ed302142906af23cdda1c3f5a9d2bfe967639316ab01",
        "07470429d402c73027ba9d8191093d2a8edfcaf19b2bdede9cba1f95d8067bdf",
    ),
    "uncertainty_sampler": (
        "65a947307ee9577a354685a648b6b7ecc3f42f9370c337d9fa649cc07c1279e5",
        "dcd31e9c5884dfb29450facf3501a462b037655165123cb71e9b5fa50711e017",
    ),
}


def _population():
    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(num_friends=15, num_strangers=60),
        seed=SEED,
    )


@pytest.fixture(scope="module")
def population():
    """Read-only cohort for the session scenarios."""
    return _population()


def _sessions(population, **overrides):
    """One session per owner, planned as the study plans it (seed +
    index, owner confidence and thetas), with ``overrides`` applied."""
    for index, owner in enumerate(population.owners):
        plan = plan_owner_session(owner, index, seed=SEED)
        yield RiskLearningSession(
            population.graph,
            plan.owner_id,
            plan.oracle,
            seed=plan.seed,
            **{**plan.session_kwargs, **overrides},
        )


def _run_digests(population, **session_kwargs):
    return tuple(
        result_digest(session.run())
        for session in _sessions(population, **session_kwargs)
    )


class _Killed(Exception):
    pass


class _KillAfter(SessionCheckpointer):
    """Persists ``pools`` completed pools, then dies like a killed run."""

    def __init__(self, store, key, pools):
        super().__init__(store, key)
        self._left = pools

    def record(self, result):
        super().record(result)
        self._left -= 1
        if not self._left:
            raise _Killed


def _scenario_default(population):
    return _run_digests(population)


def _scenario_nsp(population):
    return _run_digests(population, pooling="nsp")


def _scenario_knn(population):
    return _run_digests(population, classifier="knn")


def _scenario_majority(population):
    return _run_digests(population, classifier="majority")


def _scenario_subset(population):
    digests = []
    for session in _sessions(population):
        prefix = frozenset(sorted(session.ego.strangers)[:35])
        digests.append(result_digest(session.run(strangers=prefix)))
    return tuple(digests)


def _scenario_initial_labels(population):
    digests = []
    for index, owner in enumerate(population.owners):
        session = RiskLearningSession(
            population.graph, owner.user_id, owner.as_oracle(), seed=SEED
        )
        first = session.run(
            strangers=frozenset(sorted(session.ego.strangers)[:30])
        )
        update = continue_session(
            population.graph,
            owner.user_id,
            owner.as_oracle(),
            first,
            seed=SEED + index,
        )
        digests.append(result_digest(update.result))
    return tuple(digests)


def _scenario_resume(population, tmp_path):
    store = CheckpointStore(tmp_path)
    digests = []
    for session in _sessions(population):
        key = f"owner-{session.ego.owner}"
        with pytest.raises(_Killed):
            session.run(checkpointer=_KillAfter(store, key, pools=2))
        assert len(store.load(key)["pools"]) == 2
        resumed = session.run(checkpointer=SessionCheckpointer(store, key))
        digests.append(result_digest(resumed))
    return tuple(digests)


def _scenario_faults(population):
    plan = FaultPlan(
        oracle_timeout_rate=0.1,
        oracle_abstain_rate=0.1,
        fetch_failure_rate=0.1,
        unreachable_rate=0.05,
        attribute_drop_rate=0.1,
    )
    return tuple(
        result_digest(
            plan_owner_session(
                owner, index, seed=SEED, fault_plan=plan
            ).build_session(population.graph).run()
        )
        for index, owner in enumerate(population.owners)
    )


def _scenario_clustered_ns(population):
    return _run_digests(
        population, network_similarity=ClusteredNetworkSimilarity()
    )


def _scenario_augmented_edges(population):
    return _run_digests(
        population,
        edge_similarity_wrapper=lambda ps: VisibilityAugmentedSimilarity(
            ps, mix=0.3
        ),
    )


def _scenario_sampler(population):
    return _run_digests(population, sampler=UncertaintySampler())


def _engine_digests(warm):
    """Engine scores on a fresh store; ``warm`` adds one friend-stranger
    edge per owner (it moves that stranger's NS) and re-scores."""
    population = _population()
    store = OwnerStore.from_population(population)
    engine = RiskEngine(store, seed=SEED)
    digests = []
    for owner in population.owners:
        record = engine.score(owner.user_id)
        assert record.source == "cold"
        if warm:
            handle = population.handles[owner.user_id]
            friend = sorted(handle.friends)[0]
            stranger = next(
                s
                for s in sorted(handle.strangers)
                if s not in store.graph.friends(friend)
            )
            store.add_friendship(friend, stranger)
            record = engine.score(owner.user_id)
            assert record.source == "warm"
        digests.append(record.digest)
    return tuple(digests)


SCENARIOS = {
    "default": _scenario_default,
    "nsp": _scenario_nsp,
    "knn": _scenario_knn,
    "majority": _scenario_majority,
    "strangers_prefix": _scenario_subset,
    "initial_labels": _scenario_initial_labels,
    "fault_plan": _scenario_faults,
    "clustered_ns": _scenario_clustered_ns,
    "augmented_edges": _scenario_augmented_edges,
    "uncertainty_sampler": _scenario_sampler,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_session_digest(population, scenario):
    assert SCENARIOS[scenario](population) == GOLDEN[scenario]


def test_checkpoint_resume_digest(population, tmp_path):
    digests = _scenario_resume(population, tmp_path)
    assert digests == GOLDEN["checkpoint_resume"]
    # resuming lands on the uninterrupted run
    assert digests == GOLDEN["default"]


def test_engine_cold_digest():
    digests = _engine_digests(warm=False)
    assert digests == GOLDEN["engine_cold"]
    # a pristine owner's engine score is the study's own session
    assert digests == GOLDEN["default"]


def test_engine_warm_digest():
    assert _engine_digests(warm=True) == GOLDEN["engine_warm"]


def test_study_takes_ns_and_benefits_from_the_run(population):
    study = run_study(population, seed=SEED)
    assert tuple(
        result_digest(run.result) for run in study.runs
    ) == GOLDEN["default"]
    for run, session in zip(study.runs, _sessions(population)):
        assert run.similarities == session.compute_similarities()
        assert run.benefits == session.compute_benefits()
        assert run.profiles == session.ego.stranger_profiles()
        assert set(run.visibility) == session.ego.strangers


@pytest.fixture
def gc_disabled():
    """Run with the cyclic garbage collector off: only reference
    counting frees objects, so anything in a reference cycle stays."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("classifier", ["harmonic", "knn", "majority"])
def test_finished_sessions_are_freed_by_reference_counting(
    population, gc_disabled, classifier
):
    session = next(_sessions(population, classifier=classifier))
    session.run()
    ref = weakref.ref(session)
    del session
    assert ref() is None


def test_engine_cold_rescores_leave_no_session_alive(
    gc_disabled, monkeypatch
):
    """Invalidate+score cycles on one owner: every session the engine
    built is freed once its score is memoized."""
    sessions = []
    init = RiskLearningSession.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sessions.append(weakref.ref(self))

    monkeypatch.setattr(RiskLearningSession, "__init__", tracking)
    population = _population()
    engine = RiskEngine(OwnerStore.from_population(population), seed=SEED)
    owner = population.owners[0].user_id
    for _ in range(5):
        engine.invalidate(owner)
        assert engine.score(owner).source == "cold"
    assert len(sessions) == 5
    assert [ref for ref in sessions if ref() is not None] == []
