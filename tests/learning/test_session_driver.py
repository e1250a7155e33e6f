"""Golden digests for every input of the one session driver.

Cold runs, checkpoint resumes, study-input variants (stranger subsets,
initial labels), session hooks and engine scores all run through
:func:`repro.learning.replay.replay_session`.  Each scenario below pins
the :func:`repro.io.result_digest` of both owners of a tiny cohort, so
any drift in NS, benefits, pooling, the pool loop or the RNG threading
between them shows up as a changed digest.
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

#: ``scenario -> (owner 0 digest, owner 1 digest)``, recorded before the
#: cold run, checkpoint resume and warm replay shared one driver.
GOLDEN = {
    "augmented_edges": (
        "fd4b3b495b86d20beae215f1bd51d98b0867cb111ebc145afc472d845f83ba43",
        "66ab58da361e66c1fd6e1898258ce234f150bf0abd80f7e2d535578682bafbe0",
    ),
    "checkpoint_resume": (
        "fd4b3b495b86d20beae215f1bd51d98b0867cb111ebc145afc472d845f83ba43",
        "7b6456ec5310882e132d8f56f78f665695941b4de3e62c15d5d712ca43b6c247",
    ),
    "clustered_ns": (
        "a9928f6e1bcea9f2cd13a330b14d08b7bdd05343141e1ff00b1504799f41be80",
        "73a7a279bac74713f2923bb786eabe430a7c3cf5de2ac6e7048c529ff1b8bee8",
    ),
    "default": (
        "fd4b3b495b86d20beae215f1bd51d98b0867cb111ebc145afc472d845f83ba43",
        "7b6456ec5310882e132d8f56f78f665695941b4de3e62c15d5d712ca43b6c247",
    ),
    "engine_cold": (
        "fd4b3b495b86d20beae215f1bd51d98b0867cb111ebc145afc472d845f83ba43",
        "7b6456ec5310882e132d8f56f78f665695941b4de3e62c15d5d712ca43b6c247",
    ),
    "engine_warm": (
        "4a7b87aa0fc327377df65d962e941fdda9527b9b7dff60e34d7ec505c9530621",
        "b62fc4a4bf19c7062b9d08b7634cf411d54ca78dd87d3f9eb4f8c287832ee593",
    ),
    "fault_plan": (
        "93a84fda9d716ba26138fc36fae69df46b31ce50109a4813fdcaeb12a6b0b6dc",
        "63337f610a7ce1700bb4330305b793871e53b361b3b768550b56fa3783c3d607",
    ),
    "initial_labels": (
        "b868fa7736df1a85485d505b651d4db615aad09dc8af457e0f8ab8e919dddb40",
        "72dbe88e5b7dbfa5504e07e3a13b97286d916331022474258087a4429c36f34c",
    ),
    "knn": (
        "fd4b3b495b86d20beae215f1bd51d98b0867cb111ebc145afc472d845f83ba43",
        "bb009a1531b5498208f34ea970b021d3f52c38ff8a8c0d2e8c42b5b43022b589",
    ),
    "majority": (
        "420fd5f5c6bfc8d4527ba57c0dadce883c340626c4af4ca6ec5debc7c47b0e5d",
        "cb1003ee6613de986d3f71cf1ce37e940f7cfe0133438aa69415691b1360a207",
    ),
    "nsp": (
        "c2d3e62a84037bc22675edbdcbe8f7d9d25656c9e2e0ba374d1ccfcefb2dd474",
        "542c32a72c618992438e7260104b6ad8431c7cfa3cb3f49fd4b819a47b77f7a4",
    ),
    "strangers_prefix": (
        "469a361fe6517451fb5b239cd88d4f92f42d3c15c6005f1e96c9d3ebec053e4f",
        "52e04c657fd0d64f30560009c61aad79ac62cdfac63738eceb09832f9eb5b505",
    ),
    "uncertainty_sampler": (
        "a1900c990d793cb81b7e9ddf7607a58545ef11eb770d0fb92f5a6306e92bb538",
        "154c0d82e4c9383190d00230de1337a290ded64aab464a932f14783946e42f8e",
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

    def record(self, result, rng):
        super().record(result, rng)
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
