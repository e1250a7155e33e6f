"""E18 — performance: the pipeline's computational hot spots.

Not a paper artifact — engineering benchmarks for the costs that
dominate a deployment: the all-pairs ``PS()`` edge-weight matrix, the
harmonic solve, the vectorized scoring core (batch ``NS()``, array-form
harmonic predictions and benefits), and a full owner session.  The
assertions pin the contracts (vectorized paths match the scalar
references — exactly where the design guarantees it) so a performance
regression cannot silently change results.

The pool-graph section times what the repository benchmark folds into
the session's self time: ``ProfileSimilarity`` on each pool's profiles,
its ``pairwise_matrix`` and ``SimilarityGraph.from_profiles``, over
every pool of one owner.

The scoring-core, pool-graph and ``PS()`` sections time with
``time.perf_counter`` instead of the ``benchmark`` fixture so they run
in plain CI smoke jobs, and they emit machine-readable records to
``benchmarks/out/BENCH_perf.json`` (op, n, seconds, speedup vs the
reference arm), stamped with ``cpu_cores``.  A committed snapshot lives in
``benchmarks/baselines/BENCH_perf_baseline.json``.  Speedup
floors are only asserted at full scale — reduced-scale smoke runs
(small ``REPRO_BENCH_STRANGERS``) still verify every equality contract.
"""

import json
import os
import time
from unittest import mock

import numpy as np
import pytest

from repro.benefits.model import BenefitModel
from repro.classifier import harmonic
from repro.classifier.base import split_nodes
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.learning.replay import replay_session
from repro.learning.session import DEFAULT_EDGE_WEIGHTS, RiskLearningSession
from repro.similarity.network import NetworkSimilarity
from repro.similarity.profile import ProfileSimilarity
from repro.types import ProfileAttribute, RiskLabel

from tests.classifier.prediction_oracle import (
    assert_matches_oracle,
    harmonic_oracle,
)
from tests.similarity.pool_oracle import (
    assert_bitwise_equal,
    benefits_oracle,
    ps_matrix_oracle,
    similarity_graph_oracle,
)

from .conftest import OUT_DIR, SEED, STRANGERS

#: The batch-NS section uses its own, larger stranger cohort: the paper's
#: average owner sees thousands of strangers, and that is where the batch
#: path's advantage is honest to measure (per-call overhead amortized).
NS_STRANGERS = 4 * STRANGERS

_PERF_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_perf_json():
    """Merge the scoring-core timing records in after the module finishes."""
    yield
    if _PERF_RECORDS:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        merge_perf_records(OUT_DIR / "BENCH_perf.json", _PERF_RECORDS)


def merge_perf_records(path, records):
    """Write ``records`` into the document at ``path``.

    A record replaces the earlier one of the same ``op`` in place; other
    ops' records stay, so a run of some sections keeps the rest.  New
    ops are appended.  ``seed`` and ``cpu_cores`` stamp this run.
    """
    fresh = {record["op"]: record for record in records}
    kept = []
    if path.exists():
        kept = json.loads(path.read_text(encoding="utf-8"))["records"]
    merged = [fresh.pop(record["op"], record) for record in kept]
    payload = {
        "seed": SEED,
        "cpu_cores": os.cpu_count() or 1,
        "records": merged + list(fresh.values()),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def pool_profiles(population):
    """The biggest pool-like profile set available from the cohort."""
    owner = population.owners[0]
    strangers = population.strangers_of(owner.user_id)
    return [population.graph.profile(s) for s in strangers]


def test_perf_pairwise_matrix(pool_profiles):
    """Table-gather ``PS()`` matrix vs the scalar oracle (``PS.__call__``
    on every ordered pair) over one owner's strangers: the whole matrix
    bit for bit always, >= 20x at full scale."""
    measure = ProfileSimilarity(pool_profiles)
    matrix = measure.pairwise_matrix(pool_profiles)
    # contract: every cell equals the scalar measure, bit for bit
    assert_bitwise_equal(matrix, ps_matrix_oracle(measure, pool_profiles))

    t_array = _best_of(lambda: measure.pairwise_matrix(pool_profiles), 10)
    t_oracle = _best_of(lambda: ps_matrix_oracle(measure, pool_profiles), 1)
    speedup = t_oracle / t_array
    size = len(pool_profiles)
    _PERF_RECORDS.append(
        {
            "op": "ps.pairwise_array_vs_oracle",
            "n": size,
            "seconds": t_array,
            "oracle_seconds": t_oracle,
            "speedup": speedup,
        }
    )
    print(
        f"\nPS matrix: n={size} array {t_array * 1e3:.2f}ms "
        f"oracle {t_oracle * 1e3:.0f}ms speedup {speedup:.0f}x"
    )
    if size >= 200:
        assert speedup >= 20.0


def _random_graph(size: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    weights = np.zeros((size, size))
    for _ in range(size * 5):
        a, b = rng.integers(0, size, size=2)
        if a != b:
            weights[a, b] = weights[b, a] = rng.uniform(0.2, 1.0)
    return SimilarityGraph(list(range(size)), weights)


def test_perf_harmonic_dense(benchmark):
    graph = _random_graph(400)
    classifier = HarmonicClassifier(graph)
    labeled = {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
    predictions = benchmark(classifier.predict, labeled)
    assert len(predictions) == 398


@pytest.fixture(scope="module")
def ns_population():
    """A two-owner cohort with ``NS_STRANGERS`` strangers per owner."""
    from repro.synth import EgoNetConfig, generate_study_population

    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(num_friends=40, num_strangers=NS_STRANGERS),
        seed=SEED,
    )


def test_perf_batch_network_similarity(ns_population):
    """Batch ``NS.for_strangers`` vs the scalar oracle (``NS.__call__``
    per stranger) on the cohort's largest stranger set: exact
    (digest-level) equality always, >= 5x at full scale."""
    graph = ns_population.graph
    owner = max(
        (o.user_id for o in ns_population.owners),
        key=lambda user_id: len(graph.two_hop_neighbors(user_id)),
    )
    strangers = graph.two_hop_neighbors(owner)
    measure = NetworkSimilarity()

    def per_stranger():
        return {stranger: measure(graph, owner, stranger) for stranger in strangers}

    batch = measure.for_strangers(graph, owner, strangers)
    # contract: bitwise equality with the scalar measure, stranger by
    # stranger — not approx
    assert batch == per_stranger()

    graph.adjacency_index()  # take the one-time CSR build off the clock
    t_batch = _best_of(lambda: measure.for_strangers(graph, owner, strangers), 10)
    t_scalar = _best_of(per_stranger, 3)
    speedup = t_scalar / t_batch
    _PERF_RECORDS.append(
        {
            "op": "network_similarity.for_strangers_batch",
            "n": len(strangers),
            "seconds": t_batch,
            "scalar_seconds": t_scalar,
            "speedup": speedup,
        }
    )
    print(
        f"\nbatch NS: n={len(strangers)} batch {t_batch * 1e3:.3f}ms "
        f"scalar {t_scalar * 1e3:.3f}ms speedup {speedup:.1f}x"
    )
    if len(strangers) >= 1000:
        assert speedup >= 5.0


def test_perf_harmonic_array_vs_oracle(ns_population):
    """Array-form harmonic predictions vs the per-node oracle (one
    ``Prediction`` and masses dict per unlabeled node) on the largest
    real ``PS()`` pool graph of a session, labeled with that pool's
    first-round answers.  Bitwise equality always; >= 1.5x at full
    scale (the shared O(n^3) solve caps the ratio as pools grow)."""
    owner = ns_population.owners[0]
    outcome = replay_session(
        RiskLearningSession(
            ns_population.graph, owner.user_id, owner.as_oracle(), seed=SEED
        )
    )
    pool = max(
        outcome.result.pool_results, key=lambda pool: len(pool.final_labels)
    )
    classifier = outcome.state.classifiers[pool.pool_id][1]
    labeled = dict(pool.rounds[0].answers)

    # contract: labels, scores and masses equal the oracle bit for bit
    assert_matches_oracle(
        classifier.predict(labeled), harmonic_oracle(classifier, labeled)
    )

    t_array = _best_of(lambda: classifier.predict(labeled), 20)
    t_oracle = _best_of(lambda: harmonic_oracle(classifier, labeled), 5)
    speedup = t_oracle / t_array
    size = len(classifier.graph)
    _PERF_RECORDS.append(
        {
            "op": "harmonic.predict_array_vs_oracle",
            "n": size,
            "seconds": t_array,
            "oracle_seconds": t_oracle,
            "speedup": speedup,
        }
    )
    print(
        f"\nharmonic array: n={size} array {t_array * 1e3:.2f}ms "
        f"oracle {t_oracle * 1e3:.2f}ms speedup {speedup:.1f}x"
    )
    if size >= 200:
        assert speedup >= 1.5


def test_perf_harmonic_solve_cholesky_vs_lu(ns_population):
    """The harmonic solve of every round of a session's largest real
    ``PS()`` pool, by Cholesky (``dposv``, production) and by the LU
    reference (the same ``_solve`` with no ``dposv`` to call): equal
    labels and masses within 1e-12 in every round; >= 1.2x at full
    scale."""
    owner = ns_population.owners[0]
    outcome = replay_session(
        RiskLearningSession(
            ns_population.graph, owner.user_id, owner.as_oracle(), seed=SEED
        )
    )
    pool = max(
        outcome.result.pool_results, key=lambda pool: len(pool.final_labels)
    )
    classifier = outcome.state.classifiers[pool.pool_id][1]
    rounds, labeled = [], {}
    for record in pool.rounds:
        labeled.update(record.answers)
        if record.predicted_labels:
            labeled_idx, unlabeled_idx, _ = split_nodes(
                classifier.graph, labeled
            )
            rounds.append((dict(labeled), labeled_idx, unlabeled_idx))

    def solve_all():
        return [classifier._solve(*arguments) for arguments in rounds]

    def lu_solve_all():
        with mock.patch.object(harmonic, "_dposv", lambda: None):
            return solve_all()

    def masses_of(solution):
        totals = solution.sum(axis=1, keepdims=True)
        return np.divide(
            solution, totals, out=np.zeros_like(solution), where=totals > 1e-12
        )

    # contract: every round's labels equal the LU reference's (argmax,
    # ties toward the higher label) and its masses agree within 1e-12
    for solution, reference in zip(solve_all(), lu_solve_all()):
        masses, expected = masses_of(solution), masses_of(reference)
        assert np.abs(masses - expected).max() <= 1e-12
        assert (
            masses[:, ::-1].argmax(axis=1) == expected[:, ::-1].argmax(axis=1)
        ).all()

    t_cholesky = _best_of(solve_all, 10)
    t_lu = _best_of(lu_solve_all, 10)
    speedup = t_lu / t_cholesky
    size = len(classifier.graph)
    _PERF_RECORDS.append(
        {
            "op": "harmonic.solve_cholesky_vs_lu",
            "n": size,
            "rounds": len(rounds),
            "seconds": t_cholesky,
            "lu_seconds": t_lu,
            "speedup": speedup,
        }
    )
    print(
        f"\nharmonic solve: n={size} over {len(rounds)} rounds "
        f"cholesky {t_cholesky * 1e3:.2f}ms lu {t_lu * 1e3:.2f}ms "
        f"speedup {speedup:.2f}x"
    )
    if size >= 200:
        assert speedup >= 1.2


def test_perf_pool_graph_build(ns_population):
    """One owner's pool graphs built as the session builds them — ``PS()``
    on the pool's own profiles, its ``pairwise_matrix``, then
    ``SimilarityGraph.from_profiles`` — timed over every pool.  Each
    graph equals the per-pair oracle's and the session's, bit for bit."""
    owner = ns_population.owners[0]
    session = RiskLearningSession(
        ns_population.graph, owner.user_id, owner.as_oracle(), seed=SEED
    )
    outcome = replay_session(session)
    config = session.config

    def measure_of(profiles):
        return ProfileSimilarity(
            profiles,
            attributes=tuple(ProfileAttribute),
            weights=DEFAULT_EDGE_WEIGHTS,
            config=config.profile_similarity,
        )

    def build(profiles):
        return SimilarityGraph.from_profiles(
            profiles,
            measure_of(profiles),
            min_edge_weight=config.classifier.min_edge_weight,
            sharpening=config.classifier.edge_sharpening,
        )

    pools = [profiles for profiles, _ in outcome.state.classifiers.values()]
    # contract: every pool graph equals the oracle's and the session's
    for profiles, classifier in outcome.state.classifiers.values():
        graph = build(profiles)
        expected = similarity_graph_oracle(
            profiles,
            measure_of(profiles),
            config.classifier.min_edge_weight,
            config.classifier.edge_sharpening,
        )
        assert graph.nodes == expected.nodes == classifier.graph.nodes
        assert_bitwise_equal(graph.weights, expected.weights)
        assert_bitwise_equal(graph.weights, classifier.graph.weights)

    t_build = _best_of(lambda: [build(profiles) for profiles in pools], 10)
    size = sum(len(profiles) for profiles in pools)
    _PERF_RECORDS.append(
        {
            "op": "pools.graph_build",
            "n": size,
            "pools": len(pools),
            "seconds": t_build,
        }
    )
    print(
        f"\npool graphs: {len(pools)} pools, {size} strangers, "
        f"{t_build * 1e3:.2f}ms"
    )


def test_perf_benefits_array_vs_oracle(ns_population):
    """``BenefitModel.for_strangers`` (visibility bit per privacy level)
    vs the per-stranger oracle (``BenefitModel.__call__``) on the
    cohort's largest stranger set: bitwise equality always, >= 3x at
    full scale."""
    graph = ns_population.graph
    owner = max(
        (o.user_id for o in ns_population.owners),
        key=lambda user_id: len(graph.two_hop_neighbors(user_id)),
    )
    strangers = graph.two_hop_neighbors(owner)
    model = BenefitModel()

    batch = model.for_strangers(graph, owner, strangers)
    # contract: every stranger's benefit equals the scalar formula's bits
    expected = benefits_oracle(model, graph, owner, strangers)
    assert list(batch) == list(expected)
    assert_bitwise_equal(
        np.array(list(batch.values())), np.array(list(expected.values()))
    )

    t_array = _best_of(lambda: model.for_strangers(graph, owner, strangers), 10)
    t_oracle = _best_of(
        lambda: benefits_oracle(model, graph, owner, strangers), 5
    )
    speedup = t_oracle / t_array
    _PERF_RECORDS.append(
        {
            "op": "benefits.array_vs_oracle",
            "n": len(strangers),
            "seconds": t_array,
            "oracle_seconds": t_oracle,
            "speedup": speedup,
        }
    )
    print(
        f"\nbenefits: n={len(strangers)} array {t_array * 1e3:.3f}ms "
        f"oracle {t_oracle * 1e3:.3f}ms speedup {speedup:.1f}x"
    )
    if len(strangers) >= 1000:
        assert speedup >= 3.0


def test_perf_full_owner_session(benchmark, population):
    owner = population.owners[1]

    def one_session():
        return RiskLearningSession(
            population.graph, owner.user_id, owner.as_oracle(), seed=SEED
        ).run()

    result = benchmark.pedantic(one_session, rounds=3, iterations=1)
    assert result.num_strangers == len(
        population.strangers_of(owner.user_id)
    )
