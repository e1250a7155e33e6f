"""Tests for the Gaussian fields / harmonic function classifier."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.classifier import harmonic
from repro.classifier.base import LABEL_VALUES, label_columns, split_nodes
from repro.classifier.graphs import SimilarityGraph
from repro.classifier.harmonic import HarmonicClassifier
from repro.config import ClassifierConfig
from repro.errors import ClassifierError
from repro.types import RiskLabel

from .prediction_oracle import prediction_of


def graph_from(weights, nodes=None):
    weights = np.asarray(weights, dtype=float)
    nodes = nodes or list(range(weights.shape[0]))
    return SimilarityGraph(nodes, weights)


class TestBasics:
    def test_requires_labels(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ClassifierError):
            HarmonicClassifier(graph).predict({})

    def test_unknown_labeled_node_rejected(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ClassifierError):
            HarmonicClassifier(graph).predict({99: RiskLabel.RISKY})

    def test_all_labeled_returns_empty(self):
        graph = graph_from([[0.0, 1.0], [1.0, 0.0]])
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.NOT_RISKY}
        )
        assert predictions.nodes == ()
        assert predictions.masses.shape == (0, 3)

    def test_predicts_every_unlabeled_node(self):
        size = 6
        graph = graph_from(np.ones((size, size)) - np.eye(size))
        predictions = HarmonicClassifier(graph).predict({0: RiskLabel.RISKY})
        assert predictions.nodes == tuple(range(1, size))
        assert predictions.labels.shape == predictions.scores.shape == (size - 1,)


class TestHarmonicProperties:
    def test_single_label_propagates_everywhere(self):
        graph = graph_from(np.ones((4, 4)) - np.eye(4))
        predictions = HarmonicClassifier(graph).predict({0: RiskLabel.VERY_RISKY})
        assert set(predictions.label_map().values()) == {RiskLabel.VERY_RISKY}
        assert predictions.masses[:, 2] == pytest.approx(1.0)

    def test_two_cluster_separation(self):
        """Two dense blocks with a weak bridge: each block follows its
        labeled anchor."""
        weights = np.array(
            [
                [0.0, 1.0, 0.0, 0.01],
                [1.0, 0.0, 0.01, 0.0],
                [0.0, 0.01, 0.0, 1.0],
                [0.01, 0.0, 1.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 2: RiskLabel.VERY_RISKY}
        )
        labels = predictions.label_map()
        assert labels[1] is RiskLabel.NOT_RISKY
        assert labels[3] is RiskLabel.VERY_RISKY

    def test_scores_lie_in_label_hull(self):
        rng = np.random.default_rng(0)
        size = 10
        weights = rng.random((size, size))
        weights = (weights + weights.T) / 2
        np.fill_diagonal(weights, 0.0)
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.RISKY}
        )
        assert np.all(predictions.scores >= 1.0)
        assert np.all(predictions.scores <= 2.0 + 1e-9)

    def test_masses_sum_to_one(self):
        graph = graph_from(np.ones((5, 5)) - np.eye(5))
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.masses.sum(axis=1) == pytest.approx(1.0)

    def test_equidistant_node_gets_mixed_masses(self):
        weights = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        mixed = prediction_of(predictions, 2)
        assert mixed.masses[1] == pytest.approx(0.5, abs=1e-6)
        assert mixed.masses[3] == pytest.approx(0.5, abs=1e-6)
        assert mixed.score == pytest.approx(2.0, abs=1e-6)

    def test_isolated_node_falls_back_to_label_prior(self):
        weights = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.VERY_RISKY}
        )
        assert prediction_of(predictions, 2).masses[3] == pytest.approx(1.0)

    def test_closer_anchor_dominates(self):
        weights = np.array(
            [
                [0.0, 0.0, 0.9],
                [0.0, 0.0, 0.1],
                [0.9, 0.1, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.label_map()[2] is RiskLabel.NOT_RISKY

    def test_tie_breaks_toward_higher_risk(self):
        """The paper: under-prediction is the dangerous error."""
        weights = np.array(
            [
                [0.0, 0.0, 0.5],
                [0.0, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        graph = graph_from(weights)
        predictions = HarmonicClassifier(graph).predict(
            {0: RiskLabel.NOT_RISKY, 1: RiskLabel.VERY_RISKY}
        )
        assert predictions.label_map()[2] is RiskLabel.VERY_RISKY


class TestSystemBuiltInPlace:
    """The system is built in the gathered ``W_uu`` copy, and ``W_uu``
    and ``W_ul`` are cut from one gather of the unlabeled rows; the
    system must be bitwise that of the ``np.ix_`` gathers and
    ``np.diag(d + eps) - W_uu``.  The Cholesky solution matches the LU
    reference's labels exactly and its masses within 1e-12; a system
    that falls back to LU (``epsilon=0`` with isolated rows) matches the
    reference bit for bit."""

    @staticmethod
    def reference(graph, labeled, epsilon):
        labeled_idx = [graph.nodes.index(node) for node in labeled]
        unlabeled_idx = np.array(
            [i for i in range(len(graph)) if i not in labeled_idx], dtype=int
        )
        assert split_nodes(graph, labeled)[0] == labeled_idx
        anchor = np.zeros((len(labeled_idx), len(RiskLabel.values())))
        anchor[np.arange(len(labeled_idx)), label_columns(labeled)] = 1.0
        weights = np.asarray(graph.weights)
        w_uu = weights[np.ix_(unlabeled_idx, unlabeled_idx)]
        w_ul = weights[np.ix_(unlabeled_idx, labeled_idx)]
        degrees = w_uu.sum(axis=1) + w_ul.sum(axis=1)
        system = np.diag(degrees + epsilon) - w_uu
        rhs = w_ul @ anchor
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
        return system, np.clip(solution, 0.0, None)

    @staticmethod
    def sparse_graph():
        rng = np.random.default_rng(5)
        size = 24
        sparse = rng.random((size, size)) * (rng.random((size, size)) < 0.4)
        weights = np.triu(sparse, 1)
        weights = weights + weights.T
        weights[[3, 11, 17], :] = 0.0  # isolated rows (and columns)
        weights[:, [3, 11, 17]] = 0.0
        return graph_from(weights)

    LABELED = {0: RiskLabel.NOT_RISKY, 5: RiskLabel.RISKY, 9: RiskLabel.VERY_RISKY}

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.25])
    def test_system_and_solution_match_the_reference_bitwise(
        self, epsilon, monkeypatch
    ):
        # only the singular epsilon=0 system leaves Cholesky for LU
        self.assert_matches_reference(
            self.sparse_graph(),
            self.LABELED,
            epsilon,
            monkeypatch,
            fallback=epsilon == 0.0,
        )

    @pytest.mark.parametrize(
        "order", [(9, 0, 5, 22), (22, 5, 0, 9), (5, 22, 9, 0)]
    )
    def test_labels_out_of_graph_order_match_the_reference_bitwise(
        self, order, monkeypatch
    ):
        """``W_ul`` is cut from the gathered rows in the labels' mapping
        order, not graph order: a permuted mapping must still give the
        ``np.ix_`` reference's system, bit for bit, and its solution."""
        labels = [
            RiskLabel.VERY_RISKY,
            RiskLabel.NOT_RISKY,
            RiskLabel.RISKY,
            RiskLabel.NOT_RISKY,
        ]
        labeled = dict(zip(order, labels))
        self.assert_matches_reference(
            self.sparse_graph(), labeled, 1e-9, monkeypatch, fallback=False
        )

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.25])
    def test_without_lapack_binding_solve_is_the_lu_path_bitwise(
        self, epsilon, monkeypatch
    ):
        """With no ``dposv`` to call, every system goes to LU (or least
        squares), built once, and the solution is the reference's, bit
        for bit."""
        monkeypatch.setattr(harmonic, "_dposv", lambda: None)
        self.assert_matches_reference(
            self.sparse_graph(),
            self.LABELED,
            epsilon,
            monkeypatch,
            fallback=True,
            binding=False,
        )

    def test_not_positive_definite_system_takes_the_fallback(self, monkeypatch):
        """An isolated unlabeled row under ``epsilon=0`` zeroes a pivot:
        ``dposv`` refuses the system, which is rebuilt for LU."""
        graph = self.sparse_graph()
        labeled_idx, unlabeled_idx, _ = split_nodes(graph, self.LABELED)
        system, rhs = HarmonicClassifier(
            graph, ClassifierConfig(epsilon=0.0)
        )._system(self.LABELED, labeled_idx, unlabeled_idx)
        dposv = harmonic._dposv()
        assert harmonic._cholesky_solve(dposv, system, rhs) is None
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert harmonic._cholesky_solve(dposv, indefinite, np.ones((2, 3))) is None

    @pytest.mark.parametrize(
        "system, rhs",
        [
            (np.eye(4)[:, :3], np.ones((4, 3))),
            (np.eye(4)[:, ::-1], np.ones((4, 3))),
            (np.eye(4, dtype=np.float32), np.ones((4, 3))),
            (np.eye(4), np.ones((3, 3))),
        ],
    )
    def test_cholesky_solve_refuses_a_buffer_lapack_cannot_take(
        self, system, rhs
    ):
        with pytest.raises(ValueError):
            harmonic._cholesky_solve(harmonic._dposv(), system, rhs)

    def test_concurrent_solves_give_the_serial_results(self):
        """Four threads solving at once through the one ``dposv`` give
        each system's serial solution, bit for bit."""
        rng = np.random.default_rng(11)
        cases = []
        for size in (20, 40, 60, 90):
            weights = np.triu(rng.random((size, size)), 1)
            labeled = {
                node: RiskLabel(int(value))
                for node, value in zip(
                    rng.choice(size, size // 5, replace=False).tolist(),
                    rng.integers(1, 4, size // 5),
                )
            }
            classifier = HarmonicClassifier(graph_from(weights + weights.T))
            labeled_idx, unlabeled_idx, _ = split_nodes(
                classifier.graph, labeled
            )
            cases.append((classifier, labeled, labeled_idx, unlabeled_idx))

        def solve(case):
            classifier, *arguments = case
            return classifier._solve(*arguments).tobytes()

        serial = [solve(case) for case in cases]
        harmonic._dposv.cache_clear()  # the threads race to resolve it
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(25):
                assert list(pool.map(solve, cases, timeout=60)) == serial

    def assert_matches_reference(
        self, graph, labeled, epsilon, monkeypatch, fallback, binding=True
    ):
        built, lu_systems = [], []
        solve, lstsq = np.linalg.solve, np.linalg.lstsq
        cholesky_solve = harmonic._cholesky_solve

        def recording(function, systems):
            def record(system, *args, **kwargs):
                systems.append(system.copy())
                return function(system, *args, **kwargs)

            return record

        def recording_cholesky(dposv, system, rhs):
            built.append(system.copy())
            return cholesky_solve(dposv, system, rhs)

        classifier = HarmonicClassifier(
            graph, ClassifierConfig(epsilon=epsilon)
        )
        labeled_idx, unlabeled_idx, _ = split_nodes(graph, labeled)
        monkeypatch.setattr(harmonic, "_cholesky_solve", recording_cholesky)
        monkeypatch.setattr(np.linalg, "solve", recording(solve, lu_systems))
        monkeypatch.setattr(np.linalg, "lstsq", recording(lstsq, lu_systems))
        solution = classifier._solve(labeled, labeled_idx, unlabeled_idx)
        monkeypatch.undo()
        system, expected = self.reference(graph, labeled, epsilon)
        assert len(built) == binding
        assert bool(lu_systems) == fallback
        for recorded in built + lu_systems:
            assert recorded.tobytes() == system.tobytes()
        if fallback:
            assert solution.tobytes() == expected.tobytes()
        else:
            masses, expected_masses = normalized(solution), normalized(expected)
            assert np.abs(masses - expected_masses).max() <= 1e-12
            assert (labels_of(masses) == labels_of(expected_masses)).all()


def normalized(solution):
    """Rows scaled to sum 1; an all-zero row stays zero."""
    totals = solution.sum(axis=1, keepdims=True)
    return np.divide(
        solution, totals, out=np.zeros_like(solution), where=totals > 1e-12
    )


def labels_of(masses):
    """Argmax label values, ties toward the higher label."""
    return LABEL_VALUES[-1] - np.argmax(masses[:, ::-1], axis=1)
