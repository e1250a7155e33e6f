"""The full per-owner risk learning session.

:class:`RiskLearningSession` holds every stage of Figure 1 of the paper:
similarity and benefit computation, pool construction, one active-learning
loop per pool, and aggregation into a
:class:`~repro.learning.results.SessionResult`.  The stages run in one
place, :func:`repro.learning.replay.replay_session`, which :meth:`run`
calls.

Typical use::

    session = RiskLearningSession(graph, owner, oracle)
    result = session.run()
    labels = result.final_labels()   # a RiskLabel for every stranger
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Literal, Mapping

from ..similarity.profile import attribute_coverage

from ..benefits.model import BenefitModel
from ..classifier.base import ClassifierFactory
from ..classifier.graphs import SimilarityGraph
from ..classifier.harmonic import HarmonicClassifier
from ..classifier.knn import KnnClassifier
from ..classifier.majority import MajorityClassifier
from ..clustering.pools import StrangerPool, build_network_only_pools, build_pools
from ..config import PipelineConfig
from ..errors import LearningError
from ..graph.ego import EgoNetwork
from ..graph.social_graph import SocialGraph
from ..similarity.network import NetworkSimilarity
from ..similarity.profile import ProfileSimilarity
from ..types import ProfileAttribute, RiskLabel, UserId
from .oracle import LabelOracle
from .pool_learner import PoolLearner
from .results import PoolResult, SessionResult
from .sampling import Sampler
from .stopping import StopReason

#: Names accepted by the ``classifier`` shorthand.
CLASSIFIER_NAMES = ("harmonic", "knn", "majority")

#: Default attribute weights for the classifier's PS() edge weights.  The
#: paper notes that per-item weights "help us in catching the relevance of
#: some profile items over the others"; the clustering attributes (which
#: Table I shows carry the owner's rationale) get the larger shares.
DEFAULT_EDGE_WEIGHTS: dict[ProfileAttribute, float] = {
    ProfileAttribute.GENDER: 0.30,
    ProfileAttribute.LOCALE: 0.25,
    ProfileAttribute.LAST_NAME: 0.09,
    ProfileAttribute.HOMETOWN: 0.09,
    ProfileAttribute.EDUCATION: 0.09,
    ProfileAttribute.WORK: 0.09,
    ProfileAttribute.LOCATION: 0.09,
}

#: Pooling strategies: the paper's NPP pools or the NSP baseline.
PoolingStrategy = Literal["npp", "nsp"]

#: Session-constructor hooks that make reusing a prior run unsound: a
#: fetcher can drop members nondeterministically w.r.t. the replay
#: fingerprints, a custom NS() or edge-similarity wrapper breaks the
#: dirty-set derivation (which is exact only for the default structural
#: measure), and a custom sampler may carry state from pool to pool that
#: the fingerprints do not capture.
REPLAY_UNSAFE_KWARGS = (
    "fetcher",
    "network_similarity",
    "edge_similarity_wrapper",
    "sampler",
)


def pool_rng(seed: int | None, pool_id: str) -> random.Random:
    """The sampling RNG of one pool: a stream of its own.

    Seeded from ``(seed, pool_id)`` as a string, which is stable across
    processes, so a pool's outcome depends on nothing but its own
    inputs — the paper runs one active-learning process per pool
    (Section III-D).  An unseeded session (``seed=None``) stays
    unseeded.
    """
    if seed is None:
        return random.Random()
    return random.Random(f"{seed}:{pool_id}")


class RiskLearningSession:
    """End-to-end risk learning for one owner.

    Parameters
    ----------
    graph:
        The social graph.
    owner:
        The owner's user id.
    oracle:
        Answers the owner's risk-label queries.
    config:
        Full pipeline configuration (paper defaults when omitted).
    classifier:
        Either one of ``"harmonic"`` (the paper's choice), ``"knn"``,
        ``"majority"``, or a custom
        :class:`~repro.classifier.base.ClassifierFactory`.
    pooling:
        ``"npp"`` for network-and-profile pools (Definition 3) or
        ``"nsp"`` for network-only pools (the Section IV-C baseline).
    benefit_model:
        Owner's benefit measure; defaults to Table III thetas.
    sampler:
        In-pool sampling strategy override.
    seed:
        Seed of the per-pool sampling RNGs (falls back to
        ``config.learning.seed``; ``None`` leaves them unseeded).
    edge_similarity_wrapper:
        Optional hook wrapping the per-pool ``PS()`` measure before edge
        weights are computed — e.g.
        ``lambda ps: VisibilityAugmentedSimilarity(ps, mix=0.3)`` for the
        visibility-augmented extension; it must return a
        :class:`~repro.classifier.graphs.PairwiseSimilarity`.  ``None``
        keeps the paper's edge weights.
    fetcher:
        Optional profile fetcher (``fetch(graph, user_ids)`` returning a
        :class:`~repro.resilience.FetchReport`), e.g. a
        :class:`~repro.resilience.ResilientFetcher` over a fault-injected
        source.  ``None`` reads profiles straight off the graph.  Members
        whose profiles never arrive are flagged unreachable in the pool
        result instead of aborting the session.
    """

    def __init__(
        self,
        graph: SocialGraph,
        owner: UserId,
        oracle: LabelOracle,
        config: PipelineConfig | None = None,
        classifier: str | ClassifierFactory = "harmonic",
        pooling: PoolingStrategy = "npp",
        benefit_model: BenefitModel | None = None,
        sampler: Sampler | None = None,
        seed: int | None = None,
        edge_similarity_wrapper=None,
        network_similarity=None,
        fetcher=None,
    ) -> None:
        self._graph = graph
        self._owner = owner
        self._oracle = oracle
        self._config = config or PipelineConfig()
        self._classifier_factory = self._resolve_classifier(
            classifier, self._config
        )
        if pooling not in ("npp", "nsp"):
            raise LearningError(f"unknown pooling strategy {pooling!r}")
        self._pooling: PoolingStrategy = pooling
        self._benefit_model = benefit_model or BenefitModel()
        self._sampler = sampler
        self._seed = seed if seed is not None else self._config.learning.seed
        self._edge_similarity_wrapper = edge_similarity_wrapper
        #: Optional NS() override (any SimilarityMeasure); ``None`` uses
        #: the default reconstruction with the session's config.
        self._network_similarity = network_similarity
        self._fetcher = fetcher
        self._ego = EgoNetwork(graph, owner)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def ego(self) -> EgoNetwork:
        """The owner's ego view (friends / strangers)."""
        return self._ego

    @property
    def config(self) -> PipelineConfig:
        """The active configuration."""
        return self._config

    @property
    def seed(self) -> int | None:
        """The seed every pool's RNG is derived from."""
        return self._seed

    @property
    def pooling(self) -> PoolingStrategy:
        """The active pooling strategy."""
        return self._pooling

    @property
    def benefit_model(self) -> BenefitModel:
        """The owner's benefit measure."""
        return self._benefit_model

    @property
    def hooked(self) -> bool:
        """Whether any :data:`REPLAY_UNSAFE_KWARGS` hook is set.

        A hooked session's outcome is not a function of the replay
        fingerprints, so the driver never reuses a prior run for it.
        """
        return any(
            getattr(self, f"_{name}") is not None
            for name in REPLAY_UNSAFE_KWARGS
        )

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def compute_similarities(
        self, strangers: frozenset[UserId] | None = None
    ) -> dict[UserId, float]:
        """``NS(owner, s)`` for every stranger, or for ``strangers`` only."""
        targets = self._ego.strangers if strangers is None else strangers
        if self._network_similarity is not None:
            return {
                stranger: self._network_similarity(
                    self._graph, self._owner, stranger
                )
                for stranger in targets
            }
        measure = NetworkSimilarity(self._config.network_similarity)
        return measure.for_strangers(self._graph, self._owner, targets)

    def compute_benefits(
        self, strangers: frozenset[UserId] | None = None
    ) -> dict[UserId, float]:
        """``B(owner, s)`` for every stranger, or for ``strangers`` only."""
        targets = self._ego.strangers if strangers is None else strangers
        return self._benefit_model.for_strangers(
            self._graph, self._owner, targets
        )

    def build_pools(
        self, similarities: Mapping[UserId, float] | None = None
    ) -> list[StrangerPool]:
        """Construct the stranger pools per the session's strategy."""
        if similarities is None:
            similarities = self.compute_similarities()
        if self._pooling == "nsp":
            return build_network_only_pools(similarities, self._config.pooling)
        return build_pools(
            similarities, self._ego.stranger_profiles(), self._config.pooling
        )

    def run(
        self,
        strangers: frozenset[UserId] | set[UserId] | None = None,
        initial_labels: Mapping[UserId, RiskLabel] | None = None,
        checkpointer=None,
    ) -> SessionResult:
        """Run the full session: pools, loops, aggregation.

        The pipeline itself is :func:`repro.learning.replay.replay_session`,
        the one driver the serving layer's warm replays also run.

        Parameters
        ----------
        strangers:
            Optional subset of the owner's strangers to learn over.  The
            Sight crawler discovers strangers progressively; passing the
            discovered prefix runs the paper's start-labeling-on-day-one
            workflow.  Ids outside the owner's stranger set raise.
        initial_labels:
            Owner labels already gathered (e.g. by a previous session on
            an earlier snapshot of the graph).  They seed each pool's
            labeled set without new oracle queries — the warm start used
            by :mod:`repro.learning.incremental`.
        checkpointer:
            Optional :class:`~repro.io.checkpoint.SessionCheckpointer`.
            Each completed pool is persisted; a re-run with the same
            checkpointer skips the completed pools and runs the rest,
            reproducing the uninterrupted run byte for byte (every pool
            draws from its own RNG, see :func:`pool_rng`).

        Raises
        ------
        LearningError
            If the owner has no strangers (nothing to learn about), or
            the subset contains non-strangers.
        """
        from .replay import replay_session  # replay imports this module

        return replay_session(
            self,
            strangers=strangers,
            initial_labels=initial_labels,
            checkpointer=checkpointer,
        ).result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pool: StrangerPool,
        similarities: Mapping[UserId, float],
        benefits: Mapping[UserId, float],
        initial_labels: Mapping[UserId, RiskLabel] | None,
        classifiers: dict[str, tuple],
    ) -> PoolResult:
        """Run one pool's learning loop on the pool's own RNG.

        ``classifiers`` is the cross-run memo ``pool_id -> (profiles,
        classifier)``: when the pool's profiles are unchanged the
        classifier and its similarity graph are reused instead of
        rebuilt.  Hooked sessions neither read nor fill it (a fetcher or
        an edge wrapper can change the effective profiles or weights).
        """
        if self._fetcher is not None:
            report = self._fetcher.fetch(self._graph, pool.members)
            profiles = list(report.profiles)
            fetch_unreachable = frozenset(report.unreachable)
        else:
            profiles = self._graph.profiles(pool.members)
            fetch_unreachable = frozenset()
        members = tuple(
            member for member in pool.members if member not in fetch_unreachable
        )
        if not members:
            # The whole pool's data is gone: flag it, don't abort the run.
            return PoolResult(
                pool_id=pool.pool_id,
                nsg_index=pool.nsg_index,
                rounds=(),
                owner_labels={},
                predicted_labels={},
                stop_reason=StopReason.MAX_ROUNDS,
                unreachable=frozenset(pool.members),
                profile_coverage=0.0,
            )
        classifier = None
        if not self.hooked:
            cached = classifiers.get(pool.pool_id)
            # A hit requires the pool's profile list to equal the one the
            # classifier's graph was built from: its edge weights are a
            # pure function of those profiles and the fixed config.
            if cached is not None and cached[0] == list(profiles):
                classifier = cached[1]
        if classifier is None:
            # Edge weights use PS() built on the pool's own profiles — "the
            # frequency of the item values in the data set (i.e., the
            # profiles in the considered pool)" (Section III-C).
            pool_similarity = ProfileSimilarity(
                profiles,
                attributes=tuple(ProfileAttribute),
                weights=DEFAULT_EDGE_WEIGHTS,
                config=self._config.profile_similarity,
            )
            edge_similarity = (
                self._edge_similarity_wrapper(pool_similarity)
                if self._edge_similarity_wrapper is not None
                else pool_similarity
            )
            similarity_graph = SimilarityGraph.from_profiles(
                profiles,
                edge_similarity,
                min_edge_weight=self._config.classifier.min_edge_weight,
                sharpening=self._config.classifier.edge_sharpening,
            )
            classifier = self._classifier_factory(similarity_graph)
            if not self.hooked:
                classifiers[pool.pool_id] = (list(profiles), classifier)
        learner = PoolLearner(
            pool_id=pool.pool_id,
            nsg_index=pool.nsg_index,
            members=members,
            classifier=classifier,
            oracle=self._oracle,
            config=self._config.learning,
            similarities=similarities,
            benefits=benefits,
            names=self._display_names(profiles),
            sampler=self._sampler,
            rng=pool_rng(self._seed, pool.pool_id),
            initial_labels=initial_labels,
        )
        result = learner.run()
        if self._fetcher is None:
            return result
        return dataclasses.replace(
            result,
            unreachable=result.unreachable | fetch_unreachable,
            profile_coverage=attribute_coverage(profiles),
        )

    @staticmethod
    def _display_names(profiles) -> dict[UserId, str]:
        """Human-readable query names, as the Sight UI would show them."""
        names = {}
        for profile in profiles:
            last_name = profile.attribute(ProfileAttribute.LAST_NAME)
            if last_name:
                names[profile.user_id] = f"{last_name} (#{profile.user_id})"
        return names

    @staticmethod
    def _resolve_classifier(
        classifier: str | ClassifierFactory, config: PipelineConfig
    ) -> ClassifierFactory:
        # Built from the config, not closures over the session: a factory
        # referring back to its session would keep every session alive
        # until the cyclic garbage collector ran.
        if callable(classifier):
            return classifier
        if classifier == "harmonic":
            return functools.partial(
                HarmonicClassifier, config=config.classifier
            )
        if classifier == "knn":
            return functools.partial(KnnClassifier, config=config.classifier)
        if classifier == "majority":
            return MajorityClassifier
        raise LearningError(
            f"unknown classifier {classifier!r}; expected one of "
            f"{CLASSIFIER_NAMES} or a factory"
        )
