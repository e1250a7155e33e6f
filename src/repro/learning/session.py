"""The full per-owner risk learning session.

:class:`RiskLearningSession` wires every stage of Figure 1 of the paper:
similarity and benefit computation, pool construction, one active-learning
loop per pool, and aggregation into a
:class:`~repro.learning.results.SessionResult`.

Typical use::

    session = RiskLearningSession(graph, owner, oracle)
    result = session.run()
    labels = result.final_labels()   # a RiskLabel for every stranger
"""

from __future__ import annotations

import dataclasses
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
        Seed for the session RNG (falls back to ``config.learning.seed``).
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
        classifier_cache: dict | None = None,
    ) -> None:
        self._graph = graph
        self._owner = owner
        self._oracle = oracle
        self._config = config or PipelineConfig()
        self._classifier_factory = self._resolve_classifier(classifier)
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
        #: Optional cross-session classifier memo, ``pool_id -> (profiles,
        #: classifier)``.  When the pool's profiles are unchanged the
        #: classifier and its similarity graph are reused instead of
        #: rebuilt, so a warm re-run of an untouched-membership pool
        #: skips graph assembly.  Only consulted
        #: when no fetcher and no edge-similarity wrapper are active
        #: (both can change the effective profiles/weights per run).
        self._classifier_cache = classifier_cache
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
    def seed(self) -> int:
        """The session RNG seed."""
        return self._seed

    @property
    def pooling(self) -> PoolingStrategy:
        """The active pooling strategy."""
        return self._pooling

    @property
    def benefit_model(self) -> BenefitModel:
        """The owner's benefit measure."""
        return self._benefit_model

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def compute_similarities(self) -> dict[UserId, float]:
        """``NS(owner, s)`` for every stranger."""
        if self._network_similarity is not None:
            return {
                stranger: self._network_similarity(
                    self._graph, self._owner, stranger
                )
                for stranger in self._ego.strangers
            }
        measure = NetworkSimilarity(self._config.network_similarity)
        return measure.for_strangers(self._graph, self._owner, self._ego.strangers)

    def compute_benefits(self) -> dict[UserId, float]:
        """``B(owner, s)`` for every stranger."""
        return self._benefit_model.for_strangers(
            self._graph, self._owner, self._ego.strangers
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
            Each completed pool is persisted together with the session's
            RNG state; a re-run with the same checkpointer skips the
            completed pools and replays the remainder from the exact
            random state a killed run left behind, reproducing the
            uninterrupted run byte for byte.

        Raises
        ------
        LearningError
            If the owner has no strangers (nothing to learn about), or
            the subset contains non-strangers.
        """
        if strangers is None:
            target = self._ego.strangers
        else:
            unknown = set(strangers) - self._ego.strangers
            if unknown:
                raise LearningError(
                    f"not strangers of owner {self._owner}: "
                    f"{sorted(unknown)[:5]}"
                )
            target = frozenset(strangers)
        if not target:
            raise LearningError(
                f"owner {self._owner} has no strangers; nothing to learn"
            )
        similarities = {
            stranger: value
            for stranger, value in self.compute_similarities().items()
            if stranger in target
        }
        benefits = self.compute_benefits()
        pools = self.build_pools(similarities)
        rng = random.Random(self._seed)

        completed: dict[str, PoolResult] = {}
        if checkpointer is not None:
            completed = checkpointer.load(rng)

        pool_results: list[PoolResult] = []
        for pool in pools:
            if pool.pool_id in completed:
                pool_results.append(completed[pool.pool_id])
                continue
            result = self._run_pool(
                pool, similarities, benefits, rng, initial_labels
            )
            pool_results.append(result)
            if checkpointer is not None:
                checkpointer.record(result, rng)
        return SessionResult(
            owner=self._owner,
            pool_results=tuple(pool_results),
            confidence=self._config.learning.confidence,
        )

    def run_pool(
        self,
        pool: StrangerPool,
        similarities: Mapping[UserId, float],
        benefits: Mapping[UserId, float],
        rng: random.Random,
        initial_labels: Mapping[UserId, RiskLabel] | None = None,
    ) -> PoolResult:
        """Run one pool's learning loop with the given session RNG.

        The public seam the incremental replay
        (:mod:`repro.learning.replay`) drives: a replay that reuses some
        pools verbatim must run the *remaining* pools with the RNG in
        exactly the state a full :meth:`run` would have reached — the
        caller owns the RNG threading, this method only consumes it.
        """
        return self._run_pool(pool, similarities, benefits, rng, initial_labels)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pool: StrangerPool,
        similarities: Mapping[UserId, float],
        benefits: Mapping[UserId, float],
        rng: random.Random,
        initial_labels: Mapping[UserId, RiskLabel] | None = None,
    ) -> PoolResult:
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
        classifier = self._cached_classifier(pool.pool_id, profiles)
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
            if self._cache_eligible():
                self._classifier_cache[pool.pool_id] = (
                    list(profiles),
                    classifier,
                )
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
            rng=rng,
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

    def _cache_eligible(self) -> bool:
        """Whether the cross-session classifier memo may be used."""
        return (
            self._classifier_cache is not None
            and self._fetcher is None
            and self._edge_similarity_wrapper is None
        )

    def _cached_classifier(self, pool_id: str, profiles):
        """A memoized classifier for the pool, or ``None`` to rebuild.

        A hit requires the pool's profile list (identity *and* content)
        to equal the one the classifier's similarity graph was built
        from — the graph's edge weights are a pure function of those
        profiles and the fixed config, so the reused instance predicts
        byte-identically to a rebuilt one.
        """
        if not self._cache_eligible():
            return None
        entry = self._classifier_cache.get(pool_id)
        if entry is None:
            return None
        cached_profiles, classifier = entry
        if cached_profiles != list(profiles):
            return None
        return classifier

    @staticmethod
    def _display_names(profiles) -> dict[UserId, str]:
        """Human-readable query names, as the Sight UI would show them."""
        names = {}
        for profile in profiles:
            last_name = profile.attribute(ProfileAttribute.LAST_NAME)
            if last_name:
                names[profile.user_id] = f"{last_name} (#{profile.user_id})"
        return names

    def _resolve_classifier(
        self, classifier: str | ClassifierFactory
    ) -> ClassifierFactory:
        if callable(classifier):
            return classifier
        if classifier == "harmonic":
            return lambda graph: HarmonicClassifier(graph, self._config.classifier)
        if classifier == "knn":
            return lambda graph: KnnClassifier(graph, self._config.classifier)
        if classifier == "majority":
            return lambda graph: MajorityClassifier(graph)
        raise LearningError(
            f"unknown classifier {classifier!r}; expected one of "
            f"{CLASSIFIER_NAMES} or a factory"
        )
