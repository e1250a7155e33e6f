"""Configuration objects for every stage of the risk-learning pipeline.

The paper fixes a handful of parameters in Section IV-B:

* ``alpha = 10`` network similarity groups (Definition 1);
* ``beta = 0.4`` Squeezer new-cluster threshold (Definition 3);
* ``3`` strangers labeled by the owner per active-learning round;
* a pool is *stabilized* after ``n = 2`` rounds without classification
  change (Definition 5), with owner confidence ``c`` averaging ~78.39;
* the accuracy stopping condition requires RMSE < ``0.5`` (Section III-D).

All configs are frozen dataclasses validated at construction time, so an
invalid experiment fails loudly before any computation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .types import ProfileAttribute


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class NetworkSimilarityConfig:
    """Parameters of the reconstructed ``NS()`` measure (ref [9]).

    ``NS(o, s) = count_factor * cohesion_factor`` with

    * ``count_factor = m / (m + kappa)`` where ``m`` is the number of mutual
      friends — saturating, so the measure grows with mutual friends but
      stays bounded;
    * ``cohesion_factor = cohesion_floor + (1 - cohesion_floor) * density``
      where ``density`` is the edge density of the mutual-friend subgraph —
      strangers attached to a *dense community* around the owner score
      higher, exactly the property the paper attributes to ``NS()``.

    With the defaults, a stranger with 40 mutual friends of moderate
    cohesion lands near 0.6, matching the paper's empirical ceiling
    (Figure 4: no stranger above 0.6).
    """

    kappa: float = 5.0
    cohesion_floor: float = 0.5

    def __post_init__(self) -> None:
        _require(self.kappa > 0, f"kappa must be positive, got {self.kappa}")
        _require(
            0.0 <= self.cohesion_floor <= 1.0,
            f"cohesion_floor must lie in [0, 1], got {self.cohesion_floor}",
        )


@dataclass(frozen=True)
class ProfileSimilarityConfig:
    """Parameters of the reconstructed ``PS()`` measure (ref [9]).

    Identical attribute values score 1.  Non-identical values receive a
    *non-zero* score derived from value frequencies in the reference
    population: mismatching on two very common values (e.g. two frequent
    last names) is less informative than mismatching on rare ones, so the
    residual similarity is the product of the two value frequencies, scaled
    by ``mismatch_scale``.
    """

    mismatch_scale: float = 1.0

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.mismatch_scale <= 1.0,
            f"mismatch_scale must lie in [0, 1], got {self.mismatch_scale}",
        )


@dataclass(frozen=True)
class PoolingConfig:
    """Pool construction parameters (Definitions 1-3).

    ``alpha`` equal-width network-similarity bins over [0, 1] form the
    first-level groups; within each group Squeezer clusters profiles with
    new-cluster threshold ``beta`` using ``attributes`` and their weights.
    """

    alpha: int = 10
    beta: float = 0.4
    attributes: tuple[ProfileAttribute, ...] = field(
        default_factory=ProfileAttribute.clustering_attributes
    )
    #: Default Squeezer weights follow the paper's mined attribute
    #: importance (Table I: gender 0.6231, locale 0.3226, last name
    #: 0.0542) — "these weights help us in catching the relevance of some
    #: profile items over the others while grouping strangers".
    attribute_weights: tuple[float, ...] | None = (0.6231, 0.3226, 0.0542)
    #: Pools smaller than this are merged into their NSG sibling pool; tiny
    #: pools would each spawn a learning process with nothing to learn (and
    #: force the owner to label every member).
    min_pool_size: int = 5

    def __post_init__(self) -> None:
        _require(self.alpha >= 1, f"alpha must be >= 1, got {self.alpha}")
        _require(0.0 < self.beta <= 1.0, f"beta must lie in (0, 1], got {self.beta}")
        _require(len(self.attributes) > 0, "at least one clustering attribute is required")
        if self.attribute_weights is not None:
            _require(
                len(self.attribute_weights) == len(self.attributes),
                "attribute_weights must match attributes in length",
            )
            _require(
                all(weight >= 0 for weight in self.attribute_weights),
                "attribute_weights must be non-negative",
            )
            _require(
                sum(self.attribute_weights) > 0,
                "attribute_weights must not all be zero",
            )
        _require(self.min_pool_size >= 1, "min_pool_size must be >= 1")

    def normalized_weights(self) -> dict[ProfileAttribute, float]:
        """Attribute-to-weight mapping normalized to sum to 1."""
        if self.attribute_weights is None:
            uniform = 1.0 / len(self.attributes)
            return {attribute: uniform for attribute in self.attributes}
        total = float(sum(self.attribute_weights))
        return {
            attribute: weight / total
            for attribute, weight in zip(self.attributes, self.attribute_weights)
        }


@dataclass(frozen=True)
class ClassifierConfig:
    """Parameters for label classifiers.

    ``epsilon`` regularizes the harmonic linear system (added to the
    diagonal), ``knn_k`` is the neighborhood size of the kNN baseline, and
    ``min_edge_weight`` drops near-zero similarity edges to keep the
    similarity graph sparse.
    """

    epsilon: float = 1e-9
    knn_k: int = 5
    min_edge_weight: float = 0.0
    #: Edge weights are raised to this power before the harmonic solve.
    #: Zhu et al. use an RBF kernel whose bandwidth controls how sharply
    #: weight decays with distance; with the bounded categorical ``PS()``
    #: the exponent plays that role (1.0 = raw similarities).
    edge_sharpening: float = 8.0

    def __post_init__(self) -> None:
        _require(self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}")
        _require(self.knn_k >= 1, f"knn_k must be >= 1, got {self.knn_k}")
        _require(
            0.0 <= self.min_edge_weight < 1.0,
            f"min_edge_weight must lie in [0, 1), got {self.min_edge_weight}",
        )
        _require(
            self.edge_sharpening > 0,
            f"edge_sharpening must be positive, got {self.edge_sharpening}",
        )


@dataclass(frozen=True)
class LearningConfig:
    """Active-learning loop parameters (Section III-D / IV-B).

    * ``labels_per_round`` — strangers the owner labels each round (3 in the
      paper, "to keep minimum the owner effort");
    * ``rmse_threshold`` — accuracy part of the stopping condition;
    * ``stable_rounds`` — the ``n`` of the stabilization condition;
    * ``confidence`` — the owner-chosen confidence ``c`` in [0, 100] used by
      the classification-change tolerance (Definition 5);
    * ``max_rounds`` — hard cap so degenerate oracles terminate.
    """

    labels_per_round: int = 3
    rmse_threshold: float = 0.5
    stable_rounds: int = 2
    confidence: float = 80.0
    max_rounds: int = 50
    seed: int | None = None
    #: Which stopping criteria apply: the paper's ``"combined"`` rule, or
    #: the single-criterion variants used by the stopping-rule ablation.
    stopping_mode: str = "combined"

    def __post_init__(self) -> None:
        _require(self.labels_per_round >= 1, "labels_per_round must be >= 1")
        _require(self.rmse_threshold >= 0, "rmse_threshold must be >= 0")
        _require(self.stable_rounds >= 1, "stable_rounds must be >= 1")
        _require(
            0.0 <= self.confidence <= 100.0,
            f"confidence must lie in [0, 100], got {self.confidence}",
        )
        _require(self.max_rounds >= 1, "max_rounds must be >= 1")
        _require(
            self.stopping_mode in ("combined", "accuracy", "stabilization"),
            f"stopping_mode must be 'combined', 'accuracy' or "
            f"'stabilization', got {self.stopping_mode!r}",
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of every stage's configuration with paper defaults."""

    network_similarity: NetworkSimilarityConfig = field(
        default_factory=NetworkSimilarityConfig
    )
    profile_similarity: ProfileSimilarityConfig = field(
        default_factory=ProfileSimilarityConfig
    )
    pooling: PoolingConfig = field(default_factory=PoolingConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
