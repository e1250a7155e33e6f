"""repro — reproduction of "Privacy in Social Networks: How Risky is Your
Social Graph?" (Akcora, Carminati & Ferrari, ICDE 2012).

The library estimates, for a social-network *owner*, how risky it would be
to interact with each of their *strangers* (2-hop contacts), on the
three-point scale not-risky / risky / very-risky.  Because stranger sets
number in the thousands, labels are learned with pool-based active
learning: the owner answers a handful of similarity-and-benefit-framed
questions, and a graph-based semi-supervised classifier predicts the rest.

Quickstart::

    from repro import RiskLearningSession
    from repro.synth import generate_study_population

    population = generate_study_population(num_owners=1, seed=7)
    owner = population.owners[0]
    session = RiskLearningSession(
        population.graph, owner.user_id, owner.as_oracle(), seed=7
    )
    result = session.run()
    print(result.exact_match_accuracy, result.labels_requested)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .benefits import BenefitModel, ThetaWeights
from .classifier import (
    HarmonicClassifier,
    KnnClassifier,
    MajorityClassifier,
    PoolPredictions,
    SimilarityGraph,
)
from .clustering import (
    NetworkSimilarityGroup,
    StrangerPool,
    build_network_only_pools,
    build_pools,
    network_similarity_groups,
    squeezer,
)
from .config import (
    ClassifierConfig,
    LearningConfig,
    NetworkSimilarityConfig,
    PipelineConfig,
    PoolingConfig,
    ProfileSimilarityConfig,
)
from .errors import ReproError
from .graph import EgoNetwork, Profile, SocialGraph
from .learning import (
    CallbackOracle,
    LabelOracle,
    LabelQuery,
    PoolLearner,
    PoolResult,
    RecordingOracle,
    RiskLearningSession,
    RoundRecord,
    ScriptedOracle,
    SessionResult,
    StopReason,
    render_question,
    root_mean_square_error,
)
from .similarity import NetworkSimilarity, ProfileSimilarity
from .types import (
    BenefitItem,
    Gender,
    Locale,
    ProfileAttribute,
    RiskLabel,
    VisibilityLevel,
)

__version__ = "1.0.0"

__all__ = [
    "BenefitItem",
    "BenefitModel",
    "CallbackOracle",
    "ClassifierConfig",
    "EgoNetwork",
    "Gender",
    "HarmonicClassifier",
    "KnnClassifier",
    "LabelOracle",
    "LabelQuery",
    "LearningConfig",
    "Locale",
    "MajorityClassifier",
    "NetworkSimilarity",
    "NetworkSimilarityConfig",
    "NetworkSimilarityGroup",
    "PipelineConfig",
    "PoolLearner",
    "PoolPredictions",
    "PoolResult",
    "PoolingConfig",
    "Profile",
    "ProfileAttribute",
    "ProfileSimilarity",
    "ProfileSimilarityConfig",
    "RecordingOracle",
    "ReproError",
    "RiskLabel",
    "RiskLearningSession",
    "RoundRecord",
    "ScriptedOracle",
    "SessionResult",
    "SimilarityGraph",
    "SocialGraph",
    "StopReason",
    "StrangerPool",
    "ThetaWeights",
    "VisibilityLevel",
    "build_network_only_pools",
    "build_pools",
    "network_similarity_groups",
    "render_question",
    "root_mean_square_error",
    "squeezer",
    "__version__",
]
