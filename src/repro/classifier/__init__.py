"""Label classifiers for pool-based prediction.

The paper uses the graph-based semi-supervised classifier of Zhu,
Ghahramani & Lafferty (2003) — Gaussian fields / harmonic functions — over
a complete weighted graph whose edge weights come from profile similarity
(Section III-C).  This package implements that classifier from scratch plus
two baselines (weighted kNN, majority vote) used by the ablation benches.
"""

from .base import ClassifierFactory, PoolClassifier, PoolPredictions
from .graphs import SimilarityGraph
from .harmonic import HarmonicClassifier
from .knn import KnnClassifier
from .majority import MajorityClassifier

__all__ = [
    "ClassifierFactory",
    "HarmonicClassifier",
    "KnnClassifier",
    "MajorityClassifier",
    "PoolClassifier",
    "PoolPredictions",
    "SimilarityGraph",
]
