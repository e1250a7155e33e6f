"""Classification change and stabilization (Definition 5).

Accuracy validation costs owner effort, so the learner also watches whether
predictions still *move* between rounds.  A pool is stabilized under
confidence ``c`` when no stranger's predicted label changed by at least the
tolerance

``threshold(c) = (Lmax - Lmin) * (100 - c) / 100``

between consecutive rounds.  At ``c = 100`` the tolerance is 0 and any
round with survivors counts as unstable — which, combined with the paper's
note, means the owner ends up labeling every stranger manually.  At the
cohort-average ``c ≈ 80`` the tolerance is 0.4: any whole-label flip
(|change| >= 1) destabilizes, while score drift below 0.4 does not.

The functions below operate on *continuous* label estimates (prediction
scores) so that sub-integer tolerances are meaningful; passing discrete
labels is equally valid and reproduces the strict-integer reading.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping

import numpy as np

from ..errors import LearningError
from ..types import RiskLabel, UserId


def change_threshold(confidence: float) -> float:
    """The classification-change tolerance for confidence ``c`` in [0, 100]."""
    if not 0.0 <= confidence <= 100.0:
        raise LearningError(
            f"confidence must lie in [0, 100], got {confidence}"
        )
    return RiskLabel.span() * (100.0 - confidence) / 100.0


def unstabilized_strangers(
    previous: Mapping[UserId, float],
    current: Mapping[UserId, float],
    confidence: float,
) -> frozenset[UserId]:
    """Strangers whose prediction changed by at least the tolerance.

    Only strangers present in *both* rounds are compared: a stranger
    labeled by the owner in between leaves the unlabeled set and is no
    longer subject to classification change.
    """
    threshold = change_threshold(confidence)
    common = [stranger for stranger in current if stranger in previous]
    before = np.fromiter(map(previous.__getitem__, common), float, len(common))
    after = np.fromiter(map(current.__getitem__, common), float, len(common))
    moved = np.abs(after - before) >= threshold
    return frozenset(compress(common, moved.tolist()))


def is_stabilized(
    previous: Mapping[UserId, float],
    current: Mapping[UserId, float],
    confidence: float,
) -> bool:
    """Whether the pool is stabilized between two rounds (Definition 5)."""
    return not unstabilized_strangers(previous, current, confidence)
