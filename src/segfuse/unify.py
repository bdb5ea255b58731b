"""Output unification: collapse soft teacher predictions to hard labels.

Teachers trained with different objectives emit certainty values on
incomparable scales; taking the per-pixel argmax strips the scale away so
downstream fusion sees every member's final decision and nothing else.
"""

from __future__ import annotations

import numpy as np

from .core import LabelMap, ProbMap


def unify(prob: ProbMap) -> LabelMap:
    """Per-pixel argmax over classes; ties go to the smallest class id."""
    labels = np.argmax(prob.values, axis=2).astype(np.uint16)
    return LabelMap(labels, prob.num_classes)

