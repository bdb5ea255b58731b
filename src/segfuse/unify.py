"""Output unification: collapse soft teacher predictions to hard labels.

Teachers trained with different objectives emit certainty values on
incomparable scales; taking the per-pixel argmax strips the scale away so
downstream fusion sees every member's final decision and nothing else.
"""

from __future__ import annotations

import numpy as np

from .core import LabelMap, ProbMap


def argmax_labels(scores: np.ndarray) -> LabelMap:
    """Per-pixel argmax over the class axis of an H x W x C array (float32
    or float64); ties go to the smallest class id."""
    labels = np.argmax(scores, axis=2).astype(np.uint16)
    labels.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(labels, scores.shape[2])


def unify(prob: ProbMap) -> LabelMap:
    """Per-pixel argmax over classes; ties go to the smallest class id."""
    return argmax_labels(prob.values)
