"""Output unification: collapse soft teacher predictions to hard labels.

Teachers trained with different objectives emit certainty values on
incomparable scales; taking the per-pixel argmax strips the scale away so
downstream fusion sees every member's final decision and nothing else.
"""

from __future__ import annotations

import numpy as np

from .core import LabelMap, ProbMap


# np.argmax copies a read-only input (a frozen ProbMap) whole before it
# starts, so it is run on row blocks of about this size.
_BLOCK_BYTES = 1 << 18


def argmax_labels(scores: np.ndarray) -> LabelMap:
    """Per-pixel argmax over the class axis of an H x W x C array (float32
    or float64); ties go to the smallest class id."""
    ids = np.empty(scores.shape[:2], np.intp)
    rows = max(1, _BLOCK_BYTES // (scores[0].size * scores.itemsize))
    for i in range(0, len(scores), rows):
        np.argmax(scores[i : i + rows], axis=2, out=ids[i : i + rows])
    labels = ids.astype(np.uint16)
    labels.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(labels, scores.shape[2])


def unify(prob: ProbMap) -> LabelMap:
    """Per-pixel argmax over classes; ties go to the smallest class id."""
    return argmax_labels(prob.values)
