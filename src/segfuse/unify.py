"""Output unification: collapse soft teacher predictions to hard labels.

Teachers trained with different objectives emit certainty values on
incomparable scales; taking the per-pixel argmax strips the scale away so
downstream fusion sees every member's final decision and nothing else.
``_argmax_into`` is the one pixel-major argmax: ``unify`` runs it on a
ProbMap's rows, and ``fileio.read_labels`` on each .pmap chunk as it
arrives, each in ``util.RowBlock`` blocks.
"""

from __future__ import annotations

import numpy as np

from .core import LabelMap, ProbMap
from .util import RowBlock


def _argmax_into(scores: np.ndarray, out: np.ndarray, ids: np.ndarray | None = None) -> None:
    """Write into the uint16 array ``out`` the argmax over the last (class)
    axis of ``scores``, float32 or float64, ties to the smallest class id.
    np.argmax copies a read-only or strided input before it starts, so it
    runs on ``RowBlock`` blocks along the first axis.  It writes each
    block's ids into ``ids``, an intp buffer of at least one block, then
    copies them to ``out``: into a uint16 ``out`` it would allocate and
    copy back an intp array of its own every block.  A caller with many
    inputs passes one ``ids``; without it, one is made per call."""
    block = RowBlock(scores[0].size * scores.itemsize)
    if ids is None:
        ids = np.empty((min(block.rows, len(scores)),) + scores.shape[1:-1], np.intp)
    for cut in block.cuts(len(scores)):
        got = ids[: len(scores[cut])]
        np.argmax(scores[cut], axis=-1, out=got)
        out[cut] = got


def unify(prob: ProbMap) -> LabelMap:
    """Per-pixel argmax over classes; ties go to the smallest class id."""
    labels = np.empty(prob.values.shape[:2], np.uint16)
    _argmax_into(prob.values, labels)
    labels.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(labels, prob.num_classes)
