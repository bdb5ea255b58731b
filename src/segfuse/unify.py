"""Output unification: collapse soft teacher predictions to hard labels.

Teachers trained with different objectives emit certainty values on
incomparable scales; taking the per-pixel argmax strips the scale away so
downstream fusion sees every member's final decision and nothing else.
``_argmax_into`` is the one pixel-major argmax: ``unify`` runs it on a
ProbMap's rows, and ``fileio.read_labels`` on each .pmap chunk as it
arrives.
"""

from __future__ import annotations

import numpy as np

from .core import LabelMap, ProbMap

#: Maps are argmaxed, and a .pmap or .npy body read (``fileio``), in blocks
#: of whole pixels of about this many bytes, each still in L2 cache for its
#: passes.  A .pmap read holds the GIL for about 8 short numpy calls a
#: chunk, so readers on two threads (``fuse-pixel``, ``fuse-channel``)
#: overlap only with large chunks.  Four 256 x 512 x 19 reads on a 2-core
#: Xeon VM, one reader / two readers: 64 KB 33 / 53 ms, 128 KB 28 / 31 ms,
#: 256 KB 26 / 22 ms, 512 KB 25 / 19 ms, 1 MB 25 / 17 ms.  512 KB takes
#: most of that gain at half the chunk buffer of 1 MB per reader.
_BLOCK_BYTES = 1 << 19


def _argmax_into(scores: np.ndarray, out: np.ndarray, ids: np.ndarray | None = None) -> None:
    """Write into the uint16 array ``out`` the argmax over the last (class)
    axis of ``scores``, float32 or float64, ties to the smallest class id.
    np.argmax copies a read-only or strided input before it starts, so it
    runs on blocks of about ``_BLOCK_BYTES`` along the first axis.  It
    writes each block's ids into ``ids``, an intp buffer of at least one
    block, then copies them to ``out``: into a uint16 ``out`` it would
    allocate and copy back an intp array of its own every block.  A caller
    with many inputs passes one ``ids``; without it, one is made per call."""
    rows = max(1, _BLOCK_BYTES // (scores[0].size * scores.itemsize))
    if ids is None:
        ids = np.empty((min(rows, len(scores)),) + scores.shape[1:-1], np.intp)
    for i in range(0, len(scores), rows):
        block = scores[i : i + rows]
        np.argmax(block, axis=-1, out=ids[: len(block)])
        out[i : i + rows] = ids[: len(block)]


def unify(prob: ProbMap) -> LabelMap:
    """Per-pixel argmax over classes; ties go to the smallest class id."""
    labels = np.empty(prob.values.shape[:2], np.uint16)
    _argmax_into(prob.values, labels)
    labels.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(labels, prob.num_classes)
