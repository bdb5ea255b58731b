"""Helpers shared by the test modules."""

import struct

import numpy as np

from segfuse.core import IoUReport, ProbMap
from segfuse.distill import measure_teacher
from segfuse.policy import select_certainty


def certainty_policy(members, feats, config):
    """The certainty-aware policy: ``select_certainty`` over each member's rho."""
    return select_certainty([measure_teacher(m, feats, config) for m in members])


def reports_from_matrix(scores):
    """One report per column of a |C| x |T| score matrix, in member order."""
    m = np.asarray(scores, dtype=np.float64)
    return [IoUReport(m[:, t]) for t in range(m.shape[1])]


def read_probmap(data) -> ProbMap:
    """The float64 ProbMap of a .pmap's bytes, decoded without ``fileio``:
    the oracle for ``fileio.read_labels`` and for the codec round trips."""
    magic, version, h, w, c = struct.unpack_from("<4sIIIH", data)
    if (magic, version) != (b"PMAP", 1) or len(data) != 18 + 4 * h * w * c:
        raise ValueError("not a version 1 .pmap")
    return ProbMap(np.frombuffer(data, "<f4", offset=18).reshape(h, w, c).astype(np.float64))
