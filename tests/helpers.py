"""Helpers shared by the test modules."""

import numpy as np

from segfuse.core import IoUReport


def reports_from_matrix(scores):
    """One report per column of a |C| x |T| score matrix, in member order."""
    m = np.asarray(scores, dtype=np.float64)
    return [IoUReport(m[:, t]) for t in range(m.shape[1])]
