"""Small shared helpers: numerics and CSV formatting."""

from __future__ import annotations

import numpy as np


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Softmax of the float64 array ``z`` along its last axis, written over ``z``.

    The max goes one class slice at a time (numpy is slow over a short inner
    axis; max is exact in any order) and the row sum is a BLAS product with
    ones: deterministic for a given shape, and exact on ties.  Returns ``z``.
    """
    m = np.array(z[..., 0])
    for c in range(1, z.shape[-1]):
        np.maximum(m, z[..., c], out=m)
    z -= m[..., None]
    np.exp(z, out=z)
    z /= (z @ np.ones(z.shape[-1]))[..., None]
    return z


def json_number(value, integral: bool = False) -> bool:
    """Whether a decoded JSON value is an int64-sized integer or, unless
    ``integral``, a float.  JSON true and false (Python bools) are not numbers."""
    if isinstance(value, int) and not isinstance(value, bool):
        return -(2**63) <= value < 2**63
    return isinstance(value, float) and not integral


def format_cell(value) -> str:
    """Deterministic CSV cell: shortest round-trip repr for floats."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"
