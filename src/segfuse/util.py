"""Small shared helpers: numerics and CSV formatting."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``, as a new array."""
    return softmax_inplace(np.array(logits, dtype=np.float64), axis)


def softmax_inplace(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of the float64 array ``z`` along ``axis``, written over ``z``.

    Bit-identical to ``e = exp(z - z.max(axis)); e / e.sum(axis)``.  The
    max is taken one class slice at a time, because a max-reduction over
    a short inner axis is slow in numpy and max is exact in any order;
    the sum keeps its order.  Returns ``z``.
    """
    slices = np.moveaxis(z, axis, 0)
    m = np.array(slices[0])
    for s in slices[1:]:
        np.maximum(m, s, out=m)
    z -= np.expand_dims(m, axis)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
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
