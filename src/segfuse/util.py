"""Small shared helpers: JSON numbers, CSV formatting and growing row buffers."""

from __future__ import annotations

import numpy as np


def json_number(value, integral: bool = False) -> bool:
    """Whether a decoded JSON value is an int64-sized integer or, unless
    ``integral``, a float.  JSON true and false (Python bools) are not numbers."""
    if isinstance(value, int) and not isinstance(value, bool):
        return -(2**63) <= value < 2**63
    return isinstance(value, float) and not integral


def grow_rows(rows: np.ndarray, end: int, limit: int) -> None:
    """Grow the array ``rows`` in place along its first axis to hold
    ``end`` rows when it does not: to twice its rows, at most ``limit``, so
    a few reallocations copy it, not one per append."""
    if end > len(rows):
        rows.resize((min(max(end, 2 * len(rows)), limit), *rows.shape[1:]), refcheck=False)


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
