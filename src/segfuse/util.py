"""Small shared helpers: JSON numbers, CSV formatting, growing row buffers,
the core count and one worker pool on threads."""

from __future__ import annotations

import os
import threading

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


def cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS
    reports one (``os.sched_getaffinity`` is Linux-only), else the
    machine's CPU count, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def on_threads(fn, items, workers: int) -> list:
    """``[fn(w, item) for item in items]``, on ``workers`` threads, at most
    one per item: worker w takes items w, w + W, ..., in order, worker 0 on
    the calling thread.  A worker stops at its first failure, and takes
    item i only while no item below i is known to have failed, so a
    failure ends the run once the other workers' current items are done.
    Once every worker has joined, the failure of the lowest failing item is
    raised, the one a loop over ``items`` in order would raise: every item
    below it was tried."""
    items = list(items)
    results, errors = [None] * len(items), {}
    workers = max(1, min(workers, len(items)))
    lock, lowest = threading.Lock(), [len(items)]  # the lowest failing item yet

    def work(w):
        for i in range(w, len(items), workers):
            if lowest[0] < i:
                return
            try:
                results[i] = fn(w, items[i])
            except BaseException as e:  # raised once every worker is joined
                errors[i] = e
                with lock:
                    lowest[0] = min(lowest[0], i)
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results


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
