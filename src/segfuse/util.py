"""Small shared helpers: JSON numbers, CSV formatting, growing row buffers,
the one row block every streamed map is cut into (``RowBlock``), and the
one thread policy: the core count, the OpenBLAS pin, the worker count and
one worker pool on threads."""

from __future__ import annotations

import contextlib
import ctypes
import functools
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


#: Maps are argmaxed (``unify``), a .pmap or .npy body read and written
#: (``fileio``) and a synthetic map drawn (``synth``) in blocks of whole
#: rows of about this many bytes, each still in L2 cache for its passes.
#: A .pmap read holds the GIL for about 8 short numpy calls a chunk, so
#: readers on two threads (``fuse-pixel``, ``fuse-channel``) overlap only
#: with large chunks.  Four 256 x 512 x 19 reads on a 2-core Xeon VM, one
#: reader / two readers: 64 KB 33 / 53 ms, 128 KB 28 / 31 ms, 256 KB
#: 26 / 22 ms, 512 KB 25 / 19 ms, 1 MB 25 / 17 ms.  512 KB takes most of
#: that gain at half the chunk buffer of 1 MB per reader.
_BLOCK_BYTES = 1 << 19


class RowBlock:
    """The block of rows of ``row_bytes`` bytes each that fits in about
    ``_BLOCK_BYTES``: ``rows`` of them, at least one, and ``cuts(n)``,
    the slices that cut ``n`` rows into such blocks, the last one short."""

    def __init__(self, row_bytes: int):
        self.rows = max(1, _BLOCK_BYTES // max(row_bytes, 1))

    def cuts(self, n: int) -> list:
        return [slice(r, r + self.rows) for r in range(0, n, self.rows)]


def cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS
    reports one (``os.sched_getaffinity`` is Linux-only), else the
    machine's CPU count, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles (``numpy.libs/libscipy_openblas64_*.so``), or None where numpy
    has no such library or it lacks them, as other numpy builds do."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(n for n in os.listdir(libs)
                    if n.startswith("libscipy_openblas64_") and n.endswith(".so"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get, set_count = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    return get, set_count


#: ``one_blas_thread``'s lock, and its entrants inside and the thread
#: count the first of them found.
_BLAS_PIN_LOCK = threading.Lock()
_blas_pin = {"depth": 0, "before": None}


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with ``_openblas`` on one thread, then give back the
    caller's thread count, however the body ends.  So the body's gemms give
    their one-thread bits whatever count the caller set, on every OpenBLAS
    kernel, and ``on_threads``' workers do not each start BLAS threads.  The
    count is process-global: BLAS calls of other threads run on one thread
    too meanwhile.  Bodies may overlap, on one thread or several: the
    first to enter saves the count and pins it, and the last to leave
    gives it back, so every body runs pinned.  Without the library this
    does nothing."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_count = blas
    with _BLAS_PIN_LOCK:
        if not _blas_pin["depth"]:
            _blas_pin["before"] = get()
            set_count(1)
        _blas_pin["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_PIN_LOCK:
            _blas_pin["depth"] -= 1
            if not _blas_pin["depth"]:
                set_count(_blas_pin["before"])


def workers(items: int) -> int:
    """``on_threads``' worker count for ``items`` items whose BLAS calls
    run in ``one_blas_thread`` bodies: one per core, at most one per item,
    and one where BLAS cannot be pinned, so that no two threads' gemms each
    start BLAS threads."""
    return max(1, min(cores() if _openblas() else 1, items))


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
