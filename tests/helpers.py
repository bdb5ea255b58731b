"""Helpers shared by the test modules."""

import ast
import io
import math
import pickle
import struct
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Sequence

import numpy as np

import segfuse
from segfuse import fileio
from segfuse.core import (UNLABELED_ID, FeatureMap, IoUReport, LabelMap, ProbabilityCheck,
                          ProbMap)
from segfuse.distill import _unlabeled, measure_teacher, student_blocks
from segfuse.policy import select_certainty
from segfuse.unify import unify


def certainty_policy(members, feats, config):
    """The certainty-aware policy: ``select_certainty`` over each member's rho."""
    return select_certainty([measure_teacher(m, feats, config) for m in members])


def student_map(model, feats) -> ProbMap:
    """The ToyStudent ``model``'s probability map of the FeatureMap
    ``feats``: ``student_blocks``' row blocks of its all-unlabeled image,
    put together in pixel order and checked as a ProbMap."""
    probs = np.empty((feats.height * feats.width, model.num_classes))
    for b, blk in student_blocks(model, [], _unlabeled([feats], model.feature_dims)):
        probs[b] = blk.T
    return ProbMap(probs.reshape(feats.height, feats.width, -1))


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


def write_probmap(pm: ProbMap) -> bytes:
    """The .pmap bytes of ``pm``: ``fileio.probmap_chunks`` of its pixels."""
    h, w, c = pm.values.shape
    return b"".join(fileio.probmap_chunks(h, w, c, [pm.values.reshape(-1, c)]))


def _pmap_body(data) -> np.ndarray:
    """The H x W x C float32 body of a .pmap's bytes, a view of ``data``."""
    h, w, c = fileio._parse_header(data, fileio._PMAP_MAGIC)
    fileio._check_size(len(data) - 18, h * w * c * 4)
    return np.frombuffer(data, "<f4", offset=18).reshape(h, w, c)


def check_whole(v) -> None:
    """A ``ProbabilityCheck`` of the probability map ``v`` as one block."""
    check = ProbabilityCheck()
    check.add(v)
    check.verdict()


def read_labels_whole(data, logits: bool = False) -> LabelMap:
    """The labels of a .pmap's bytes, decoded from the whole buffer at once:
    ``_pmap_body``, then ``check_whole`` (or, with ``logits``, a finiteness
    test), then a whole-array ``np.argmax`` over the class axis.  The
    oracle for the chunked ``fileio.read_labels``."""
    body = _pmap_body(data)
    if not logits:
        check_whole(body)
    elif not np.isfinite(body).all():
        raise ValueError("logit body contains non-finite values")
    return LabelMap(body.argmax(axis=2), body.shape[2])


def npy_bytes(values) -> bytes:
    """The .npy file ``np.save`` writes for ``values``."""
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue()


def random_labelmap(rng, h, w, c, unlabeled_frac=0.2) -> LabelMap:
    """Uniform random class ids, each pixel unlabeled with ``unlabeled_frac``."""
    vals = rng.integers(0, c, size=(h, w))
    vals[rng.random((h, w)) < unlabeled_frac] = UNLABELED_ID
    return LabelMap(vals, c)


def read_features_whole(data) -> FeatureMap:
    """The FeatureMap of a .npy's bytes, decoded from the whole buffer at
    once: the header, the body size, then ``FeatureMap`` over a view of
    the body.  With ``feature_rows_whole``, the oracle for
    ``fileio.read_feature_rows``."""
    size = 2 if data[6:7] == b"\x01" else 4
    stream = io.BytesIO(data[: 8 + size + int.from_bytes(data[8 : 8 + size], "little")])
    try:
        version = np.lib.format.read_magic(stream)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported version {version}")
        read_header = getattr(np.lib.format, f"read_array_header_{version[0]}_0")
        shape, fortran_order, dtype = read_header(stream)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as e:
        raise ValueError(f"bad .npy file: {e}") from e
    if dtype.hasobject:
        raise ValueError("bad .npy file: object arrays are not accepted")
    count = math.prod(shape)
    body, expected = len(data) - stream.tell(), count * dtype.itemsize
    if body != expected:
        raise ValueError(f"bad .npy file: body is {body} bytes, header implies {expected}")
    values = np.frombuffer(data, dtype, count=count, offset=stream.tell())
    return FeatureMap(values.reshape(shape, order="F" if fortran_order else "C"))


def feature_rows_whole(data, labels: LabelMap):
    """(labeled rows, unlabeled rows) of ``read_features_whole(data)`` on
    the grid of ``labels``, each in pixel order."""
    feats = read_features_whole(data)
    if (feats.height, feats.width) != (labels.height, labels.width):
        raise ValueError("feature and label dimensions differ")
    rows = feats.values.reshape(-1, feats.dims)
    labeled = labels.values.reshape(-1) != UNLABELED_ID
    return rows[labeled], rows[~labeled]


def voronoi_cells_tiled(height: int, width: int, num_sites: int, rng) -> np.ndarray:
    """Nearest-site cells (ties to the lowest site) in 32-pixel tiles, each
    tile's reach taken from every site: the oracle for the bucketed
    ``synth._voronoi_cells``."""
    tile = 32
    flat = rng.choice(height * width, size=num_sites, replace=False)
    sy = flat // width
    sx = flat % width
    cells = np.empty((height, width), dtype=np.intp)
    for y0 in range(0, height, tile):
        y1 = min(y0 + tile, height)
        for x0 in range(0, width, tile):
            x1 = min(x0 + tile, width)
            cy, cx = (y0 + y1 - 1) / 2, (x0 + x1 - 1) / 2
            reach = (np.sqrt(((sy - cy) ** 2 + (sx - cx) ** 2).min())
                     + np.hypot(y1 - 1 - cy, x1 - 1 - cx) + 1)
            dy = np.maximum(np.maximum(y0 - sy, sy - (y1 - 1)), 0)
            dx = np.maximum(np.maximum(x0 - sx, sx - (x1 - 1)), 0)
            near = np.flatnonzero(dy**2 + dx**2 <= reach**2)
            yy, xx = np.ogrid[y0:y1, x0:x1]
            d2 = (yy - sy[near, None, None]) ** 2 + (xx - sx[near, None, None]) ** 2
            cells[y0:y1, x0:x1] = near[d2.argmin(axis=0)]
    return cells


def average_fuse_stacked(teachers: Sequence[ProbMap]) -> np.ndarray:
    """The mean of the member maps over a T x H x W x C stack: the oracle
    for ``average_fuse``."""
    return np.stack([t.values for t in teachers]).mean(axis=0)


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis, as a new array."""
    return softmax_inplace(np.array(logits, dtype=np.float64))


def certainty_report(preds: Sequence[ProbMap]) -> IoUReport:
    """Per-class certainty rho of one member's distilled student.

    ``preds`` is the student's ProbMaps, one per measurement image.  Class
    c's rho averages the student's class-c probability over the pixels
    where it predicts c; a class with no such pixel stays undefined.
    The oracle for ``distill._certainty``, which sums per row block.
    """
    maps = list(preds)
    if not maps:
        raise ValueError("empty measurement set")
    num_classes = maps[0].num_classes
    if any(m.num_classes != num_classes for m in maps):
        raise ValueError("measurement maps disagree on the class count")
    sums = np.zeros(num_classes)
    counts = np.zeros(num_classes, dtype=np.int64)
    for m in maps:
        hard = unify(m).values
        for c in range(num_classes):
            mask = hard == c
            n = np.count_nonzero(mask)
            if n:
                sums[c] += m.values[:, :, c][mask].sum()
                counts[c] += n
    rho = np.full(num_classes, np.nan)
    seen = counts > 0
    rho[seen] = sums[seen] / counts[seen]
    # Clip float accumulation spill just above 1.0.
    np.clip(rho, 0.0, 1.0, out=rho)
    return IoUReport(rho)


def _name(node):
    """What the node ``node`` names as an attribute (``os.name``), a name or
    an import, or None."""
    return (getattr(node, "attr", None) if isinstance(node, ast.Attribute) else
            getattr(node, "id", None) if isinstance(node, ast.Name) else
            getattr(node, "name", None) if isinstance(node, ast.alias) else None)


def names_in(path):
    """The set of what the Python file ``path`` names, as ``owners`` counts it."""
    return {_name(node) for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8")))}


def owners(names, calls=False):
    """The sorted (module, innermost function) pairs of ``segfuse`` whose
    code names one of ``names``, as an attribute (``os.name``), a name or
    an import, once per use; with ``calls``, only the uses that it calls."""
    found = []
    for path in sorted(Path(segfuse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so inner ones overwrite
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if _name(node) in names and (not calls or id(node) in called):
                found.append((path.stem, owner.get(id(node), "<module>")))
    return sorted(found)


#: Reads the parent's ``sys.path`` and a pickled (function, args) from
#: stdin, calls the function and pickles its result to stdout; what the
#: function prints goes to stderr.
_FRESH_CHILD = """
import os, pickle, sys
out = os.fdopen(os.dup(1), "wb")
os.dup2(2, 1)
sys.path[:0] = pickle.load(sys.stdin.buffer)
fn, args = pickle.load(sys.stdin.buffer)
pickle.dump(fn(*args), out)
out.close()
"""


def in_fresh_interpreter(fn, *args):
    """``fn(*args)``, run in a fresh interpreter: a tracemalloc peak that
    ``fn`` measures there does not depend on which tests ran before in
    this process, as a peak measured here does by a few KB.  ``fn`` is a
    module-level function of an importable module (a test module too),
    and ``args`` and the result are picklable.  A failure in the child
    fails here with the child's traceback."""
    done = subprocess.run([sys.executable, "-c", _FRESH_CHILD],
                          input=pickle.dumps(sys.path) + pickle.dumps((fn, args)),
                          capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return pickle.loads(done.stdout)
