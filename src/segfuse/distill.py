"""Distillation losses, a toy per-pixel student, and its per-member measurement.

The student is a multinomial logistic classifier applied independently to
each pixel's feature vector.  That is deliberately small: it exercises the
distillation losses, trains deterministically in seconds, and its output
certainty reacts to pseudo-label quality the same way a deep student's
does, which is all the certainty-aware policy selection needs.

Losses are means over the (labeled) pixels, so the trainer's step size
is resolution-independent.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import UNLABELED_ID, FeatureMap, IoUReport, LabelMap, ProbMap, _frozen
from .util import grow_rows, on_threads, one_blas_thread, workers

_LOG_CLAMP = 1e-12

#: Measurement share of the images in ``measure_teacher``
#: (500 of 2975 images in the full-scale setting).
_MEASURE_FRACTION = 500 / 2975

#: The student's SGD recipe: base step size, its polynomial decay power,
#: L2 weight decay and momentum.
_LR = 0.5
_LR_DECAY_POWER = 0.9
_WEIGHT_DECAY = 5e-3
_MOMENTUM = 0.9


@dataclass(frozen=True, eq=False)
class ToyStudent:
    """Per-pixel multinomial logistic classifier: softmax(W x + b)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError("weights must be |C| x d and bias |C|")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("student parameters must be finite")
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "bias", _frozen(b))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dims(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Step count and seed of the toy student's SGD.  The rest of the recipe
    is fixed (``_LR``, ``_LR_DECAY_POWER``, ``_WEIGHT_DECAY``, ``_MOMENTUM``),
    so every member's student, and so its rho, comes from one recipe."""

    iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: ToyStudent
    losses: np.ndarray


def average_fuse(teachers: Sequence[ProbMap]) -> ProbMap:
    """Mean of the raw teacher probabilities (the naive baseline fusion)."""
    teachers = list(teachers)
    if not teachers:
        raise ValueError("need at least one teacher")
    shape = teachers[0].values.shape
    for t in teachers[1:]:
        if t.values.shape != shape:
            raise ValueError(f"teacher shapes differ: {t.values.shape} vs {shape}")
    # Summed in member order into one map, then divided: the bits of
    # ``np.stack(...).mean(axis=0)`` without its T x H x W x C stack.
    total = teachers[0].values.copy()
    for t in teachers[1:]:
        total += t.values
    total /= len(teachers)
    return ProbMap(total)


def _augmented_weights(model):
    """``model``'s classes x (d+1) weights with its bias as the last column."""
    return np.column_stack([model.weights, model.bias])


#: Rows per block of the student's softmax, its CE step and its certainty
#: (rho) pass, and of the class-major training blocks: blocks of 8,192 to
#: 16,352 rows keep a block's passes in cache, and none but the remainder
#: block is so short that its matmuls take BLAS's small-matrix kernel.
_BLOCK_ROWS = 8192

#: Every block but the remainder is a whole number of these rows, so that
#: the block gemms give the same bits at any BLAS thread count on OpenBLAS's
#: SkylakeX, Haswell and Sandybridge kernels, where most other block sizes
#: did not, even where ``one_blas_thread`` does not pin BLAS; on its
#: Nehalem and Prescott kernels no block size does.
_BLOCK_UNIT = 32


def _row_blocks(n):
    """Slices cutting ``n`` rows into near-equal blocks of whole
    ``_BLOCK_UNIT``-row units, none shorter than ``_BLOCK_ROWS`` unless
    ``n`` is, then the ``n % _BLOCK_UNIT`` left-over rows as one short last
    block.  The cut depends on ``n`` alone, so a step's sums run in one
    order for a given row count.  It is set by the training bits, not by
    a byte budget, so it is not the streamed maps' ``util.RowBlock``."""
    units = n // _BLOCK_UNIT
    k = max(1, n // _BLOCK_ROWS)
    cuts = [i * units // k * _BLOCK_UNIT for i in range(k + 1)] + [n]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


class _TrainingSet(NamedTuple):
    """What ``_ce_means`` reads: the class-major (d+1) x rows ``blocks``,
    their label sums onehot(y) @ [x | 1], each block's flat label positions
    in a classes x block-rows array, and the class count."""

    blocks: list
    sums: np.ndarray
    at: list
    classes: int


class _TrainingBlocks:
    """The one owner of the training set of the images labeled by the
    LabelMaps ``labels`` (of one class count), from the label maps to what
    ``_ce_means`` reads (``done``): their labeled pixels, in pixel order
    image after image, as one exact-size class-major (d+1) x rows array,
    its last row ones, per block of one ``_row_blocks`` cut of their
    count, in ``blocks``.  One read of the maps gives ``labeled``, the
    images' flat labeled mask, and the class ids that ``done`` takes.

    Rows arrive row-major (``add``), d features each as the first rows
    given.  At most one block of labeled rows is staged, in a buffer that
    grows in place, at most doubling, only as rows arrive; each block is
    transposed into its class-major array once its rows are in, and the
    stage is emptied once the last one is.  So no array is sized before its
    rows arrive, and the peak is the blocks plus one block of staged rows."""

    def __init__(self, labels):
        self._classes = labels[0].num_classes
        if any(l.num_classes != self._classes for l in labels):
            raise ValueError("images disagree on feature dim or class count")
        ids = np.concatenate([l.values for l in labels], None)
        self.labeled = ids != UNLABELED_ID
        self._y = ids[self.labeled]
        self._cuts = _row_blocks(len(self._y))
        self.blocks, self._stage, self._end, self._rest = [], None, 0, self.labeled

    def add(self, rows):
        """Stage the labeled ones of the float64 rows ``rows``, the next
        pixels' rows; return those pixels' labeled mask."""
        if self._stage is None:
            self._stage = np.empty((0, rows.shape[1]))
        elif rows.shape[1] != self._stage.shape[1]:
            raise ValueError("images disagree on feature dim or class count")
        take, self._rest = self._rest[: len(rows)], self._rest[len(rows) :]
        idx = np.flatnonzero(take)
        while len(idx):
            cut = self._cuts[len(self.blocks)]
            size = cut.stop - cut.start
            start, end = self._end, min(self._end + len(idx), size)
            grow_rows(self._stage, end, size)
            # mode="clip" keeps take from buffering a copy of ``out``.
            np.take(rows, idx[: end - start], axis=0, out=self._stage[start:end], mode="clip")
            idx, self._end = idx[end - start :], end
            if end == size:
                block = np.empty((rows.shape[1] + 1, size))
                block[:-1] = self._stage[:size].T
                block[-1] = 1.0
                self.blocks.append(block)
                self._end = 0
                if len(self.blocks) == len(self._cuts):  # keeps the dims for the checks
                    self._stage.resize((0, rows.shape[1]), refcheck=False)
        return take

    def done(self):
        """The finished ``_TrainingSet``, keeping no label data: each block's
        flat label positions and label sums, one BLAS product each."""
        y, classes, dims = self._y, self._classes, self._stage.shape[1] + 1
        self._y = self._stage = None
        sums, at = np.zeros((classes, dims)), []
        onehot = np.empty(classes * max((xb.shape[1] for xb in self.blocks), default=0))
        with one_blas_thread():
            for xb, cut in zip(self.blocks, self._cuts):
                a = y[cut].astype(np.intp)
                a *= len(a)
                a += np.arange(len(a))
                e = onehot[: classes * len(a)].reshape(classes, len(a))
                e.fill(0.0)
                e.put(a, 1.0)
                sums += np.dot(e, xb.T)
                at.append(a)
        return _TrainingSet(self.blocks, sums, at, classes)


def _block_probs(xb, wb, buf):
    """Write softmax(wb @ xb) of the class-major block ``xb`` ((d+1) x
    rows, ones last) under the classes x (d+1) weights ``wb`` (bias last),
    class-major (classes x rows), into the head of the flat ``buf`` and
    return it.

    The bias is in the gemm, every pass runs along the rows, and the class
    sum is a BLAS product with ones: tied classes get equal bits."""
    out = buf[: wb.shape[0] * xb.shape[1]].reshape(wb.shape[0], xb.shape[1])
    np.matmul(wb, xb, out=out)
    out -= out.max(axis=0)
    np.exp(out, out=out)
    total = np.ones(out.shape[0]) @ out
    out *= np.reciprocal(total, out=total)
    return out


def student_blocks(model: ToyStudent, blocks, images):
    """Yield (slice, probabilities) for each ``_row_blocks`` block of each
    image of the list ``images``: its slice of the image's flat pixels and
    its classes x rows probabilities, a view of one reused buffer.

    An image is (its flat labeled mask, its unlabeled pixels' rows as the
    d x rows pieces ``fileio.read_feature_rows`` returns), in pixel order,
    and ``blocks`` one ``_TrainingBlocks``' blocks of their labeled pixels.
    A block is gathered in pixel order by one slice copy per run of like
    pixels and array it spans, so its bits do not depend on which are
    labeled, and its probabilities are taken with BLAS on one thread
    (``one_blas_thread``, not held while the generator is suspended), so
    they do not depend on the BLAS thread count."""
    wb = _augmented_weights(model)
    cuts = [_row_blocks(len(labeled)) for labeled, _ in images]
    rows = max(b.stop - b.start for bs in cuts for b in bs)
    xbuf, buf = np.empty(wb.shape[1] * rows), np.empty(wb.shape[0] * rows)
    # each kind of pixel's [d x rows arrays, the current one, the offset in it]
    kinds = [[(p for _, ps in images for p in ps), np.empty((0, 0)), 0],  # unlabeled
             [(blk[:-1] for blk in blocks), np.empty((0, 0)), 0]]  # labeled
    for (labeled, _), bs in zip(images, cuts):
        for b in bs:
            m = labeled[b]
            xb = xbuf[: wb.shape[1] * len(m)].reshape(wb.shape[1], len(m))
            xb[-1] = 1.0
            starts = [0, *(np.flatnonzero(m[1:] != m[:-1]) + 1).tolist()]
            for s, e, kind in zip(starts, [*starts[1:], len(m)], m[starts].tolist()):
                source, cur, off = kinds[kind]
                while s < e:  # a run, read on across its kind's arrays
                    if off == cur.shape[1]:
                        cur, off = next(source), 0
                    k = min(e - s, cur.shape[1] - off)
                    xb[:-1, s : s + k] = cur[:, off : off + k]
                    s, off = s + k, off + k
                kinds[kind][1:] = cur, off
            with one_blas_thread():
                probs = _block_probs(xb, wb, buf)
            yield b, probs


def _unlabeled(feats, dims):
    """The FeatureMaps ``feats`` as ``student_blocks``' all-unlabeled images
    (no labeled pixel, every row as one piece, a transposed view), each of
    ``dims`` features, or a ValueError."""
    for f in feats:
        if f.dims != dims:
            raise ValueError(f"feature dim {f.dims} does not match model dim {dims}")
    return [(np.broadcast_to(False, f.height * f.width), [f.values.reshape(-1, f.dims).T])
            for f in feats]


def _block_ids(blk, ids):
    """Write ``blk.argmax(axis=0)`` of the class-major block ``blk`` into
    ``ids`` (ties to the smallest id) without copying ``blk``; return the
    column maxima."""
    mx = blk.max(axis=0)
    for c in range(len(blk) - 1, -1, -1):
        ids[blk[c] == mx] = c
    return mx


def student_labels(model: ToyStudent, feats: FeatureMap) -> LabelMap:
    """The student's per-pixel labels: ``unify`` of its per-pixel
    softmax(W x + b), without a probability map."""
    ids = np.empty(feats.height * feats.width, np.uint16)
    for b, blk in student_blocks(model, [], _unlabeled([feats], model.feature_dims)):
        _block_ids(blk, ids[b])
    ids.setflags(write=False)  # no one else holds it, so LabelMap keeps it
    return LabelMap(ids.reshape(feats.height, feats.width), model.num_classes)


def _certainty(model, images):
    """Per-class certainty rho of ``model`` on the ``student_blocks`` images ``images``.

    Class c's rho averages the student's class-c probability over the
    pixels where it predicts c (ties to the smallest id); a class with no
    such pixel stays undefined (NaN).  Every image runs one row block at a
    time through one reused buffer, so memory does not grow with the image
    count; per-block sums move the last bits of a per-class masked sum.
    """
    classes = model.num_classes
    sums, counts = np.zeros(classes), np.zeros(classes, np.int64)
    for _, blk in student_blocks(model, [], images):
        ids = np.empty(blk.shape[1], np.intp)
        sums += np.bincount(ids, weights=_block_ids(blk, ids), minlength=classes)
        counts += np.bincount(ids, minlength=classes)
    rho = np.full(classes, np.nan)
    seen = counts > 0
    rho[seen] = sums[seen] / counts[seen]
    # Clip float accumulation spill just above 1.0.
    np.clip(rho, 0.0, 1.0, out=rho)
    return IoUReport(rho)


def _as_list(x, cls):
    """One ``cls`` or an iterable of them, as a list; any other item is a ValueError."""
    items = list(x) if isinstance(x, Iterable) else [x]
    for item in items:
        if not isinstance(item, cls):
            raise ValueError(
                f"expected a {cls.__name__} or a list of them, got {type(item).__name__}"
            )
    return items


def _labeled_rows(feats, labels):
    """The ``_TrainingSet`` of (features, labels) image lists, one builder for all."""
    feats = _as_list(feats, FeatureMap)
    labels = _as_list(labels, LabelMap)
    if len(feats) != len(labels) or not feats:
        raise ValueError("need equally many (>=1) feature and label maps")
    x = _TrainingBlocks(labels)
    for f, l in zip(feats, labels):
        if (f.height, f.width) != (l.height, l.width):
            raise ValueError("feature and label dimensions differ")
        x.add(f.values.reshape(-1, f.dims))
    return x.done()


def _ce_buffers(rows, workers=1):
    """``workers`` block buffers for ``_ce_means`` over the ``_TrainingSet`` ``rows``."""
    return [np.empty(rows.classes * max(map(len, rows.at), default=0)) for _ in range(workers)]


def _ce_part(wb, rows, buf, j):
    """Block j's (summed log label probability, probabilities @ rows), in
    the block buffer ``buf``."""
    xb = rows.blocks[j]
    blk = _block_probs(xb, wb, buf)
    picked = blk.take(rows.at[j])
    # np.dot lets the other workers run during its gemm and gives @'s bits;
    # numpy 2.4's @ keeps the GIL for an output of at most 500 elements.
    return (float(np.log(np.maximum(picked, _LOG_CLAMP, out=picked), out=picked).sum()),
            np.dot(blk, xb.T))


def _ce_means(wb, rows, bufs):
    """(mean loss, mean grads) of hard-label CE over the ``_TrainingSet``
    ``rows``, for the classes x (d+1) weights ``wb`` (bias last), the grads
    shaped alike.  Each block is one gemm in, its softmax and loss, and one
    gemm out while it is in cache, in a reused buffer, so a step holds
    O(block x classes) per worker; the label sums are subtracted after the
    blocks.  Worker w of W = len(``bufs``) takes blocks w, w + W, ... in
    ``bufs[w]`` (``on_threads``: a failure raised is the lowest failing
    block's), and the blocks' terms are summed in block order, so the bits
    do not depend on W.  Per-block sums move the last bits of a
    whole-array step."""
    if not rows.at:
        raise ValueError("all pixels are unlabeled; nothing to train on")
    parts = on_threads(lambda w, j: _ce_part(wb, rows, bufs[w], j), range(len(rows.at)),
                       len(bufs))
    loss, grads = 0.0, np.zeros_like(wb)
    for part_loss, products in parts:
        loss -= part_loss
        grads += products
    grads -= rows.sums
    n = sum(len(a) for a in rows.at)
    grads /= n
    return loss / n, grads


def ce_loss_and_grads(
    model: ToyStudent, feats, labels
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-labeled-pixel CE loss and its analytic parameter gradients."""
    rows = _labeled_rows(feats, labels)
    if rows.classes != model.num_classes:
        raise ValueError("label class count does not match the model")
    with one_blas_thread():
        loss, grads = _ce_means(_augmented_weights(model), rows, _ce_buffers(rows))
    return loss, grads[:, :-1], grads[:, -1]


def kl_loss_and_grads(
    model: ToyStudent, feats: FeatureMap, target: ProbMap
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-pixel soft-target loss and its analytic parameter gradients."""
    if (feats.height, feats.width) != (target.height, target.width):
        raise ValueError("feature and target dimensions differ")
    if target.num_classes != model.num_classes:
        raise ValueError("target class count does not match the model")
    probs = np.empty((feats.height * feats.width, model.num_classes))
    for b, blk in student_blocks(model, [], _unlabeled([feats], model.feature_dims)):
        probs[b] = blk.T
    s = target.values.reshape(probs.shape)
    n = len(probs)
    x = feats.values.reshape(n, -1)
    loss = float(-(s * np.log(np.maximum(probs, _LOG_CLAMP))).sum()) / n
    g = (probs * s.sum(axis=1, keepdims=True) - s) / n
    with one_blas_thread():
        return loss, g.T @ x, g.sum(axis=0)


def train_student(feats, labels, config: TrainConfig) -> TrainResult:
    """SGD with momentum on the mean per-labeled-pixel CE loss of FeatureMap
    and LabelMap image lists (or one of each): ``train_rows`` over the
    training set of their labeled pixels."""
    return train_rows(_labeled_rows(feats, labels), config)


def train_rows(rows: _TrainingSet, config: TrainConfig) -> TrainResult:
    """SGD with momentum on the mean CE loss of the ``_TrainingSet``
    ``rows``, as ``_TrainingBlocks.done`` finishes it.

    Trains the weights with the bias as their last column, so the bias
    rides in every gemm; weight decay skips that column.  Learning rate
    follows a polynomial decay, lr_i = _LR * (1 - i/n)^_LR_DECAY_POWER.
    Fully deterministic given the seed and the rows: each step runs on
    ``util.workers`` threads with BLAS on one thread (``one_blas_thread``),
    and its bits depend on neither.
    """
    rng = np.random.default_rng(config.seed)
    dims = rows.sums.shape[1] - 1
    wb = np.zeros((rows.classes, dims + 1))
    wb[:, :dims] = rng.normal(0.0, 0.01, size=(rows.classes, dims))
    vel = np.zeros_like(wb)
    losses = np.empty(config.iterations)

    with one_blas_thread():
        # At least two blocks per worker: alone, two workers step 2 blocks a
        # little faster than one, but such short trainings run where member
        # trainings already fill the cores (``experiments._measure``), and
        # there a second worker per training slowed them.
        bufs = _ce_buffers(rows, workers(len(rows.at) // 2))
        for i in range(config.iterations):
            losses[i], grads = _ce_means(wb, rows, bufs)
            grads[:, :dims] += _WEIGHT_DECAY * wb[:, :dims]
            lr = _LR * (1.0 - i / config.iterations) ** _LR_DECAY_POWER
            vel = _MOMENTUM * vel - lr * grads
            wb = wb + vel

    return TrainResult(ToyStudent(wb[:, :dims], wb[:, dims]), _frozen(losses))


def _measure_split(n_images: int) -> int:
    """How many of ``n_images`` images (at least 2) the selection protocol
    measures on: the first ``_MEASURE_FRACTION`` share, at least one and
    at most all but one."""
    return min(max(1, round(_MEASURE_FRACTION * n_images)), n_images - 1)


def measure_teacher(
    labels: Sequence[LabelMap],
    feats: Sequence[FeatureMap],
    config: TrainConfig = TrainConfig(),
) -> IoUReport:
    """One member's step of the selection protocol: its certainty rho.

    ``labels`` is the member's unified LabelMaps, one per image, and
    ``feats`` the matching feature maps.  Distills a student on the
    training split's labels with ``config``'s fixed seed, and returns its
    certainty rho on the measurement split, whose labels it never reads:
    class c's mean class-c probability over the pixels the student labels
    c, accumulated one row block at a time (``_certainty``), so no
    probability map is built and memory does not grow with the split.
    The result depends on this member alone, so a member measured once
    never needs measuring again when others join or leave the ensemble;
    ``select_certainty`` over the members' reports is the
    certainty-aware policy.  The first ``_measure_split`` images are the
    measurement split.
    """
    labels = _as_list(labels, LabelMap)
    feats = _as_list(feats, FeatureMap)
    n_images = len(feats)
    if n_images < 2:
        raise ValueError("protocol needs >= 2 images to split")
    if len(labels) != n_images:
        raise ValueError(f"member has {len(labels)} label maps for {n_images} images")
    n_measure = _measure_split(n_images)
    # The student's dims are the training images'; check before training.
    images = _unlabeled(feats[:n_measure], feats[n_measure].dims)
    model = train_student(feats[n_measure:], labels[n_measure:], config).model
    return _certainty(model, images)
