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
from typing import Sequence

import numpy as np

from .core import UNLABELED_ID, FeatureMap, IoUReport, LabelMap, ProbMap, _frozen

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


def _check_dims(feats, dims):
    """Raise a ValueError unless the FeatureMap ``feats`` has ``dims`` features."""
    if feats.dims != dims:
        raise ValueError(f"feature dim {feats.dims} does not match model dim {dims}")


def _pixel_rows(model, feats):
    """The pixel rows of ``feats``, one per pixel, as ``model``'s inputs."""
    _check_dims(feats, model.feature_dims)
    return feats.values.reshape(-1, feats.dims)


def _augmented_weights(model):
    """``model``'s classes x (d+1) weights with its bias as the last column."""
    return np.column_stack([model.weights, model.bias])


def student_forward(model: ToyStudent, feats: FeatureMap) -> ProbMap:
    """Per-pixel softmax(W x + b)."""
    probs = _class_probs(_pixel_rows(model, feats), _augmented_weights(model))
    return ProbMap(probs.reshape(feats.height, feats.width, -1))


#: Rows per block of the student's softmax, its CE step and its certainty
#: (rho) pass, and of the class-major training blocks: blocks of 8,192 to
#: 16,352 rows keep a block's passes in cache, and none but the remainder
#: block is so short that its matmuls take BLAS's small-matrix kernel.
_BLOCK_ROWS = 8192

#: Every block but the remainder is a whole number of these rows, so that
#: the block gemms give the same bits at any BLAS thread count (checked at
#: 1, 2 and 4 threads on OpenBLAS's Haswell kernel, where most other block
#: sizes gave different bits at 2 threads).
_BLOCK_UNIT = 32


def _row_blocks(n):
    """Slices cutting ``n`` rows into near-equal blocks of whole
    ``_BLOCK_UNIT``-row units, none shorter than ``_BLOCK_ROWS`` unless
    ``n`` is, then the ``n % _BLOCK_UNIT`` left-over rows as one short last
    block.  The cut depends on ``n`` alone, so a step's sums run in one
    order for a given row count."""
    units = n // _BLOCK_UNIT
    k = max(1, n // _BLOCK_ROWS)
    cuts = [i * units // k * _BLOCK_UNIT for i in range(k + 1)] + [n]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _block_buffers(wb, blocks):
    """Flat buffers for one (d+1) x rows input and one classes x rows
    output block of the weights ``wb``, rows the longest of ``blocks``."""
    rows = max(b.stop - b.start for b in blocks)
    return np.empty(wb.shape[1] * rows), np.empty(wb.shape[0] * rows)


def _augmented(x, buf):
    """The rows x as one class-major (d+1) x rows block with a row of ones
    last, written into the head of the flat ``buf`` and returned."""
    out = buf[: (x.shape[1] + 1) * x.shape[0]].reshape(x.shape[1] + 1, x.shape[0])
    out[:-1] = x.T
    out[-1] = 1.0
    return out


class _TrainingBlocks:
    """The class-major training blocks of ``n`` rows of ``dims`` features:
    one exact-size (dims+1) x rows array, its last row ones, per block of
    ``_row_blocks(n)``, in ``blocks`` once all ``n`` rows were added.

    Rows arrive row-major (``add``).  At most one block of them is staged,
    in a buffer that grows in place, at most doubling, only as rows arrive;
    each block is transposed into its class-major array once its rows are in.
    So no array is sized before its rows arrive, and the peak is the
    blocks plus one block of staged rows."""

    def __init__(self, n, dims):
        self.blocks = []
        self._sizes = [b.stop - b.start for b in reversed(_row_blocks(n))]
        self._stage, self._end = np.empty((0, dims)), 0

    def add(self, rows, idx):
        """Append ``rows[idx]``: the float64 rows ``rows`` at the positions ``idx``."""
        while len(idx):
            size = self._sizes[-1]
            start, end = self._end, min(self._end + len(idx), size)
            if end > len(self._stage):
                grown = min(max(end, 2 * len(self._stage)), size)
                self._stage.resize((grown, rows.shape[1]), refcheck=False)
            # mode="clip" keeps take from buffering a copy of ``out``.
            np.take(rows, idx[: end - start], axis=0, out=self._stage[start:end], mode="clip")
            idx, self._end = idx[end - start :], end
            if end == size:
                flat = np.empty(size * (rows.shape[1] + 1))
                self.blocks.append(_augmented(self._stage[:size], flat))
                self._sizes.pop()
                self._end = 0


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


def _class_probs(x, wb):
    """softmax(wb @ [x | 1].T) of the rows x, as one new rows x classes array."""
    probs = np.empty((x.shape[0], wb.shape[0]))
    blocks = _row_blocks(x.shape[0])
    xbuf, buf = _block_buffers(wb, blocks)
    for rows in blocks:
        probs[rows] = _block_probs(_augmented(x[rows], xbuf), wb, buf).T
    return probs


def student_blocks(model: ToyStudent, blocks, u, labeled):
    """``student_forward``'s probabilities of one image, one block at a time.

    ``labeled`` is the image's flat labeled-pixel mask, ``blocks`` the
    class-major training blocks of its labeled pixels (``_TrainingBlocks``)
    and ``u`` the rows of its unlabeled ones, each in pixel order.  Each of
    ``student_forward``'s row blocks is gathered back into pixel order,
    class-major with its row of ones, and yielded as its rows x classes
    probabilities, a view of one reused buffer, with ``student_forward``'s
    bits.
    """
    wb = _augmented_weights(model)
    cuts = _row_blocks(len(labeled))
    xbuf, buf = _block_buffers(wb, cuts)
    source, cur, off, j = iter(blocks), np.empty((wb.shape[1], 0)), 0, 0
    for b in cuts:
        m = labeled[b]
        xb = xbuf[: wb.shape[1] * len(m)].reshape(wb.shape[1], len(m))
        pos = np.flatnonzero(m)
        while len(pos):  # the labeled columns, read on across training blocks
            if off == cur.shape[1]:
                cur, off = next(source), 0
            k = min(len(pos), cur.shape[1] - off)
            xb[:, pos[:k]] = cur[:, off : off + k]
            pos, off = pos[k:], off + k
        rest = len(m) - int(np.count_nonzero(m))
        xb[:-1, ~m] = u[j : j + rest].T
        xb[-1, ~m] = 1.0
        j += rest
        yield _block_probs(xb, wb, buf).T


def _certainty(model, feats):
    """Per-class certainty rho of ``model`` on the FeatureMaps ``feats``.

    Class c's rho averages the student's class-c probability over the
    pixels where it predicts c (ties to the smallest id); a class with no
    such pixel stays undefined (NaN).  Every image runs one row block at a
    time through one reused buffer, so memory does not grow with the image
    count; per-block sums move the last bits of a per-class masked sum.
    """
    classes, wb = model.num_classes, _augmented_weights(model)
    images = [(x, _row_blocks(len(x))) for x in (_pixel_rows(model, f) for f in feats)]
    xbuf, buf = _block_buffers(wb, [b for _, bs in images for b in bs])
    sums, counts = np.zeros(classes), np.zeros(classes, np.int64)
    for x, bs in images:
        for b in bs:
            blk = _block_probs(_augmented(x[b], xbuf), wb, buf)
            ids = blk.argmax(axis=0)
            sums += np.bincount(ids, weights=blk.max(axis=0), minlength=classes)
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
    """The labeled pixels of (features, labels) image lists as training rows.

    Returns (class-major training blocks, int class ids, class count).
    Each image's labeled rows go straight into ``_TrainingBlocks``.
    """
    feats = _as_list(feats, FeatureMap)
    labels = _as_list(labels, LabelMap)
    if len(feats) != len(labels) or not feats:
        raise ValueError("need equally many (>=1) feature and label maps")
    dims = feats[0].dims
    classes = labels[0].num_classes
    for f, l in zip(feats, labels):
        if (f.height, f.width) != (l.height, l.width):
            raise ValueError("feature and label dimensions differ")
        if f.dims != dims or l.num_classes != classes:
            raise ValueError("images disagree on feature dim or class count")
    n = sum(int(np.count_nonzero(l.values != UNLABELED_ID)) for l in labels)
    x, y = _TrainingBlocks(n, dims), np.empty(n, np.intp)
    start = 0
    for f, l in zip(feats, labels):
        idx = np.flatnonzero(l.values != UNLABELED_ID)
        x.add(f.values.reshape(-1, dims), idx)
        y[start : start + idx.size] = l.values.reshape(-1)[idx]
        start += idx.size
    return x.blocks, y, classes


def _label_blocks(blocks, y, classes):
    """(label sums, each block's flat label positions) of the training
    blocks labeled by ``y``, found once per training.  The label sums,
    onehot(y) @ [x | 1] summed by one BLAS product per block, are what a CE
    step's gradient subtracts; the positions (in a classes x block-rows
    array) are written over ``y``, uncopied."""
    if not len(y):
        raise ValueError("all pixels are unlabeled; nothing to train on")
    sums = np.zeros((classes, blocks[0].shape[0]))
    onehot = np.empty(classes * max(xb.shape[1] for xb in blocks))
    at = [y[rows] for rows in _row_blocks(len(y))]
    for xb, a in zip(blocks, at):
        a *= len(a)
        a += np.arange(len(a))
        e = onehot[: classes * len(a)].reshape(classes, len(a))
        e.fill(0.0)
        e.put(a, 1.0)
        sums += e @ xb.T
    return sums, at


def _ce_means(wb, blocks, labels):
    """(mean loss, mean grads) of hard-label CE over the training blocks
    labeled by ``_label_blocks``, for the classes x (d+1) weights ``wb``
    (bias last), the grads shaped alike.  Each block is one gemm in, its
    softmax and loss, and one gemm out while it is in cache, in one reused
    buffer, so a step holds O(block x classes); the label sums are
    subtracted after the blocks.  Per-block sums move the last bits of a
    whole-array step."""
    sums, at = labels
    n = sum(len(a) for a in at)
    buf = np.empty(wb.shape[0] * max(len(a) for a in at))
    loss, grads = 0.0, np.zeros_like(wb)
    for xb, a in zip(blocks, at):
        blk = _block_probs(xb, wb, buf)
        picked = blk.take(a)
        loss -= float(np.log(np.maximum(picked, _LOG_CLAMP, out=picked), out=picked).sum())
        grads += blk @ xb.T
    grads -= sums
    grads /= n
    return loss / n, grads


def ce_loss_and_grads(
    model: ToyStudent, feats, labels
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-labeled-pixel CE loss and its analytic parameter gradients."""
    blocks, y, classes = _labeled_rows(feats, labels)
    if classes != model.num_classes:
        raise ValueError("label class count does not match the model")
    loss, grads = _ce_means(_augmented_weights(model), blocks, _label_blocks(blocks, y, classes))
    return loss, grads[:, :-1], grads[:, -1]


def kl_loss_and_grads(
    model: ToyStudent, feats: FeatureMap, target: ProbMap
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-pixel soft-target loss and its analytic parameter gradients."""
    if (feats.height, feats.width) != (target.height, target.width):
        raise ValueError("feature and target dimensions differ")
    if target.num_classes != model.num_classes:
        raise ValueError("target class count does not match the model")
    x = _pixel_rows(model, feats)
    s = target.values.reshape(-1, target.num_classes)
    n = x.shape[0]
    probs = _class_probs(x, _augmented_weights(model))
    loss = float(-(s * np.log(np.maximum(probs, _LOG_CLAMP))).sum()) / n
    g = (probs * s.sum(axis=1, keepdims=True) - s) / n
    return loss, g.T @ x, g.sum(axis=0)


def train_student(feats, labels, config: TrainConfig) -> TrainResult:
    """SGD with momentum on the mean per-labeled-pixel CE loss of FeatureMap
    and LabelMap image lists (or one of each): ``train_rows`` over the
    training blocks of their labeled pixels."""
    return train_rows(*_labeled_rows(feats, labels), config)


def train_rows(blocks, y, classes: int, config: TrainConfig) -> TrainResult:
    """SGD with momentum on the mean CE loss of the class-major training
    blocks ``blocks`` (``_TrainingBlocks``' (d+1) x rows arrays), labeled by
    the int class ids ``y`` of ``classes``, which it overwrites with their
    flat label positions.

    Trains the weights with the bias as their last column, so the bias
    rides in every gemm; weight decay skips that column.  Learning rate
    follows a polynomial decay, lr_i = _LR * (1 - i/n)^_LR_DECAY_POWER.
    Fully deterministic given the seed and the rows.
    """
    labels = _label_blocks(blocks, y, classes)
    rng = np.random.default_rng(config.seed)
    dims = blocks[0].shape[0] - 1
    wb = np.zeros((classes, dims + 1))
    wb[:, :dims] = rng.normal(0.0, 0.01, size=(classes, dims))
    vel = np.zeros_like(wb)
    losses = np.empty(config.iterations)

    for i in range(config.iterations):
        losses[i], grads = _ce_means(wb, blocks, labels)
        grads[:, :dims] += _WEIGHT_DECAY * wb[:, :dims]
        lr = _LR * (1.0 - i / config.iterations) ** _LR_DECAY_POWER
        vel = _MOMENTUM * vel - lr * grads
        wb = wb + vel

    return TrainResult(ToyStudent(wb[:, :dims], wb[:, dims]), _frozen(losses))


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
    certainty-aware policy.  The first ``_MEASURE_FRACTION`` share of the
    images (at least one, at most all but one) is the measurement split.
    """
    labels = _as_list(labels, LabelMap)
    feats = _as_list(feats, FeatureMap)
    n_images = len(feats)
    if n_images < 2:
        raise ValueError("protocol needs >= 2 images to split")
    if len(labels) != n_images:
        raise ValueError(f"member has {len(labels)} label maps for {n_images} images")
    n_measure = min(max(1, round(_MEASURE_FRACTION * n_images)), n_images - 1)
    # The student's dims are the training images'; check before training.
    for f in feats[:n_measure]:
        _check_dims(f, feats[n_measure].dims)
    model = train_student(feats[n_measure:], labels[n_measure:], config).model
    return _certainty(model, feats[:n_measure])
