"""Distillation losses, a toy per-pixel student, and the selection protocol.

The student is a multinomial logistic classifier applied independently to
each pixel's feature vector.  That is deliberately small: it exercises the
distillation losses, trains deterministically in seconds, and its output
certainty reacts to pseudo-label quality the same way a deep student's
does, which is all the certainty-aware policy selection needs.

Losses are means over the (labeled) pixels, so the trainer's step size
is resolution-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import UNLABELED_ID, FusionPolicy, IoUReport, LabelMap, ProbMap, _frozen
from .metrics import certainty_report
from .policy import select_certainty
from .unify import unify
from .util import json_number, softmax_inplace

_LOG_CLAMP = 1e-12

#: Measurement share of the dataset used by the selection protocol
#: (500 of 2975 images in the full-scale setting).
DEFAULT_MEASURE_FRACTION = 500 / 2975


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """H x W x d map of real-valued per-pixel features."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "biuf":
            raise ValueError(f"feature map must hold real numbers, got dtype {v.dtype}")
        v = v.astype(np.float64, copy=False)
        if v.ndim != 3:
            raise ValueError(f"feature map must be H x W x d, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def dims(self) -> int:
        return self.values.shape[2]


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
    """SGD hyperparameters for the toy student."""

    lr: float = 0.5
    lr_decay_power: float = 0.9
    weight_decay: float = 5e-3
    momentum: float = 0.9
    iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0 <= self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise ValueError("lr and weight_decay must be finite and >= 0")
        if not math.isfinite(self.lr_decay_power):
            raise ValueError("lr_decay_power must be finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"training config JSON is malformed: {e}")
        if not isinstance(obj, dict):
            raise ValueError("training config JSON must be an object")
        extra = set(obj) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown training config fields: {sorted(extra)}")
        for name, value in obj.items():
            integral = isinstance(getattr(cls, name), int)
            if not json_number(value, integral):
                kind = "an integer" if integral else "a number"
                raise ValueError(
                    f"training config field {name!r} must be {kind}, got {value!r}"
                )
        return cls(**obj)


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: ToyStudent
    losses: np.ndarray


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    table: tuple[IoUReport, ...]  # member t's certainty rho, in ensemble order
    policy: FusionPolicy
    students: tuple


def average_fuse(teachers: Sequence[ProbMap]) -> ProbMap:
    """Mean of the raw teacher probabilities (the naive baseline fusion)."""
    teachers = list(teachers)
    if not teachers:
        raise ValueError("need at least one teacher")
    shape = teachers[0].values.shape
    for t in teachers[1:]:
        if t.values.shape != shape:
            raise ValueError(f"teacher shapes differ: {t.values.shape} vs {shape}")
    stacked = np.stack([t.values for t in teachers])
    return ProbMap(stacked.mean(axis=0))


def student_forward(model: ToyStudent, feats: FeatureMap) -> ProbMap:
    """Per-pixel softmax(W x + b)."""
    if feats.dims != model.feature_dims:
        raise ValueError(
            f"feature dim {feats.dims} does not match model dim {model.feature_dims}"
        )
    return ProbMap(_class_probs(feats.values, model.weights, model.bias, axis=2))


def _class_probs(x, weights, bias, axis):
    """softmax(x @ weights.T + bias) along ``axis``, in one new array.

    The bias and the softmax are applied in place on the product, so a
    training step holds a single rows x classes array and its peak memory
    does not depend on where the heap places a second one.
    """
    z = x @ weights.T
    z += bias
    return softmax_inplace(z, axis)


def _as_list(x, cls):
    return [x] if isinstance(x, cls) else list(x)


def _labeled_rows(feats, labels):
    """Stack (features, labels) image lists into rows of the labeled pixels.

    Returns (features, int class ids, class count).
    """
    feats = _as_list(feats, FeatureMap)
    labels = _as_list(labels, LabelMap)
    if len(feats) != len(labels) or not feats:
        raise ValueError("need equally many (>=1) feature and label maps")
    xs, ys = [], []
    dims = feats[0].dims
    classes = labels[0].num_classes
    for f, l in zip(feats, labels):
        if (f.height, f.width) != (l.height, l.width):
            raise ValueError("feature and label dimensions differ")
        if f.dims != dims or l.num_classes != classes:
            raise ValueError("images disagree on feature dim or class count")
        xs.append(f.values.reshape(-1, dims))
        ys.append(l.values.reshape(-1))
    x, y = np.concatenate(xs), np.concatenate(ys)
    mask = y != UNLABELED_ID
    if not mask.any():
        raise ValueError("all pixels are unlabeled; nothing to train on")
    return x[mask], y[mask].astype(np.intp), classes


def _ce_means(weights, bias, x, y):
    """(mean loss, mean grads) of hard-label CE over labeled rows x, y."""
    n = y.shape[0]
    rows = np.arange(n)
    probs = _class_probs(x, weights, bias, axis=1)
    loss = float(-np.log(np.maximum(probs[rows, y], _LOG_CLAMP)).sum())
    g = probs
    g[rows, y] -= 1.0
    return loss / n, (g.T @ x) / n, g.sum(axis=0) / n


def ce_loss_and_grads(
    model: ToyStudent, feats, labels
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-labeled-pixel CE loss and its analytic parameter gradients."""
    x, y, classes = _labeled_rows(feats, labels)
    if classes != model.num_classes:
        raise ValueError("label class count does not match the model")
    return _ce_means(model.weights, model.bias, x, y)


def kl_loss_and_grads(
    model: ToyStudent, feats: FeatureMap, target: ProbMap
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-pixel soft-target loss and its analytic parameter gradients."""
    if (feats.height, feats.width) != (target.height, target.width):
        raise ValueError("feature and target dimensions differ")
    if target.num_classes != model.num_classes:
        raise ValueError("target class count does not match the model")
    x = feats.values.reshape(-1, feats.dims)
    s = target.values.reshape(-1, target.num_classes)
    n = x.shape[0]
    probs = _class_probs(x, model.weights, model.bias, axis=1)
    loss = float(-(s * np.log(np.maximum(probs, _LOG_CLAMP))).sum()) / n
    g = (probs * s.sum(axis=1, keepdims=True) - s) / n
    return loss, g.T @ x, g.sum(axis=0)


def train_student(feats, labels, config: TrainConfig) -> TrainResult:
    """SGD with momentum on the mean per-labeled-pixel CE loss.

    Learning rate follows a polynomial decay, lr_i = lr * (1 - i/n)^power.
    Fully deterministic given the seed.
    """
    x, y, classes = _labeled_rows(feats, labels)
    rng = np.random.default_rng(config.seed)
    dims = x.shape[1]
    weights = rng.normal(0.0, 0.01, size=(classes, dims))
    bias = np.zeros(classes)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    losses = np.empty(config.iterations)

    for i in range(config.iterations):
        losses[i], gw, gb = _ce_means(weights, bias, x, y)
        gw += config.weight_decay * weights
        lr = config.lr * (1.0 - i / config.iterations) ** config.lr_decay_power
        vel_w = config.momentum * vel_w - lr * gw
        vel_b = config.momentum * vel_b - lr * gb
        weights = weights + vel_w
        bias = bias + vel_b

    return TrainResult(ToyStudent(weights, bias), _frozen(losses))


def measure_teacher(
    maps,
    feats,
    measure_fraction: float = DEFAULT_MEASURE_FRACTION,
    config: TrainConfig = TrainConfig(),
) -> tuple[ToyStudent, IoUReport]:
    """One member's step of the selection protocol.

    Unifies the member's maps on the training split, distills a student
    with ``config``'s fixed seed, and returns it with its certainty rho
    on the measurement split.  The result depends on this member alone,
    so a member measured once never needs measuring again when others
    join or leave the ensemble.  The first ``measure_fraction`` share of
    the images (at least one, at most all but one) is the measurement
    split.
    """
    if not 0 < measure_fraction < 1:
        raise ValueError("measure_fraction must lie in (0, 1)")
    maps = _as_list(maps, ProbMap)
    feats = _as_list(feats, FeatureMap)
    n_images = len(feats)
    if n_images < 2:
        raise ValueError("protocol needs >= 2 images to split")
    if len(maps) != n_images:
        raise ValueError(f"teacher has {len(maps)} maps for {n_images} images")
    n_measure = min(max(1, round(measure_fraction * n_images)), n_images - 1)
    train_labels = [unify(pm) for pm in maps[n_measure:]]
    model = train_student(feats[n_measure:], train_labels, config).model
    return model, certainty_report([student_forward(model, f) for f in feats[:n_measure]])


def certainty_selection_protocol(
    teacher_maps: Sequence,
    feats,
    measure_fraction: float = DEFAULT_MEASURE_FRACTION,
    config: TrainConfig = TrainConfig(),
) -> ProtocolResult:
    """Offline certainty-aware policy selection.

    ``teacher_maps[t]`` is teacher t's ProbMap (or list of ProbMaps, one
    per image); ``feats`` the matching feature maps.  The first
    ``measure_fraction`` share of the images (at least one) is held out
    for measurement.  Each teacher is measured by ``measure_teacher``
    (identical student seed for every teacher), which gives that teacher's
    certainty report, and the policy is the per-class argmax of those
    reports.
    """
    per_teacher = [_as_list(maps, ProbMap) for maps in teacher_maps]
    if not per_teacher:
        raise ValueError("ensemble must contain at least one teacher")
    feats = _as_list(feats, FeatureMap)
    for t, maps in enumerate(per_teacher):
        if len(maps) != len(feats):
            raise ValueError(f"teacher {t} has {len(maps)} maps for {len(feats)} images")
    measured = [measure_teacher(maps, feats, measure_fraction, config) for maps in per_teacher]
    rhos = tuple(rho for _, rho in measured)
    return ProtocolResult(rhos, select_certainty(rhos), tuple(m for m, _ in measured))
