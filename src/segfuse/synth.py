"""Synthetic ground truth, features, and corrupted teacher predictions.

Ground truth uses seeded Voronoi blobs rather than i.i.d. pixel labels:
the windowed conflict resolver is spatially aware and only shows gains on
spatially coherent maps.  Features are class-conditional Gaussians so the
label maps are learnable by the toy student, which in turn makes the
certainty-aware selection protocol meaningful (students trained on bad
labels come out visibly less confident).

``corrupt_teacher`` controls per-class accuracy (flip rates) and ``soften``
the certainty scale (softmax temperature on one-hot logits), reproducing
both the certainty-inconsistency and the performance-variation failure
modes at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import UNLABELED_ID, LabelMap, ProbMap
from .distill import FeatureMap


#: Standard deviation of the Gaussian feature noise around each class mean.
_FEATURE_NOISE = 0.5
#: Range of a class's specialist teacher's error rate.
_SPECIALIST_LOW, _SPECIALIST_HIGH = 0.01, 0.05
#: Range of the error rate of every other teacher on a class.
_ERROR_LOW, _ERROR_HIGH = 0.15, 0.30
#: Softmax temperatures the benchmark's teachers cycle through.
_TEMPERATURES = (0.1, 0.5, 1.0, 2.0)
#: The under-performer's error rate on every class, and its temperature.
_UNDERPERFORMER_ERROR, UNDERPERFORMER_TEMPERATURE = 0.6, 0.1


def _voronoi_cells(height: int, width: int, num_sites: int, rng) -> np.ndarray:
    """Partition the grid into nearest-site cells (ties to the lowest site).

    Works in square tiles of about 4 site spacings, 16 to 32 pixels
    (smaller tiles pay numpy's per-call cost, larger ones compare each
    pixel with more sites), so memory does not grow with the grid, and
    buckets the sites by tile.
    A ring search over the buckets finds a site near each tile's centre;
    every pixel of the tile lies within ``reach`` of it, so only sites
    within ``reach`` of the tile, taken from the buckets that reach
    covers, can be nearest to one of its pixels; they stay in ascending
    order for the tie rule.
    """
    flat = rng.choice(height * width, size=num_sites, replace=False)
    sy = flat // width
    sx = flat % width
    tile = min(max(16, round(4 * math.sqrt(height * width / num_sites))), 32)
    ny, nx = -(-height // tile), -(-width // tile)
    bucket = sy // tile * nx + sx // tile
    order = np.argsort(bucket, kind="stable")
    starts = np.searchsorted(bucket[order], np.arange(ny * nx + 1))

    def sites_near(ty, tx, r):
        """The sites in the buckets at most r buckets from bucket (ty, tx)."""
        a, b = max(tx - r, 0), min(tx + r, nx - 1)
        return np.concatenate([order[starts[row * nx + a] : starts[row * nx + b + 1]]
                               for row in range(max(ty - r, 0), min(ty + r, ny - 1) + 1)])

    cells = np.empty((height, width), dtype=np.intp)
    for ty in range(ny):
        y0, y1 = ty * tile, min(ty * tile + tile, height)
        for tx in range(nx):
            x0, x1 = tx * tile, min(tx * tile + tile, width)
            cy, cx = (y0 + y1 - 1) / 2, (x0 + x1 - 1) / 2
            r = 0
            while not len(near := sites_near(ty, tx, r)):
                r += 1
            # +1 keeps float rounding from dropping a site at the boundary.
            reach = (np.sqrt(((sy[near] - cy) ** 2 + (sx[near] - cx) ** 2).min())
                     + np.hypot(y1 - 1 - cy, x1 - 1 - cx) + 1)
            near = np.sort(sites_near(ty, tx, int(reach // tile) + 1))
            dy = np.maximum(np.maximum(y0 - sy[near], sy[near] - (y1 - 1)), 0)
            dx = np.maximum(np.maximum(x0 - sx[near], sx[near] - (x1 - 1)), 0)
            near = near[dy**2 + dx**2 <= reach**2]
            # Sites on the last axis: argmin runs along contiguous memory.
            d2 = ((np.arange(y0, y1)[:, None, None] - sy[near]) ** 2
                  + (np.arange(x0, x1)[:, None] - sx[near]) ** 2)
            cells[y0:y1, x0:x1] = near[d2.argmin(axis=2)]
    return cells


def gen_ground_truth(
    height: int,
    width: int,
    classes: int,
    region_scale: int = 8,
    seed: int = 0,
) -> tuple[LabelMap, FeatureMap]:
    """Blob-structured label map plus class-conditional Gaussian features.

    ``region_scale`` sets the typical blob side length in pixels.  Every
    class is guaranteed present (the first ``classes`` Voronoi sites keep
    their own pixel).  Features have one dimension per class, and class
    c's feature mean is 2.0 along axis c, so a nearest-mean classifier
    separates the classes comfortably at ``_FEATURE_NOISE``.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if classes > UNLABELED_ID:
        raise ValueError(f"class count must fit 16-bit storage, got {classes}")
    if region_scale < 1:
        raise ValueError("region_scale must be >= 1")
    if classes > height * width:
        raise ValueError(f"cannot place {classes} classes on {height}x{width} pixels")
    rng = np.random.default_rng(seed)
    num_sites = min(max(classes, round(height * width / region_scale**2)), height * width)
    cells = _voronoi_cells(height, width, num_sites, rng)
    site_class = np.concatenate(
        [np.arange(classes), rng.integers(0, classes, size=num_sites - classes)]
    )
    labels = site_class[cells]
    means = 2.0 * np.eye(classes)
    feats = means[labels] + _FEATURE_NOISE * rng.standard_normal((height, width, classes))
    return LabelMap(labels.astype(np.uint16), classes), FeatureMap(feats)


def corrupt_teacher(
    gt: LabelMap,
    per_class_error: Sequence[float],
    seed: int,
    blob_scale: int = 0,
) -> LabelMap:
    """Teacher labels with a controlled per-class error.

    Each ground-truth pixel of class c flips to a uniformly random other
    class with probability ``per_class_error[c]``; with ``blob_scale`` > 0
    the flip decisions are shared within Voronoi blobs of that scale, so
    errors come out spatially coherent instead of i.i.d.  ``soften`` gives
    the labels a certainty scale.
    """
    rates = np.asarray(per_class_error, dtype=np.float64)
    num_classes = gt.num_classes
    if rates.shape != (num_classes,):
        raise ValueError(f"need one error rate per class ({num_classes})")
    if (rates < 0).any() or (rates > 1).any():
        raise ValueError("error rates must lie in [0, 1]")
    if gt.unlabeled_mask().any():
        raise ValueError("ground truth may not contain unlabeled pixels")

    rng = np.random.default_rng(seed)
    labels = gt.values.astype(np.int64)
    h, w = labels.shape
    if blob_scale > 0:
        num_blobs = min(max(1, round(h * w / blob_scale**2)), h * w)
        blobs = _voronoi_cells(h, w, num_blobs, rng)
        flip_draw = rng.random((num_blobs, num_classes))[blobs, labels]
        offsets = rng.integers(1, num_classes, size=(num_blobs, num_classes))[
            blobs, labels
        ]
    else:
        flip_draw = rng.random((h, w))
        offsets = rng.integers(1, num_classes, size=(h, w))
    flip = flip_draw < rates[labels]
    labels[flip] = (labels[flip] + offsets[flip]) % num_classes
    return LabelMap(labels.astype(np.uint16), num_classes)


def soften(labels: LabelMap, temperature: float) -> ProbMap:
    """Labels as probabilities: softmax of one-hot logits scaled by
    1/temperature.  Low temperature means near-1.0 certainty, high
    temperature diffuse certainty.  The argmax always equals the label, so
    unification is invariant to temperature; a temperature so high that the
    top probability would round down to the others raises ``ValueError``.
    """
    num_classes = labels.num_classes
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    decay = np.exp(-1.0 / temperature)
    p_top = 1.0 / (1.0 + (num_classes - 1) * decay)
    p_other = (1.0 - p_top) / (num_classes - 1)
    if not p_top > p_other:
        # exp(-1/T) rounds to 1 from about T = 1e16: every class ties.
        raise ValueError(
            f"temperature {temperature} is too high to keep the label on top"
        )
    if labels.unlabeled_mask().any():
        raise ValueError("cannot soften unlabeled pixels")
    probs = np.full((*labels.values.shape, num_classes), p_other)
    np.put_along_axis(probs, labels.values[:, :, None], p_top, axis=2)
    return ProbMap(probs)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Standard synthetic benchmark: blob scenes with a mixed-quality ensemble.

    Teachers have complementary per-class strengths, mirroring how real
    ensemble members trained with different methods specialize on
    different classes: each class gets one designated specialist teacher
    whose error rate comes from [_SPECIALIST_LOW, _SPECIALIST_HIGH], while
    the other teachers draw from [_ERROR_LOW, _ERROR_HIGH].  At the defaults
    per-class IoU lands roughly in the 0.6-0.9 band.  Temperatures cycle
    through ``_TEMPERATURES`` so members emit certainty on deliberately
    different scales, and features carry ``_FEATURE_NOISE``; these module
    constants are fixed, and each field here is one ``synth`` flag.
    """

    height: int = 64
    width: int = 64
    classes: int = 8
    num_teachers: int = 4
    images: int = 6
    region_scale: int = 8
    teacher_blob_scale: int = 4

    def __post_init__(self):
        if self.images < 2:
            raise ValueError("benchmark needs >= 2 images (protocol split)")
        if self.num_teachers < 1:
            raise ValueError("benchmark needs >= 1 teacher")
        if self.teacher_blob_scale < 0:
            raise ValueError(f"teacher_blob_scale must be >= 0, got {self.teacher_blob_scale}")


@dataclass(frozen=True, eq=False)
class Benchmark:
    """Materialized benchmark instance (teacher-major label maps); teacher
    t's probabilities are ``soften`` of its labels at ``temperatures[t]``."""

    gts: tuple
    feats: tuple
    teacher_labels: tuple  # teacher_labels[t][i] = teacher t on image i
    error_rates: np.ndarray  # (T, C)
    temperatures: np.ndarray  # (T,)

    @property
    def num_teachers(self) -> int:
        return len(self.teacher_labels)


def make_benchmark(config: BenchmarkConfig, seed: int) -> Benchmark:
    """Deterministically generate scenes and a mixed-quality ensemble."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(_ERROR_LOW, _ERROR_HIGH, size=(config.num_teachers, config.classes))
    # One specialist per class, cycling over a shuffled teacher order.
    order = rng.permutation(config.num_teachers)
    for c in range(config.classes):
        specialist = order[c % config.num_teachers]
        rates[specialist, c] = rng.uniform(_SPECIALIST_LOW, _SPECIALIST_HIGH)
    temps = np.array(
        [_TEMPERATURES[t % len(_TEMPERATURES)] for t in range(config.num_teachers)]
    )
    gts, feats = [], []
    for _ in range(config.images):
        gt, fm = gen_ground_truth(
            config.height,
            config.width,
            config.classes,
            region_scale=config.region_scale,
            seed=int(rng.integers(2**63)),
        )
        gts.append(gt)
        feats.append(fm)
    teacher_labels = tuple(
        tuple(corrupt_teacher(gts[i], rates[t], seed=int(rng.integers(2**63)),
                              blob_scale=config.teacher_blob_scale)
              for i in range(config.images))
        for t in range(config.num_teachers))
    return Benchmark(tuple(gts), tuple(feats), teacher_labels, rates, temps)


def make_underperformer_maps(bench: Benchmark, seed: int) -> tuple:
    """One confidently wrong teacher's labels for every benchmark image; its
    certainty is near 1.0 once softened at ``UNDERPERFORMER_TEMPERATURE``."""
    rng = np.random.default_rng(seed)
    rates = np.full(bench.gts[0].num_classes, _UNDERPERFORMER_ERROR)
    return tuple(corrupt_teacher(gt, rates, seed=int(rng.integers(2**63)))
                 for gt in bench.gts)
