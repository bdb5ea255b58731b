"""Synthetic ground truth, features, and corrupted teacher predictions.

Ground truth uses seeded Voronoi blobs rather than i.i.d. pixel labels:
the windowed conflict resolver is spatially aware and only shows gains on
spatially coherent maps.  Features are class-conditional Gaussians so the
label maps are learnable by the toy student, which in turn makes the
certainty-aware selection protocol meaningful (students trained on bad
labels come out visibly less confident).

Teacher corruption controls per-class accuracy (flip rates) and certainty
scale (softmax temperature on one-hot logits) independently, reproducing
both the certainty-inconsistency and the performance-variation failure
modes at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelMap, ProbMap
from .distill import FeatureMap


#: Side of the square pixel tiles ``_voronoi_cells`` labels one at a time.
_TILE = 32


def _voronoi_cells(height: int, width: int, num_sites: int, rng) -> np.ndarray:
    """Partition the grid into nearest-site cells (ties to the lowest site).

    Works in square tiles, so memory does not grow with the grid.  Every
    pixel of a tile lies within ``reach`` of the site nearest the tile's
    centre, so only sites within ``reach`` of the tile can be nearest to
    one of its pixels; they stay in ascending order for the tie rule.
    """
    flat = rng.choice(height * width, size=num_sites, replace=False)
    sy = flat // width
    sx = flat % width
    cells = np.empty((height, width), dtype=np.intp)
    for y0 in range(0, height, _TILE):
        y1 = min(y0 + _TILE, height)
        for x0 in range(0, width, _TILE):
            x1 = min(x0 + _TILE, width)
            cy, cx = (y0 + y1 - 1) / 2, (x0 + x1 - 1) / 2
            # +1 keeps float rounding from dropping a site at the boundary.
            reach = (np.sqrt(((sy - cy) ** 2 + (sx - cx) ** 2).min())
                     + np.hypot(y1 - 1 - cy, x1 - 1 - cx) + 1)
            dy = np.maximum(np.maximum(y0 - sy, sy - (y1 - 1)), 0)
            dx = np.maximum(np.maximum(x0 - sx, sx - (x1 - 1)), 0)
            near = np.flatnonzero(dy**2 + dx**2 <= reach**2)
            yy, xx = np.ogrid[y0:y1, x0:x1]
            d2 = (yy - sy[near, None, None]) ** 2 + (xx - sx[near, None, None]) ** 2
            cells[y0:y1, x0:x1] = near[d2.argmin(axis=0)]
    return cells


def gen_ground_truth(
    height: int,
    width: int,
    classes: int,
    region_scale: int = 8,
    seed: int = 0,
    feature_noise: float = 0.5,
) -> tuple[LabelMap, FeatureMap]:
    """Blob-structured label map plus class-conditional Gaussian features.

    ``region_scale`` sets the typical blob side length in pixels.  Every
    class is guaranteed present (the first ``classes`` Voronoi sites keep
    their own pixel).  Features have one dimension per class, and class
    c's feature mean is 2.0 along axis c, so a nearest-mean classifier
    separates the classes comfortably at the default noise level.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
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
    feats = means[labels] + feature_noise * rng.standard_normal((height, width, classes))
    return LabelMap(labels.astype(np.uint16), classes), FeatureMap(feats)


def corrupt_teacher(
    gt: LabelMap,
    per_class_error: Sequence[float],
    temperature: float,
    seed: int,
    blob_scale: int = 0,
) -> ProbMap:
    """Teacher prediction with controlled per-class error and certainty scale.

    Each ground-truth pixel of class c flips to a uniformly random other
    class with probability ``per_class_error[c]``; with ``blob_scale`` > 0
    the flip decisions are shared within Voronoi blobs of that scale, so
    errors come out spatially coherent instead of i.i.d.  The hard labels
    then become probabilities via softmax of one-hot logits scaled by
    1/temperature: low temperature means near-1.0 certainty, high
    temperature means diffuse certainty.  The argmax always equals the
    corrupted hard label, so unification is invariant to temperature; a
    temperature so high that the top probability would round down to the
    others raises ``ValueError``.
    """
    rates = np.asarray(per_class_error, dtype=np.float64)
    num_classes = gt.num_classes
    if rates.shape != (num_classes,):
        raise ValueError(f"need one error rate per class ({num_classes})")
    if (rates < 0).any() or (rates > 1).any():
        raise ValueError("error rates must lie in [0, 1]")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    decay = np.exp(-1.0 / temperature)
    p_top = 1.0 / (1.0 + (num_classes - 1) * decay)
    p_other = (1.0 - p_top) / (num_classes - 1)
    if not p_top > p_other:
        # exp(-1/T) rounds to 1 from about T = 1e16: every class ties.
        raise ValueError(
            f"temperature {temperature} is too high to keep the corrupted "
            "label on top"
        )
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

    probs = np.full((h, w, num_classes), p_other)
    np.put_along_axis(probs, labels[:, :, None], p_top, axis=2)
    return ProbMap(probs)


def gen_underperformer(
    gt: LabelMap,
    seed: int,
    error_rate: float = 0.6,
    temperature: float = 0.1,
) -> ProbMap:
    """Confidently wrong teacher: high uniform error, near-1.0 certainty."""
    rates = np.full(gt.num_classes, error_rate)
    return corrupt_teacher(gt, rates, temperature, seed)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Standard synthetic benchmark: blob scenes with a mixed-quality ensemble.

    Teachers have complementary per-class strengths, mirroring how real
    ensemble members trained with different methods specialize on
    different classes: each class gets one designated specialist teacher
    whose error rate comes from [specialist_low, specialist_high], while
    the other teachers draw from [error_low, error_high].  At the defaults
    per-class IoU lands roughly in the 0.6-0.9 band.  Temperatures cycle
    through ``temperatures`` so members emit certainty on deliberately
    different scales.
    """

    height: int = 64
    width: int = 64
    classes: int = 8
    num_teachers: int = 4
    images: int = 6
    region_scale: int = 8
    feature_noise: float = 0.5
    error_low: float = 0.15
    error_high: float = 0.30
    specialist_low: float = 0.01
    specialist_high: float = 0.05
    temperatures: tuple = (0.1, 0.5, 1.0, 2.0)
    teacher_blob_scale: int = 4

    def __post_init__(self):
        if self.images < 2:
            raise ValueError("benchmark needs >= 2 images (protocol split)")
        if self.num_teachers < 1:
            raise ValueError("benchmark needs >= 1 teacher")
        if not 0 <= self.error_low <= self.error_high <= 1:
            raise ValueError("need 0 <= error_low <= error_high <= 1")
        if not 0 <= self.specialist_low <= self.specialist_high <= 1:
            raise ValueError("need 0 <= specialist_low <= specialist_high <= 1")
        if self.teacher_blob_scale < 0:
            raise ValueError(f"teacher_blob_scale must be >= 0, got {self.teacher_blob_scale}")


@dataclass(frozen=True, eq=False)
class Benchmark:
    """Materialized benchmark instance (teacher-major probability maps)."""

    config: BenchmarkConfig
    gts: tuple
    feats: tuple
    teacher_probs: tuple  # teacher_probs[t][i] = teacher t on image i
    error_rates: np.ndarray  # (T, C)
    temperatures: np.ndarray  # (T,)

    @property
    def num_teachers(self) -> int:
        return len(self.teacher_probs)


def make_benchmark(config: BenchmarkConfig, seed: int) -> Benchmark:
    """Deterministically generate scenes and a mixed-quality ensemble."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(
        config.error_low, config.error_high, size=(config.num_teachers, config.classes)
    )
    # One specialist per class, cycling over a shuffled teacher order.
    order = rng.permutation(config.num_teachers)
    for c in range(config.classes):
        specialist = order[c % config.num_teachers]
        rates[specialist, c] = rng.uniform(config.specialist_low, config.specialist_high)
    temps = np.array(
        [
            config.temperatures[t % len(config.temperatures)]
            for t in range(config.num_teachers)
        ]
    )
    gts, feats = [], []
    for _ in range(config.images):
        gt, fm = gen_ground_truth(
            config.height,
            config.width,
            config.classes,
            region_scale=config.region_scale,
            seed=int(rng.integers(2**63)),
            feature_noise=config.feature_noise,
        )
        gts.append(gt)
        feats.append(fm)
    teacher_probs = []
    for t in range(config.num_teachers):
        maps = [
            corrupt_teacher(
                gts[i],
                rates[t],
                float(temps[t]),
                seed=int(rng.integers(2**63)),
                blob_scale=config.teacher_blob_scale,
            )
            for i in range(config.images)
        ]
        teacher_probs.append(tuple(maps))
    return Benchmark(
        config, tuple(gts), tuple(feats), tuple(teacher_probs), rates, temps
    )


def make_underperformer_maps(bench: Benchmark, seed: int) -> tuple:
    """One confidently-wrong teacher's predictions for every benchmark image."""
    rng = np.random.default_rng(seed)
    return tuple(
        gen_underperformer(gt, seed=int(rng.integers(2**63))) for gt in bench.gts
    )
