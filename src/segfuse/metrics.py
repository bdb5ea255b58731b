"""Pooled per-class IoU, and the certainty diagnostics: the certainty/IoU
cosine and the peak-probability histogram."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import IoUReport, LabelMap, ProbMap, check_same_grid, stack_reports


def _iou_counts(pred: LabelMap, gt: LabelMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer (intersection, predicted, ground-truth) counts per class.

    Unlabeled prediction pixels belong to no predicted class, so they only
    enter unions through the ground truth side.
    """
    check_same_grid([pred, gt], "label map")
    if gt.unlabeled_mask().any():
        raise ValueError("ground truth may not contain unlabeled pixels")
    c = pred.num_classes
    inter = np.zeros(c, dtype=np.int64)
    pred_n = np.zeros(c, dtype=np.int64)
    gt_n = np.zeros(c, dtype=np.int64)
    for k in range(c):
        p = pred.values == k
        g = gt.values == k
        inter[k] = np.count_nonzero(p & g)
        pred_n[k] = np.count_nonzero(p)
        gt_n[k] = np.count_nonzero(g)
    return inter, pred_n, gt_n


def dataset_iou(preds: Sequence[LabelMap], gts: Sequence[LabelMap]) -> IoUReport:
    """IoU per class of the counts pooled over prediction/ground-truth pairs;
    a class absent from every map is undefined (NaN)."""
    preds, gts = list(preds), list(gts)
    if not preds or len(preds) != len(gts):
        raise ValueError(f"need equally many predictions and ground truths, "
                         f"got {len(preds)} and {len(gts)}")
    counts = [_iou_counts(p, g) for p, g in zip(preds, gts)]
    if len({inter.size for inter, _, _ in counts}) > 1:
        raise ValueError("class counts differ across image pairs")
    inter, pred_n, gt_n = (sum(column) for column in zip(*counts))
    union = pred_n + gt_n - inter
    per_class = np.full(inter.shape, np.nan)
    defined = union > 0
    per_class[defined] = inter[defined] / union[defined]
    return IoUReport(per_class)


def certainty_iou_cosine(
    rhos: Sequence[IoUReport], phis: Sequence[IoUReport]
) -> np.ndarray:
    """Cosine similarity between rho(c, .) and IoU(c, .) for each class.

    ``rhos[t]`` and ``phis[t]`` are member t's certainty and IoU reports.
    Undefined cells count as 0; a class whose either vector has zero norm
    gets NaN.
    """
    rhos, phis = list(rhos), list(phis)
    if len(phis) != len(rhos):
        raise ValueError(
            f"need one IoU report per teacher ({len(rhos)}), got {len(phis)}"
        )
    a = np.nan_to_num(stack_reports(rhos), nan=0.0)
    b = np.nan_to_num(stack_reports(phis), nan=0.0)
    if a.shape != b.shape:
        raise ValueError("IoU reports disagree with the certainty reports' class count")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.full(a.shape[0], np.nan)
    ok = (na > 0) & (nb > 0)
    out[ok] = (a[ok] * b[ok]).sum(axis=1) / (na[ok] * nb[ok])
    return out


def _check_bins(bins: int) -> None:
    limit = np.iinfo(np.intp).max // 8  # bins + 1 float64 edges must fit an array
    if not 1 <= bins < limit:
        raise ValueError(f"bins must be >= 1 and < {limit}, got {bins}")


def certainty_histogram(prob: ProbMap, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of per-pixel maximum probability over [0, 1]."""
    _check_bins(bins)
    peak = prob.values.max(axis=2)
    counts, edges = np.histogram(peak, bins=bins, range=(0.0, 1.0))
    return counts, edges
