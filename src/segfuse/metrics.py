"""Per-class IoU, certainty statistics, and the certainty/IoU diagnostic."""

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


def _report_from_counts(inter, pred_n, gt_n) -> IoUReport:
    union = pred_n + gt_n - inter
    per_class = np.full(inter.shape, np.nan)
    defined = union > 0
    per_class[defined] = inter[defined] / union[defined]
    return IoUReport(per_class)


def per_class_iou(pred: LabelMap, gt: LabelMap) -> IoUReport:
    """IoU per class; classes absent from both maps are undefined (NaN)."""
    return _report_from_counts(*_iou_counts(pred, gt))


def dataset_iou(preds: Sequence[LabelMap], gts: Sequence[LabelMap]) -> IoUReport:
    """Pooled IoU over a list of prediction/ground-truth pairs."""
    preds, gts = list(preds), list(gts)
    if not preds or len(preds) != len(gts):
        raise ValueError("need equally many predictions and ground truths")
    totals = None
    for p, g in zip(preds, gts):
        counts = _iou_counts(p, g)
        if totals is None:
            totals = list(counts)
        else:
            if counts[0].size != totals[0].size:
                raise ValueError("class counts differ across image pairs")
            for acc, c in zip(totals, counts):
                acc += c
    return _report_from_counts(*totals)


def certainty_report(preds) -> IoUReport:
    """Per-class certainty rho of one member's distilled student.

    ``preds`` is the student's ProbMap (or list of ProbMaps, one per
    measurement image).  Class c's rho averages the student's class-c
    probability over the pixels where it predicts c; a class with no such
    pixel stays undefined.
    """
    maps = [preds] if isinstance(preds, ProbMap) else list(preds)
    if not maps:
        raise ValueError("empty measurement set")
    num_classes = maps[0].num_classes
    if any(m.num_classes != num_classes for m in maps):
        raise ValueError("measurement maps disagree on the class count")
    sums = np.zeros(num_classes)
    counts = np.zeros(num_classes, dtype=np.int64)
    for m in maps:
        hard = np.argmax(m.values, axis=2)
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


def certainty_histogram(prob: ProbMap, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of per-pixel maximum probability over [0, 1]."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    peak = prob.values.max(axis=2)
    counts, edges = np.histogram(peak, bins=bins, range=(0.0, 1.0))
    return counts, edges
