"""Executable checks of the two channel-fusion guarantees.

Both guarantees are conditional on an empty overlap set, so the instance
generators construct ensembles whose selected channels cannot overlap:
either every teacher shares one prediction map (any policy then induces a
partition), or teachers specialize in disjoint class groups and are exact
(up to deletions) on the classes they own.  The checks themselves accept
arbitrary instances and report unmet preconditions instead of raising.
They fuse with kappa = 1: with no overlap there is no conflict to resolve.

The mean IoU compared against the bounds averages over *all* classes with
absent classes counted as 0, matching the bound's 1/|C| normalization;
that is never larger than the defined-classes mean reported elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FusionPolicy, IoUReport, LabelMap
from .fusion import build_channel_sets, channel_fuse
from .metrics import dataset_iou
from .policy import select_oracle, select_random
from .synth import corrupt_teacher, gen_ground_truth

#: Class and teacher counts of every generated instance.
_CLASSES, _TEACHERS = 4, 3


@dataclass(frozen=True)
class Prop1Result:
    precondition_met: bool
    bound: float
    miou: float
    holds: Optional[bool]


@dataclass(frozen=True)
class Prop2Result:
    precondition_met: bool
    fused_miou: float
    max_teacher_miou: float
    holds: bool


def _miou_all_classes(report: IoUReport) -> float:
    """Mean over all |C| classes, counting undefined entries as 0."""
    return float(np.nan_to_num(report.per_class, nan=0.0).sum() / report.num_classes)


def check_prop1(
    unified: Sequence[LabelMap],
    gt: LabelMap,
    policy: FusionPolicy,
    alpha: float,
    classes: Sequence[int],
) -> Prop1Result:
    """Lower-bound check: if the listed classes have IoU >= alpha for every
    teacher and the overlap set is empty, fused mIoU >= n*alpha/|C|."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    classes = sorted(set(int(c) for c in classes))
    if any(c < 0 or c >= gt.num_classes for c in classes):
        raise ValueError("listed classes out of range")
    reports = [dataset_iou([m], [gt]) for m in unified]
    phi_ok = all(
        not np.isnan(r.per_class[c]) and r.per_class[c] >= alpha
        for r in reports
        for c in classes
    )
    overlap_empty = not build_channel_sets(unified, policy).overlap.any()
    precondition_met = phi_ok and overlap_empty
    fused = channel_fuse(unified, policy, 1)
    miou = _miou_all_classes(dataset_iou([fused], [gt]))
    bound = len(classes) * alpha / gt.num_classes
    holds = bool(miou >= bound) if precondition_met else None
    return Prop1Result(precondition_met, bound, miou, holds)


def check_prop2(unified: Sequence[LabelMap], gt: LabelMap) -> Prop2Result:
    """Optimal-policy check: under the per-class-argmax policy with an empty
    overlap set, fused mIoU is at least every single teacher's mIoU."""
    reports = [dataset_iou([m], [gt]) for m in unified]
    policy = select_oracle(reports)
    precondition_met = not build_channel_sets(unified, policy).overlap.any()
    fused = channel_fuse(unified, policy, 1)
    fused_miou = _miou_all_classes(dataset_iou([fused], [gt]))
    teacher_mious = [_miou_all_classes(r) for r in reports]
    max_teacher = max(teacher_mious)
    holds = bool(fused_miou >= max_teacher)
    return Prop2Result(precondition_met, fused_miou, max_teacher, holds)


@dataclass(frozen=True, eq=False)
class PropInstance:
    unified: tuple
    gt: LabelMap
    policy: FusionPolicy
    alpha: float
    classes: tuple


def _corrupted_copy(gt: LabelMap, rng) -> LabelMap:
    rates = rng.uniform(0.0, 0.2, size=gt.num_classes)
    return corrupt_teacher(gt, rates, seed=int(rng.integers(2**63)))


def gen_prop1_instance(seed: int) -> PropInstance:
    """12x12 instance guaranteed to satisfy the lower-bound hypothesis.

    All teachers share one moderately corrupted map, so the selected
    channels partition the image for any policy (empty overlap by
    construction) and the per-class IoUs agree across teachers.  The
    listed classes are those whose IoU clears the sampled alpha.
    """
    rng = np.random.default_rng(seed)
    gt, _ = gen_ground_truth(
        12, 12, _CLASSES, region_scale=4, seed=int(rng.integers(2**63))
    )
    shared = _corrupted_copy(gt, rng)
    unified = tuple([shared] * _TEACHERS)
    policy = select_random(_CLASSES, _TEACHERS, seed=int(rng.integers(2**63)))
    phi = dataset_iou([shared], [gt]).per_class
    alpha = float(rng.uniform(0.3, 0.7))
    listed = [c for c in range(_CLASSES) if not np.isnan(phi[c]) and phi[c] >= alpha]
    if not listed:
        best = int(np.nanargmax(phi))
        alpha = float(phi[best]) * 0.95
        listed = [c for c in range(_CLASSES) if not np.isnan(phi[c]) and phi[c] >= alpha]
    return PropInstance(unified, gt, policy, alpha, tuple(listed))


def gen_prop2_instance(seed: int) -> tuple:
    """12x12 (unified maps, gt) guaranteed overlap-free under the argmax policy.

    Two modes: a shared corrupted map for every teacher, or specialists
    that are exact on the classes they own and fill everything else with
    scrambled non-owned classes.  Owned channels then equal their
    ground-truth regions while non-owned channels can never reach IoU 1
    without equalling the same region, so the argmax policy always
    recombines a partition of the image: the overlap set stays empty.
    """
    rng = np.random.default_rng(seed)
    gt, _ = gen_ground_truth(
        12, 12, _CLASSES, region_scale=4, seed=int(rng.integers(2**63))
    )
    if rng.random() < 0.5:
        shared = _corrupted_copy(gt, rng)
        return tuple([shared] * _TEACHERS), gt

    order = rng.permutation(_CLASSES)
    owners = np.empty(_CLASSES, dtype=np.int64)
    for pos, c in enumerate(order):
        owners[c] = pos % _TEACHERS
    gt_values = gt.values.astype(np.intp)
    maps = []
    for t in range(_TEACHERS):
        owned = np.flatnonzero(owners == t)
        not_owned = np.flatnonzero(owners != t)
        # Filler pixels (outside the owned ground-truth regions) only ever
        # carry non-owned classes, so the owned channels stay exact.
        remap = np.arange(_CLASSES)
        remap[not_owned] = rng.choice(not_owned, size=not_owned.size)
        values = remap[gt_values]
        filler = ~np.isin(gt_values, owned)
        scramble = filler & (rng.random(gt_values.shape) < rng.uniform(0.0, 0.4))
        n_scramble = int(np.count_nonzero(scramble))
        if n_scramble:
            values[scramble] = rng.choice(not_owned, size=n_scramble)
        maps.append(LabelMap(values.astype(np.uint16), _CLASSES))
    return tuple(maps), gt
