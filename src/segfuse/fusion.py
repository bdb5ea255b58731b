"""Fuse unified teacher predictions into a single label map.

Two fusion routes:

* ``pixel_fuse``   -- per-pixel majority vote over all teachers (baseline);
* ``channel_fuse`` -- recombine, per class, the prediction channel of the
  one teacher chosen by a fusion policy, then resolve pixels claimed by
  multiple channels with a windowed majority count.

Both are pure functions.  Channel fusion is evaluated in two phases (build
the per-class pixel sets, then resolve the overlap) so overlap resolution
is independent per pixel and parallel-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import UNLABELED_ID, FusionPolicy, LabelMap, _frozen, check_same_grid


def _check_unified(maps: Sequence[LabelMap]) -> list[LabelMap]:
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one unified map")
    check_same_grid(maps, "unified map")
    for i, m in enumerate(maps):
        if m.unlabeled_mask().any():
            raise ValueError(f"unified map {i} contains unlabeled pixels")
    return maps


def pixel_fuse(unified: Sequence[LabelMap]) -> LabelMap:
    """Majority vote per pixel; ties go to the smallest class id."""
    maps = _check_unified(unified)
    num_classes = maps[0].num_classes
    h, w = maps[0].values.shape
    votes = np.zeros((num_classes, h, w), dtype=np.int32)
    gy, gx = np.indices((h, w))
    for m in maps:
        votes[m.values.astype(np.intp), gy, gx] += 1
    return LabelMap(votes.argmax(axis=0).astype(np.uint16), num_classes)


@dataclass(frozen=True, eq=False)
class ChannelSets:
    """Per-class pixel sets A_c selected by the policy, plus their overlap.

    ``class_masks[c]`` holds the pixels the selected teacher labeled as c;
    ``overlap`` is the union of all pairwise intersections, i.e. pixels
    claimed by two or more channels.
    """

    class_masks: np.ndarray
    overlap: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.class_masks, dtype=bool)
        if m.ndim != 3 or m.shape[0] < 2:
            raise ValueError(f"class masks must be C x H x W with C >= 2, got {m.shape}")
        claims = m.sum(axis=0)
        object.__setattr__(self, "class_masks", _frozen(m))
        object.__setattr__(self, "overlap", _frozen(claims >= 2))


def build_channel_sets(
    unified: Sequence[LabelMap], policy: FusionPolicy
) -> ChannelSets:
    """Pick each class channel from the teacher the policy designates."""
    maps = _check_unified(unified)
    num_classes = maps[0].num_classes
    if policy.num_classes != num_classes:
        raise ValueError(
            f"policy covers {policy.num_classes} classes, maps have {num_classes}"
        )
    if policy.num_teachers > len(maps):
        raise ValueError(
            f"policy expects {policy.num_teachers} teachers, got {len(maps)} maps"
        )
    masks = np.stack(
        [maps[policy.teacher_for(c)].values == c for c in range(num_classes)]
    )
    return ChannelSets(masks)


def window_sum(mask: np.ndarray, kappa: int) -> np.ndarray:
    """Count true cells in the kappa x kappa window centred at each pixel.

    Windows are clipped at the image borders (no padding), so border
    counts run over fewer cells.  Exact integer arithmetic throughout.
    """
    h, w = mask.shape
    half = kappa // 2
    ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    ii[1:, 1:] = mask.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    r0 = np.clip(np.arange(h) - half, 0, h)
    r1 = np.clip(np.arange(h) + half + 1, 0, h)
    c0 = np.clip(np.arange(w) - half, 0, w)
    c1 = np.clip(np.arange(w) + half + 1, 0, w)
    return (
        ii[r1[:, None], c1[None, :]]
        - ii[r0[:, None], c1[None, :]]
        - ii[r1[:, None], c0[None, :]]
        + ii[r0[:, None], c0[None, :]]
    )


def _check_kappa(kappa: int) -> None:
    if not isinstance(kappa, (int, np.integer)):
        raise ValueError(f"kappa must be an integer, got {kappa!r}")
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError(f"kappa must be odd and >= 1, got {kappa}")


def resolve_conflicts(sets: ChannelSets, kappa: int) -> LabelMap:
    """Assign one class to every overlap pixel by windowed majority count.

    For each contested pixel the winner is the claiming class whose pixel
    set has the most members inside the kappa x kappa window; counts use
    the raw per-class sets (contested pixels included) and ties go to the
    smallest claiming class id.  Non-overlap pixels come back unlabeled.
    """
    _check_kappa(kappa)
    num_classes, h, w = sets.class_masks.shape
    counts = np.stack([window_sum(sets.class_masks[c], kappa) for c in range(num_classes)])
    # Restrict the argmax to claiming classes: every claiming class counts
    # at least itself (>= 1), so -1 never wins.
    scores = np.where(sets.class_masks, counts, -1)
    winners = scores.argmax(axis=0)
    out = np.full((h, w), UNLABELED_ID, dtype=np.uint16)
    out[sets.overlap] = winners[sets.overlap].astype(np.uint16)
    return LabelMap(out, num_classes)


def channel_fuse(
    unified: Sequence[LabelMap], policy: FusionPolicy, kappa: int = 13
) -> LabelMap:
    """Recombine class channels across teachers under the given policy.

    Three cases per pixel: claimed by several channels -> windowed
    majority among the claimants; claimed by exactly one channel -> that
    class; claimed by none -> unlabeled.
    """
    _check_kappa(kappa)
    sets = build_channel_sets(unified, policy)
    num_classes, h, w = sets.class_masks.shape
    out = np.full((h, w), UNLABELED_ID, dtype=np.uint16)
    single = sets.class_masks & ~sets.overlap[None, :, :]
    for c in range(num_classes):
        out[single[c]] = c
    if sets.overlap.any():
        resolved = resolve_conflicts(sets, kappa)
        out[sets.overlap] = resolved.values[sets.overlap]
    return LabelMap(out, num_classes)
