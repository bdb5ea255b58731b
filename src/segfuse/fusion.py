"""Fuse unified teacher predictions into a single label map.

Two fusion routes:

* ``pixel_fuse``   -- per-pixel majority vote over all teachers (baseline);
* ``channel_fuse`` -- recombine, per class, the prediction channel of the
  one teacher chosen by a fusion policy, then settle pixels claimed by
  multiple channels with a windowed majority count.

Both are pure functions.  Channel fusion builds the per-class pixel sets
once, fills one output by class, and writes the winners of the contested
pixels into that same output.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import UNLABELED_ID, FusionPolicy, LabelMap, _frozen, check_same_grid

#: Conflict-resolution window size (kappa) unless a caller gives one.
DEFAULT_KAPPA = 13


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
    shape = maps[0].values.shape
    winner = np.zeros(shape, dtype=np.uint16)
    top = np.zeros(shape, dtype=np.int32)
    votes = np.empty(shape, dtype=np.int32)
    # Classes in ascending order with a strict ">": a tie keeps the smaller id.
    for c in range(num_classes):
        votes.fill(0)
        for m in maps:
            votes += m.values == c
        better = votes > top
        np.copyto(winner, c, where=better)
        np.copyto(top, votes, where=better)
    return LabelMap(winner, num_classes)


class ChannelSets(NamedTuple):
    """Per-class pixel sets A_c selected by the policy, plus their overlap.

    ``class_masks[c]`` holds the pixels the selected teacher labeled as c;
    ``overlap`` is the union of all pairwise intersections, i.e. pixels
    claimed by two or more channels.
    """

    class_masks: np.ndarray
    overlap: np.ndarray


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
    if policy.num_teachers != len(maps):
        raise ValueError(
            f"policy expects {policy.num_teachers} teachers, got {len(maps)} maps"
        )
    masks = np.empty((num_classes,) + maps[0].values.shape, dtype=bool)
    for c in range(num_classes):
        np.equal(maps[policy.teacher_for(c)].values, c, out=masks[c])
    return ChannelSets(_frozen(masks), _frozen(masks.sum(axis=0) >= 2))


def _summed_area(mask: np.ndarray, table: np.ndarray) -> None:
    """Fill ``table``, an (H+1) x (W+1) int64 buffer, with the summed-area
    table of ``mask`` (Crow 1984): ``table[i, j]`` is the sum of
    ``mask[:i, :j]``.  Built in place, so one buffer serves many masks.
    """
    table[0] = 0
    table[:, 0] = 0
    body = table[1:, 1:]
    body[...] = mask
    np.cumsum(body, axis=0, out=body)
    np.cumsum(body, axis=1, out=body)


def _window_span(centres: np.ndarray, kappa: int, size: int):
    """First and one-past-last index of each centre's window, clipped to [0, size]."""
    half = kappa // 2
    return np.clip(centres - half, 0, size), np.clip(centres + half + 1, 0, size)


def _window_corners(pixels: np.ndarray, kappa: int, h: int, w: int):
    """Flat indices into an (H+1) x (W+1) summed-area table of the four
    corners of each pixel's window: (bottom-right, top-right, bottom-left,
    top-left), so a window's count is ``t[br] - t[tr] - t[bl] + t[tl]``.
    """
    rows, cols = np.divmod(pixels, w)
    r0, r1 = _window_span(rows, kappa, h)
    c0, c1 = _window_span(cols, kappa, w)
    r0 *= w + 1
    r1 *= w + 1
    return r1 + c1, r0 + c1, r1 + c0, r0 + c0


def _check_kappa(kappa: int) -> None:
    if not isinstance(kappa, (int, np.integer)):
        raise ValueError(f"kappa must be an integer, got {kappa!r}")
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError(f"kappa must be odd and >= 1, got {kappa}")


def _contested_winners(
    class_masks: np.ndarray, contested: np.ndarray, kappa: int
) -> np.ndarray:
    """Winning class of each contested pixel, given as flat indices.

    A class's summed-area table is built only if it claims a contested
    pixel, and read only where it does.  Classes go in ascending order and
    a strict ">" keeps the smallest claiming id on ties; every claiming
    class counts at least itself (>= 1), so the initial 0 never wins.
    """
    num_classes, h, w = class_masks.shape
    corners = _window_corners(contested, kappa, h, w)
    table = np.empty((h + 1, w + 1), dtype=np.int64)
    flat = table.reshape(-1)
    best = np.zeros(contested.size, dtype=np.int64)
    winner = np.zeros(contested.size, dtype=np.uint16)
    for c in range(num_classes):
        claims = np.flatnonzero(class_masks[c].reshape(-1)[contested])
        if claims.size == 0:
            continue
        _summed_area(class_masks[c], table)
        br, tr, bl, tl = (k[claims] for k in corners)
        counts = flat[br] - flat[tr] - flat[bl] + flat[tl]
        better = counts > best[claims]
        best[claims[better]] = counts[better]
        winner[claims[better]] = c
    return winner


def channel_fuse(
    unified: Sequence[LabelMap], policy: FusionPolicy, kappa: int = DEFAULT_KAPPA
) -> LabelMap:
    """Recombine class channels across teachers under the given policy.

    Three cases per pixel: claimed by several channels -> windowed
    majority among the claimants; claimed by exactly one channel -> that
    class; claimed by none -> unlabeled.

    A contested pixel goes to the claiming class whose pixel set has the
    most members inside the kappa x kappa window; counts use the raw
    per-class sets (contested pixels included) and ties go to the smallest
    claiming class id.  Beyond the class masks, work and memory grow with
    the contested pixels, plus one summed-area table.
    """
    _check_kappa(kappa)
    sets = build_channel_sets(unified, policy)
    num_classes, h, w = sets.class_masks.shape
    out = np.full((h, w), UNLABELED_ID, dtype=np.uint16)
    for c in range(num_classes):
        np.copyto(out, c, where=sets.class_masks[c])
    contested = np.flatnonzero(sets.overlap)
    out.reshape(-1)[contested] = _contested_winners(sets.class_masks, contested, kappa)
    return LabelMap(out, num_classes)
