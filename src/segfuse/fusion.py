"""Fuse unified teacher predictions into a single label map.

Two fusion routes:

* ``pixel_fuse``   -- per-pixel majority vote over all teachers (baseline);
* ``channel_fuse`` -- recombine, per class, the prediction channel of the
  one teacher chosen by a fusion policy, then settle pixels claimed by
  multiple channels with a windowed majority count.

Both are pure functions on small integers.  Channel fusion builds the
per-class pixel sets once, fills one output by class, and writes the
winners of the contested pixels into that same output.
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
    """Majority vote per pixel; ties go to the smallest class id.

    Member i votes for its class once for each member from i on that agrees
    with it, itself included: the class's full count at its first member,
    less at later ones, which so never win.  That is T(T-1)/2 compares, in
    counts of the smallest unsigned type that holds T.  A running maximum
    of count << 16 | ~class keeps the top count and, among equal counts,
    the smallest class, so memory does not grow with T.
    """
    maps = _check_unified(unified)
    values = [m.values for m in maps]
    shape = values[0].shape
    best = np.zeros(shape, np.min_scalar_type(len(values) << 16))
    key = np.empty_like(best)
    votes = np.empty(shape, np.min_scalar_type(len(values)))
    agree = np.empty(shape, bool)
    for i, v in enumerate(values):
        votes.fill(1)
        for u in values[i + 1 :]:
            np.equal(v, u, out=agree)
            votes += agree
        np.left_shift(votes, 16, out=key, dtype=key.dtype)
        key |= ~v
        np.maximum(best, key, out=best)
    winner = best.astype(np.uint16)  # the low 16 bits: ~class
    np.invert(winner, out=winner)
    return LabelMap(winner, maps[0].num_classes)


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
    # A member labels a pixel once, so it has at most min(C, T) claims.
    claims = np.add.reduce(masks, axis=0, dtype=np.min_scalar_type(min(num_classes, len(maps))))
    return ChannelSets(_frozen(masks), _frozen(claims >= 2))


def _box_sums(ones: np.ndarray, sums: np.ndarray, width: int, stride: int) -> None:
    """Set ``sums[i]``, a flat buffer like ``ones``, to the sum of
    ``ones[i + k * stride]`` over k < ``width``, an odd count, wherever all
    of them lie in the buffer; ``ones`` is overwritten.  Spans of 1, 2, 4,
    ... are doubled in place and ``sums`` takes those that make up
    ``width`` (13 = 1 + 4 + 8): O(log width) passes.  Elements whose sum
    would run past the end, or across a row when ``stride`` is 1, are left
    holding partial sums; a caller reads only the others.
    """
    sums[...] = ones
    done = span = 1
    rest = width >> 1
    while rest:
        shift = span * stride
        ones[:-shift] += ones[shift:]  # in place: numpy reads ahead of its writes
        span *= 2
        if rest & 1:
            shift = done * stride
            sums[:-shift] += ones[shift:]
            done += span
        rest >>= 1


def _check_kappa(kappa: int) -> None:
    if not isinstance(kappa, (int, np.integer)):
        raise ValueError(f"kappa must be an integer, got {kappa!r}")
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError(f"kappa must be odd and >= 1, got {kappa}")


def _contested_winners(
    class_masks: np.ndarray, contested: np.ndarray, kappa: int
) -> np.ndarray:
    """Winning class of each contested pixel, given as flat indices.

    A class's window counts are taken only if it claims a contested pixel,
    and read only where it does.  Its mask goes into a zero-padded
    (H + kappa - 1) x (W + kappa - 1) grid, and box sums along each row,
    then down each column, leave at (i, j) the count of the window centred
    on pixel (i, j); the padding clips windows at the border.  A window is
    first cut to at most 2n - 1 pixels along an axis of n, which changes
    no count.  Classes go in ascending order and a strict ">" keeps the
    smallest claiming id on ties; every claiming class counts at least
    itself (>= 1), so the initial 0 never wins.
    """
    num_classes, h, w = class_masks.shape
    half_h, half_w = min(kappa // 2, h - 1), min(kappa // 2, w - 1)
    padded_w = w + 2 * half_w
    counts_type = np.min_scalar_type((2 * half_h + 1) * (2 * half_w + 1))
    padded, across, counts = (
        np.empty((h + 2 * half_h) * padded_w, counts_type) for _ in range(3)
    )
    grid = padded.reshape(-1, padded_w)
    rows, cols = np.divmod(contested, w)
    at = rows * padded_w + cols
    best = np.zeros(contested.size, counts_type)
    winner = np.zeros(contested.size, dtype=np.uint16)
    for c in range(num_classes):
        claims = np.flatnonzero(class_masks[c].reshape(-1)[contested])
        if claims.size == 0:
            continue
        grid.fill(0)
        grid[half_h : half_h + h, half_w : half_w + w] = class_masks[c]
        _box_sums(padded, across, 2 * half_w + 1, 1)
        _box_sums(across, counts, 2 * half_h + 1, padded_w)
        found = counts[at[claims]]
        better = found > best[claims]
        best[claims[better]] = found[better]
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
    claiming class id.  Beyond the class masks, memory grows with the
    contested pixels, plus three padded small-integer grids; work adds
    O(log kappa) passes over a grid for each class that claims a contested
    pixel.
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
