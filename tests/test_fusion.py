from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.core import UNLABELED_ID, FusionPolicy, LabelMap
from segfuse.fusion import (
    ChannelSets,
    build_channel_sets,
    channel_fuse,
    pixel_fuse,
)
from segfuse.metrics import dataset_iou

from helpers import owners


def lmap(rows, classes):
    return LabelMap(np.array(rows), classes)


def vote_count_oracle(maps):
    """Exhaustive per-pixel vote counting with smallest-index tie break."""
    h, w = maps[0].values.shape
    out = np.zeros((h, w), dtype=np.uint16)
    for i in range(h):
        for j in range(w):
            counts = Counter(int(m.values[i, j]) for m in maps)
            top = max(counts.values())
            out[i, j] = min(c for c, n in counts.items() if n == top)
    return out


class TestPixelFuse:
    def test_unanimity(self):
        maps = [lmap([[2]], 3)] * 3
        assert pixel_fuse(maps).values[0, 0] == 2

    def test_majority_two_vs_one(self):
        maps = [lmap([[0]], 3), lmap([[0]], 3), lmap([[2]], 3)]
        assert pixel_fuse(maps).values[0, 0] == 0

    def test_tie_takes_smallest_class(self):
        maps = [lmap([[2]], 4), lmap([[1]], 4)]
        assert pixel_fuse(maps).values[0, 0] == 1

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            pixel_fuse([])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pixel_fuse([lmap([[0]], 2), lmap([[0, 1]], 2)])

    def test_rejects_unlabeled_inputs(self):
        with pytest.raises(ValueError):
            pixel_fuse([lmap([[UNLABELED_ID]], 2)])

    @given(
        st.integers(0, 10**6),
        st.integers(1, 9),  # up to more members than classes, where some must agree
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_vote_counting_oracle(self, seed, teachers, classes, h, w):
        rng = np.random.default_rng(seed)
        maps = [
            LabelMap(rng.integers(0, classes, size=(h, w)), classes)
            for _ in range(teachers)
        ]
        assert np.array_equal(pixel_fuse(maps).values, vote_count_oracle(maps))

    @given(st.integers(0, 10**6), st.integers(3, 19), st.integers(1, 7), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_forced_ties_match_oracle(self, seed, classes, h, w):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, classes, size=(h, w))
        y = rng.integers(0, classes, size=(h, w))
        ensembles = [
            [x, y],  # a 1-1 tie wherever the two differ
            [x, y, y, x],  # 2-2 ties
            [x, (x + 1) % classes, (x + 2) % classes],  # a 3-way tie everywhere
        ]
        for values in ensembles:
            maps = [LabelMap(v, classes) for v in values]
            assert np.array_equal(pixel_fuse(maps).values, vote_count_oracle(maps))

    @pytest.mark.parametrize("teachers", [2, 3, 5, 7])
    def test_every_member_disagrees(self, teachers):
        # Each pixel's members hold distinct classes, so every class has one
        # vote and the smallest of them wins.
        rng = np.random.default_rng(teachers)
        classes, h, w = 7, 6, 11
        labels = rng.permuted(np.broadcast_to(np.arange(classes), (h, w, classes)), axis=-1)
        maps = [LabelMap(labels[..., t], classes) for t in range(teachers)]
        fused = pixel_fuse(maps).values
        assert np.array_equal(fused, labels[..., :teachers].min(axis=-1))
        assert np.array_equal(fused, vote_count_oracle(maps))

    def test_memory_does_not_grow_with_members(self):
        """The vote keeps a running best over H x W, so 9 members peak no
        higher than 3 do, give or take one uint16 map: no T x H x W or
        C x H x W stack."""
        import tracemalloc

        rng = np.random.default_rng(0)
        classes, h, w = 19, 256, 512
        maps = [LabelMap(rng.integers(0, classes, size=(h, w)), classes) for _ in range(9)]
        peaks = []
        for members in (maps[:3], maps):
            tracemalloc.start()
            try:
                pixel_fuse(members)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 * h * w

    def test_teacher_order_invariant_up_to_ties(self):
        rng = np.random.default_rng(42)
        maps = [LabelMap(rng.integers(0, 4, size=(6, 6)), 4) for _ in range(5)]
        fused = pixel_fuse(maps)
        assert np.array_equal(fused.values, pixel_fuse(maps[::-1]).values)


class TestBuildChannelSets:
    def test_single_teacher_identity_policy_partitions(self):
        m = lmap([[0, 1], [2, 0]], 3)
        sets = build_channel_sets([m], FusionPolicy(np.array([0, 0, 0]), 1))
        assert not sets.overlap.any()
        assert sets.class_masks.sum() == 4  # every pixel in exactly one set

    def test_two_teacher_overlap_oracle(self):
        # teacher0 labels {p1, p2} as class 0; teacher1 labels {p2, p3} as 1
        t0 = lmap([[0, 0], [1, 1]], 2)
        t1 = lmap([[0, 1], [1, 0]], 2)
        sets = build_channel_sets([t0, t1], FusionPolicy(np.array([0, 1]), 2))
        a0 = {(0, 0), (0, 1)}
        a1 = {(0, 1), (1, 0)}
        got0 = set(zip(*np.nonzero(sets.class_masks[0])))
        got1 = set(zip(*np.nonzero(sets.class_masks[1])))
        assert got0 == a0 and got1 == a1
        assert set(zip(*np.nonzero(sets.overlap))) == a0 & a1

    def test_duplicate_teachers_never_overlap(self):
        rng = np.random.default_rng(9)
        m = LabelMap(rng.integers(0, 4, size=(5, 5)), 4)
        for seed in range(5):
            policy = FusionPolicy(rng.integers(0, 3, size=4), 3)
            sets = build_channel_sets([m, m, m], policy)
            assert not sets.overlap.any()

    def test_overlap_equals_pairwise_intersection_union(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            classes, teachers = 4, 3
            maps = [
                LabelMap(rng.integers(0, classes, size=(7, 7)), classes)
                for _ in range(teachers)
            ]
            policy = FusionPolicy(rng.integers(0, teachers, size=classes), teachers)
            sets = build_channel_sets(maps, policy)
            union = np.zeros((7, 7), dtype=bool)
            for c1 in range(classes):
                for c2 in range(c1 + 1, classes):
                    union |= sets.class_masks[c1] & sets.class_masks[c2]
            assert np.array_equal(sets.overlap, union)

    def test_rejects_policy_referencing_missing_teacher(self):
        m = lmap([[0, 1]], 2)
        with pytest.raises(ValueError):
            build_channel_sets([m], FusionPolicy(np.array([0, 1]), 2))

    @pytest.mark.parametrize("policy_teachers", [1, 2])
    def test_rejects_policy_built_for_a_smaller_ensemble(self, policy_teachers):
        # a member joined after selection: the old policy would never use it
        maps = [lmap([[0, 1]], 2)] * 3
        policy = FusionPolicy(np.zeros(2, dtype=np.int64), policy_teachers)
        with pytest.raises(ValueError, match=f"expects {policy_teachers} teachers, got 3"):
            build_channel_sets(maps, policy)


def window_count_oracle(mask, kappa, row, col):
    h, w = mask.shape
    half = kappa // 2
    total = 0
    for i in range(max(0, row - half), min(h, row + half + 1)):
        for j in range(max(0, col - half), min(w, col + half + 1)):
            total += bool(mask[i, j])
    return total


def window_counts(mask, kappa):
    """Every pixel's clipped kappa x kappa window count, as int64: each axis
    convolved in full with kappa ones, cut to the centred windows."""
    half = kappa // 2
    ones = np.ones(kappa, dtype=np.int64)
    counts = mask.astype(np.int64)
    for axis in (1, 0):
        full = np.apply_along_axis(np.convolve, axis, counts, ones)
        counts = np.take(full, np.arange(half, half + mask.shape[axis]), axis=axis)
    return counts


def resolve_oracle(masks, kappa):
    """Scalar resolution: at each pixel claimed twice or more, the claimant
    with the largest window count wins, ties to the smallest id."""
    classes, h, w = masks.shape
    out = np.full((h, w), UNLABELED_ID, dtype=np.uint16)
    for i in range(h):
        for j in range(w):
            claimants = [c for c in range(classes) if masks[c, i, j]]
            if len(claimants) >= 2:
                counts = [window_count_oracle(masks[c], kappa, i, j) for c in claimants]
                out[i, j] = claimants[counts.index(max(counts))]
    return out


def channel_fuse_oracle(masks, kappa):
    out = resolve_oracle(masks, kappa)
    claims = masks.sum(axis=0)
    for c in range(masks.shape[0]):
        out[masks[c] & (claims == 1)] = c
    return out


def masks_ensemble(masks):
    """Ensemble and policy whose channel sets are exactly ``masks``.

    Teacher c labels mask c as c and every other pixel (c + 1) % C, and the
    policy takes class c from teacher c.
    """
    masks = np.asarray(masks, dtype=bool)
    classes = masks.shape[0]
    maps = [
        LabelMap(np.where(masks[c], c, (c + 1) % classes), classes)
        for c in range(classes)
    ]
    return maps, FusionPolicy(np.arange(classes), classes)


def fuse_masks(masks, kappa):
    return channel_fuse(*masks_ensemble(masks), kappa)


class TestResolveConflicts:
    """The contested-pixel step of channel_fuse, on hand-made class masks."""

    def test_kappa_one_all_counts_tie(self):
        # both claiming classes see only the pixel itself -> smallest wins
        masks = [
            [[False]],
            [[True]],
            [[True]],
        ]
        res = fuse_masks(masks, 1)
        assert res.values[0, 0] == 1

    def test_window_count_example(self):
        # p=(1,1) claimed by classes 1 and 2; 3x3 window holds 5 pixels of
        # A_1 and 2 of A_2 -> class 1
        a0 = np.zeros((3, 3), dtype=bool)
        a1 = np.array(
            [[True, True, True], [True, True, False], [False, False, False]]
        )
        a2 = np.array(
            [[False, False, False], [False, True, False], [False, False, True]]
        )
        assert build_channel_sets(*masks_ensemble([a0, a1, a2])).overlap[1, 1]
        res = fuse_masks([a0, a1, a2], 3)
        assert res.values[1, 1] == 1

    def test_equal_window_counts_take_smallest_claiming(self):
        a0 = np.zeros((1, 3), dtype=bool)
        a1 = np.array([[True, True, False]])
        a2 = np.array([[False, True, True]])
        res = fuse_masks([a0, a1, a2], 3)
        assert res.values[0, 1] == 1

    def test_argmax_restricted_to_claiming_classes(self):
        # class 0 dominates the window but does not claim the pixel
        a0 = np.array([[True, False, True], [True, False, True], [True, False, True]])
        a1 = np.array([[False, True, False], [False, True, False], [False, False, False]])
        a2 = np.array([[False, False, False], [False, True, False], [False, True, False]])
        res = fuse_masks([a0, a1, a2], 3)
        assert res.values[1, 1] in (1, 2)

    def test_even_kappa_rejected(self):
        with pytest.raises(ValueError):
            fuse_masks([[[True]], [[True]]], 2)

    def test_non_overlap_pixels_come_back_unlabeled(self):
        # (0, 0) is contested; no channel claims (0, 1)
        a0 = np.array([[True, False]])
        a1 = np.array([[True, False]])
        res = fuse_masks([a0, a1], 1)
        assert res.values[0, 1] == UNLABELED_ID


class TestResolveOracle:
    """channel_fuse against the scalar window count."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 8),
        st.integers(1, 5),
        st.integers(2, 19),
        st.integers(1, 4),
        st.sampled_from(["one", "small", "whole"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grids_match_scalar_oracle(self, seed, h, extra, classes, teachers, size):
        rng = np.random.default_rng(seed)
        w = h + extra  # non-square
        # few labels per teacher, so channels overlap
        labels = rng.integers(0, classes, size=min(classes, 4))
        maps = [LabelMap(rng.choice(labels, size=(h, w)), classes) for _ in range(teachers)]
        policy = FusionPolicy(rng.integers(0, teachers, size=classes), teachers)
        # 3 and 5 clip the windows at every border; the last covers the grid
        kappa = {"one": 1, "small": int(rng.choice([3, 5])), "whole": 2 * w + 1}[size]
        sets = build_channel_sets(maps, policy)
        masks = sets.class_masks
        got = channel_fuse(maps, policy, kappa).values
        contested = np.where(sets.overlap, got, UNLABELED_ID)
        assert np.array_equal(contested, resolve_oracle(masks, kappa))
        assert np.array_equal(got, channel_fuse_oracle(masks, kappa))

    @pytest.mark.parametrize("kappa", [1, 3, 7, 31])
    def test_every_pixel_contested(self, kappa):
        rng = np.random.default_rng(kappa)
        classes, h, w = 6, 5, 9
        masks = rng.random((classes, h, w)) < 0.3
        for i in range(h):
            for j in range(w):
                masks[rng.choice(classes, size=2, replace=False), i, j] = True
        maps, policy = masks_ensemble(masks)
        assert build_channel_sets(maps, policy).overlap.all()
        got = channel_fuse(maps, policy, kappa).values
        assert np.array_equal(got, resolve_oracle(masks, kappa))
        assert (got != UNLABELED_ID).all()

    @pytest.mark.parametrize("kappa", [1, 5, 31])
    def test_no_pixel_contested(self, kappa):
        rng = np.random.default_rng(kappa)
        m = LabelMap(rng.integers(0, 5, size=(4, 7)), 5)
        policy = FusionPolicy(rng.integers(0, 3, size=5), 3)
        sets = build_channel_sets([m, m, m], policy)
        assert not sets.overlap.any()
        assert (resolve_oracle(sets.class_masks, kappa) == UNLABELED_ID).all()
        assert np.array_equal(channel_fuse([m, m, m], policy, kappa).values, m.values)

    @pytest.mark.parametrize(
        "side, kappa, missing",
        [(17, 15, 50), (17, 17, 50), (257, 255, 900), (257, 257, 900)],
    )
    def test_counts_past_the_small_integer_types(self, side, kappa, missing):
        # Class 1 claims every pixel and class 0 all but ``missing`` of them.
        # Near the centre class 1's count passes 255 at kappa 17 and 65,535
        # at 257 (15 and 255 stay below), class 0's does not, so a count
        # that wrapped in too small a type would hand those pixels to 0.
        rng = np.random.default_rng(side + kappa)
        masks = np.ones((2, side, side), dtype=bool)
        masks[0].reshape(-1)[rng.choice(side * side, size=missing, replace=False)] = False
        got = fuse_masks(masks, kappa).values
        counts = [window_counts(m, kappa) for m in masks]
        want = np.where(masks[0] & (counts[0] >= counts[1]), 0, 1)
        assert np.array_equal(got, want)
        assert (want == 1).sum() > missing  # some contested pixels go to class 1

    def test_memory_stays_below_one_byte_per_class_pixel(self):
        """A 19-class 256 x 512 fusion holds the C x H x W class masks plus
        less than one byte per class-pixel: one summed-area table and
        arrays over the contested pixels, never a second stack."""
        import tracemalloc

        rng = np.random.default_rng(0)
        classes, h, w = 19, 256, 512

        def blocks(values, side):
            return np.kron(values, np.ones((side, side), dtype=values.dtype))

        gt = blocks(rng.integers(0, classes, size=(h // 32, w // 32)), 32)
        maps = []
        for _ in range(4):
            wrong = blocks(rng.random((h // 16, w // 16)) < 0.2, 16)
            noise = blocks(rng.integers(0, classes, size=(h // 16, w // 16)), 16)
            maps.append(LabelMap(np.where(wrong, noise, gt), classes))
        policy = FusionPolicy(rng.integers(0, 4, size=classes), 4)
        sets = build_channel_sets(maps, policy)
        assert 0.05 < sets.overlap.mean() < 0.2  # contested share as in real ensembles
        del sets
        tracemalloc.start()
        try:
            channel_fuse(maps, policy, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * classes * h * w


class TestChannelFuse:
    def test_single_teacher_identity_recombination(self):
        rng = np.random.default_rng(2)
        m = LabelMap(rng.integers(0, 4, size=(6, 6)), 4)
        for kappa in (1, 3, 13):
            fused = channel_fuse([m], FusionPolicy(np.zeros(4, dtype=int), 1), kappa)
            assert np.array_equal(fused.values, m.values)
            assert not fused.unlabeled_mask().any()

    def test_three_cases_by_hand(self):
        # A_0 = {p1, p2}, A_1 = {p2, p3}; overlap {p2} resolves to 0 at
        # kappa=1 (tie -> min); p4 is claimed by nobody.
        t0 = lmap([[0, 0], [1, 1]], 2)
        t1 = lmap([[0, 1], [1, 0]], 2)
        fused = channel_fuse([t0, t1], FusionPolicy(np.array([0, 1]), 2), 1)
        assert fused.values[0, 0] == 0  # p1: only A_0
        assert fused.values[0, 1] == 0  # p2: overlap, tie -> 0
        assert fused.values[1, 0] == 1  # p3: only A_1
        assert fused.values[1, 1] == UNLABELED_ID  # p4: no claim

    def test_outside_overlap_channels_equal_selected_teacher(self):
        rng = np.random.default_rng(33)
        classes, teachers = 5, 3
        maps = [
            LabelMap(rng.integers(0, classes, size=(10, 10)), classes)
            for _ in range(teachers)
        ]
        policy = FusionPolicy(rng.integers(0, teachers, size=classes), teachers)
        sets = build_channel_sets(maps, policy)
        fused = channel_fuse(maps, policy, 3)
        outside = ~sets.overlap
        for c in range(classes):
            selected = maps[policy.teacher_for(c)].values == c
            assert np.array_equal(
                (fused.values == c) & outside, selected & outside
            )

    def test_zero_overlap_per_class_iou_equals_selected_teacher(self):
        # identical teachers -> channels partition the image for any policy
        rng = np.random.default_rng(4)
        classes, teachers = 4, 3
        m = LabelMap(rng.integers(0, classes, size=(8, 8)), classes)
        gt = LabelMap(rng.integers(0, classes, size=(8, 8)), classes)
        maps = [m] * teachers
        policy = FusionPolicy(rng.integers(0, teachers, size=classes), teachers)
        fused = channel_fuse(maps, policy, 13)
        fused_iou = dataset_iou([fused], [gt]).per_class
        for c in range(classes):
            teacher_iou = dataset_iou([maps[policy.teacher_for(c)]], [gt]).per_class
            if np.isnan(fused_iou[c]):
                assert np.isnan(teacher_iou[c])
            else:
                assert fused_iou[c] == teacher_iou[c]

    def test_kappa_default_is_13(self):
        import inspect

        sig = inspect.signature(channel_fuse)
        assert sig.parameters["kappa"].default == 13


def test_one_window_kernel():
    # Window counts have one implementation, box sums by doubling, taken
    # only for the contested pixels; numpy's cumsum is a scalar loop.
    assert [o for o in owners({"cumsum"}) if o[0] == "fusion"] == []
    assert set(owners({"_box_sums"})) == {("fusion", "_contested_winners")}
