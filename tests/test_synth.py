import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.core import UNLABELED_ID, LabelMap
from segfuse.metrics import dataset_iou
from segfuse.synth import (
    UNDERPERFORMER_TEMPERATURE,
    BenchmarkConfig,
    _voronoi_cells,
    corrupt_teacher,
    gen_ground_truth,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from segfuse.unify import unify

from helpers import softmax, voronoi_cells_tiled


def voronoi_reference(height, width, num_sites, rng):
    """The broadcast formula: one sites x H x W distance array, then argmin."""
    flat = rng.choice(height * width, size=num_sites, replace=False)
    sy = flat // width
    sx = flat % width
    yy, xx = np.indices((height, width))
    d2 = (yy[None] - sy[:, None, None]) ** 2 + (xx[None] - sx[:, None, None]) ** 2
    return d2.argmin(axis=0)


class TestVoronoiCells:
    @given(st.integers(0, 2**32), st.integers(1, 90), st.integers(1, 90),
           st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcast_formula(self, seed, height, width, sites):
        # Integer distances tie often, so this also checks ties go to the lowest site.
        sites = min(sites, height * width)
        got = _voronoi_cells(height, width, sites, np.random.default_rng(seed))
        want = voronoi_reference(height, width, sites, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    @given(st.integers(0, 2**32), st.integers(1, 160), st.integers(1, 160),
           st.one_of(st.just(1), st.just(-1), st.integers(1, 1600)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_tiled_oracle(self, seed, height, width, sites):
        # -1 puts a site on every pixel; sizes up to 160 are rarely a whole
        # number of 16- or 32-pixel tiles.
        sites = height * width if sites == -1 else min(sites, height * width)
        got = _voronoi_cells(height, width, sites, np.random.default_rng(seed))
        want = voronoi_cells_tiled(height, width, sites, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("height, width, scale", [(64, 64, 4), (64, 64, 8), (97, 130, 4),
                                                       (256, 512, 16), (256, 512, 32)])
    def test_matches_the_tiled_oracle_at_the_benchmark_scales(self, height, width, scale):
        sites = round(height * width / scale**2)
        for seed in range(3):
            got = _voronoi_cells(height, width, sites, np.random.default_rng(seed))
            want = voronoi_cells_tiled(height, width, sites, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    def test_sparse_sites_on_a_wide_grid(self):
        # Tiles far from every site must still reach the nearest one.
        for seed in range(5):
            got = _voronoi_cells(40, 300, 2, np.random.default_rng(seed))
            want = voronoi_reference(40, 300, 2, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    def test_peak_memory_per_pixel_does_not_grow_with_height(self):
        # One site per 16 pixels, as at blob_scale=4.  The broadcast formula
        # peaks at 8 bytes per site per pixel, so its per-pixel peak grows
        # in proportion to H; tile by tile it must not grow at all.
        def peak_per_pixel(height, width=256):
            tracemalloc.start()
            try:
                sites = height * width // 16
                _voronoi_cells(height, width, sites, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1] / (height * width)
            finally:
                tracemalloc.stop()

        assert peak_per_pixel(512) <= peak_per_pixel(64)


class TestGenGroundTruth:
    def test_deterministic_given_seed(self):
        a_gt, a_f = gen_ground_truth(16, 16, 4, seed=5)
        b_gt, b_f = gen_ground_truth(16, 16, 4, seed=5)
        np.testing.assert_array_equal(a_gt.values, b_gt.values)
        np.testing.assert_array_equal(a_f.values, b_f.values)

    def test_distinct_seeds_differ(self):
        a_gt, _ = gen_ground_truth(16, 16, 4, seed=5)
        b_gt, _ = gen_ground_truth(16, 16, 4, seed=6)
        assert not np.array_equal(a_gt.values, b_gt.values)

    def test_every_class_present_even_tiny(self):
        gt, _ = gen_ground_truth(4, 4, 2, seed=0)
        assert set(np.unique(gt.values)) == {0, 1}
        for seed in range(10):
            gt, _ = gen_ground_truth(8, 8, 5, seed=seed)
            assert set(np.unique(gt.values)) == set(range(5))

    def test_rejects_more_classes_than_pixels(self):
        with pytest.raises(ValueError):
            gen_ground_truth(2, 2, 5, seed=0)

    def test_rejects_a_class_count_past_16_bits_before_allocating(self):
        # 65,536 classes fit on 256 x 256 pixels, but their one-hot feature
        # means alone would be a 32 GiB float64 array
        with pytest.raises(ValueError,
                           match="^class count must fit 16-bit storage, got 65536$"):
            gen_ground_truth(256, 256, UNLABELED_ID + 1, seed=0)

    def test_nearest_mean_classifier_separates_features(self):
        gt, feats = gen_ground_truth(32, 32, 6, seed=3)
        means = np.zeros((6, 6))
        means[np.arange(6), np.arange(6)] = 2.0
        d = ((feats.values[:, :, None, :] - means[None, None]) ** 2).sum(-1)
        pred = d.argmin(-1)
        assert (pred == gt.values).mean() >= 0.9

    def test_blob_structure_has_spatial_coherence(self):
        # neighbouring pixels agree far more often than chance
        gt, _ = gen_ground_truth(32, 32, 4, region_scale=8, seed=1)
        same = (gt.values[:, 1:] == gt.values[:, :-1]).mean()
        assert same > 0.8


class TestCorruptTeacher:
    def setup_method(self):
        self.gt, _ = gen_ground_truth(24, 24, 5, seed=8)

    def test_zero_error_recovers_gt(self):
        labels = corrupt_teacher(self.gt, [0.0] * 5, seed=3)
        assert np.array_equal(labels.values, self.gt.values)
        assert labels.num_classes == 5

    def test_full_error_gives_zero_iou(self):
        labels = corrupt_teacher(self.gt, [1.0, 0.0, 0.0, 0.0, 0.0], seed=4)
        report = dataset_iou([labels], [self.gt])
        assert report.per_class[0] == 0.0

    def test_iou_decreases_with_error_rate(self):
        # Monte Carlo over seeds: expected IoU strictly decreasing
        rates = [0.1, 0.3, 0.5]
        means = []
        for rate in rates:
            vals = []
            for seed in range(20):
                labels = corrupt_teacher(self.gt, [rate] * 5, seed=seed)
                vals.append(dataset_iou([labels], [self.gt]).miou)
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]

    def test_blob_noise_marginal_rate_matches(self):
        flips = []
        for seed in range(30):
            labels = corrupt_teacher(self.gt, [0.4] * 5, seed=seed, blob_scale=4)
            flips.append((labels.values != self.gt.values).mean())
        assert abs(np.mean(flips) - 0.4) < 0.05

    def test_blob_noise_is_spatially_clustered(self):
        iid = corrupt_teacher(self.gt, [0.4] * 5, seed=1, blob_scale=0)
        blob = corrupt_teacher(self.gt, [0.4] * 5, seed=1, blob_scale=6)

        def boundary_rate(labels):
            err = labels.values != self.gt.values
            neigh_same = err[:, 1:] == err[:, :-1]
            return neigh_same.mean()

        assert boundary_rate(blob) > boundary_rate(iid)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            corrupt_teacher(self.gt, [1.5] * 5, seed=0)
        with pytest.raises(ValueError):
            corrupt_teacher(self.gt, [0.1] * 3, seed=0)


class TestSoften:
    def setup_method(self):
        self.gt, _ = gen_ground_truth(24, 24, 5, seed=8)

    def test_temperature_never_changes_labels(self):
        for seed in range(5):
            labels = corrupt_teacher(self.gt, [0.3] * 5, seed=seed)
            for temp in (0.1, 1.0, 10.0, 1e15):  # 1e15: the highest that works
                assert np.array_equal(unify(soften(labels, temp)).values, labels.values)

    def test_low_temperature_is_confident(self):
        sharp = soften(self.gt, 0.1)
        soft = soften(self.gt, 10.0)
        assert sharp.values.max(axis=2).min() > 0.99
        assert soft.values.max(axis=2).max() < 0.5

    def test_is_the_softmax_of_scaled_one_hot_logits(self):
        labels = corrupt_teacher(self.gt, [0.3] * 5, seed=0)
        for temp in (0.1, 0.5, 1.0, 2.0):
            want = softmax(np.eye(5)[labels.values.astype(np.intp)] / temp)
            np.testing.assert_allclose(soften(labels, temp).values, want, rtol=1e-12)

    def test_rejects_a_non_positive_temperature(self):
        with pytest.raises(ValueError, match="must be > 0"):
            soften(self.gt, 0.0)

    def test_rejects_unlabeled_pixels(self):
        values = self.gt.values.copy()
        values[0, 0] = UNLABELED_ID
        with pytest.raises(ValueError, match="unlabeled"):
            soften(LabelMap(values, 5), 1.0)

    @pytest.mark.parametrize("temp", [1e16, 1e300, float("inf")])
    def test_rejects_temperature_that_ties_every_class(self, temp):
        with pytest.raises(ValueError, match="too high"):
            soften(self.gt, temp)


class TestUnderperformerMaps:
    CONFIG = BenchmarkConfig(height=24, width=24, classes=5, num_teachers=2, images=2)

    def test_confidently_wrong(self):
        bench = make_benchmark(self.CONFIG, seed=2)
        for gt, labels in zip(bench.gts, make_underperformer_maps(bench, seed=1)):
            acc = (labels.values == gt.values).mean()
            assert acc < 0.55  # ~40% of pixels survive at its error rate
            pm = soften(labels, UNDERPERFORMER_TEMPERATURE)
            assert pm.values.max(axis=2).min() > 0.99  # misleading certainty
            np.testing.assert_array_equal(unify(pm).values, labels.values)

    def test_deterministic(self):
        bench = make_benchmark(self.CONFIG, seed=2)
        a = make_underperformer_maps(bench, seed=9)
        b = make_underperformer_maps(bench, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)
        c = make_underperformer_maps(bench, seed=10)
        assert (a[0].values != c[0].values).any()


class TestBenchmark:
    def test_shapes_and_determinism(self):
        cfg = BenchmarkConfig(height=16, width=16, classes=4, num_teachers=3, images=3)
        a = make_benchmark(cfg, seed=0)
        b = make_benchmark(cfg, seed=0)
        assert len(a.gts) == 3 and len(a.teacher_labels) == 3
        assert len(a.teacher_labels[0]) == 3
        np.testing.assert_array_equal(a.gts[0].values, b.gts[0].values)
        np.testing.assert_array_equal(
            a.teacher_labels[2][1].values, b.teacher_labels[2][1].values
        )

    def test_teachers_have_distinct_certainty_scales(self):
        cfg = BenchmarkConfig(height=16, width=16, classes=4, num_teachers=4, images=2)
        bench = make_benchmark(cfg, seed=1)
        peaks = [soften(maps[0], temp).values.max(axis=2).mean()
                 for maps, temp in zip(bench.teacher_labels, bench.temperatures)]
        assert max(peaks) - min(peaks) > 0.3

    def test_good_teachers_land_in_target_iou_band(self):
        cfg = BenchmarkConfig()
        bench = make_benchmark(cfg, seed=0)
        for maps in bench.teacher_labels:
            miou = dataset_iou(maps, bench.gts).miou
            assert 0.5 < miou < 0.95

    def test_underperformer_maps_align_with_images(self):
        cfg = BenchmarkConfig(height=16, width=16, classes=4, num_teachers=2, images=3)
        bench = make_benchmark(cfg, seed=3)
        bad = make_underperformer_maps(bench, seed=3)
        assert len(bad) == 3
        assert all(isinstance(m, LabelMap) for m in bad)
        assert (bad[0].values.shape, bad[0].num_classes) == ((16, 16), 4)

    def test_memory_per_added_teacher_pixel(self):
        # A teacher is kept as its labels, not as an H x W x C float map,
        # so more teachers cost about 2 bytes per pixel each.
        def peak(teachers):
            config = BenchmarkConfig(height=64, width=128, classes=19,
                                     num_teachers=teachers, images=2)
            tracemalloc.start()
            try:
                make_benchmark(config, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        teacher_pixels = (8 - 1) * 2 * 64 * 128
        assert (peak(8) - peak(1)) / teacher_pixels < 8
