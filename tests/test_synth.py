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
    _feature_blocks,
    _scene,
    _voronoi_cells,
    benchmark_images,
    corrupt_teacher,
    gen_ground_truth,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from segfuse.unify import unify
from segfuse.util import RowBlock

from helpers import corrupt_teacher_whole, softmax, voronoi_cells_tiled


def voronoi_reference(height, width, num_sites, rng):
    """The broadcast formula: one sites x H x W distance array, then argmin."""
    flat = rng.choice(height * width, size=num_sites, replace=False)
    sy = flat // width
    sx = flat % width
    yy, xx = np.indices((height, width))
    d2 = (yy[None] - sy[:, None, None]) ** 2 + (xx[None] - sx[:, None, None]) ** 2
    return d2.argmin(axis=0)


class FixedSites:
    """An rng whose ``choice`` gives the flat pixel indices ``flat``: the
    sites ``_voronoi_cells`` and ``voronoi_reference`` draw."""

    def __init__(self, flat):
        self.flat = np.array(flat)

    def choice(self, n, size, replace):
        return self.flat[:size]


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of ``fn(*args)``, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("side", [9, 129])
    def test_distances_one_past_their_type(self, side):
        # Corner to corner is 128 or 32,768, one more than an int8 or an
        # int16 holds, so the distances take the next type: the far corner
        # is nearer to the site at (0, 1) than to the one at (0, 0).
        got = _voronoi_cells(side, side, 2, FixedSites([0, 1]))
        assert got[-1, -1] == 1
        np.testing.assert_array_equal(got, voronoi_reference(side, side, 2, FixedSites([0, 1])))

    @pytest.mark.parametrize("sites, dtype", [(1, np.uint8), (256, np.uint8),
                                              (257, np.uint16), (65537, np.uint32)])
    def test_ids_come_in_the_narrowest_type(self, sites, dtype):
        assert _voronoi_cells(256, 512, sites, np.random.default_rng(0)).dtype == dtype

    def test_tiles_hold_small_distances(self):
        # 128 sites at 64 x 128, nearly all near every 32 x 32 tile: one
        # tile's int64 distances alone would be about 1 MB.
        peaks = [traced_peak(_voronoi_cells, 64, 128, 128, np.random.default_rng(seed))
                 for seed in range(3)]
        assert max(peaks) < 0.5e6

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


# Grids of at least 3 of corrupt_teacher's row blocks (65,536 pixels
# each), with a blob scale that puts its blob tables in 1, 3 or 6 cuts.
# 300 classes, in 3 blocks of 65,065 pixels: an odd count, so a block ends
# halfway through a 64-bit draw of bounded integers; one row per block; and
# one odd row per block with tables cut into odd counts (3,449 x 19).
CORRUPT_CASES = [((150, 1001, 300), 0), ((150, 1001, 300), 16), ((50, 40000, 3), 0),
                 ((50, 40000, 3), 16), ((7, 40001, 19), 0), ((7, 40001, 19), 4)]


class TestCorruptTeacherBlocks:
    """``corrupt_teacher`` goes one row block at a time, and gives the labels
    of the whole-array draws it replaced."""

    @pytest.mark.parametrize("shape, blob_scale", CORRUPT_CASES, ids=str)
    def test_is_the_whole_array_draw(self, shape, blob_scale):
        h, w, c = shape
        assert len(RowBlock(8 * w).cuts(h)) >= 3
        for seed in range(3):
            rng = np.random.default_rng(seed)
            gt = LabelMap(rng.integers(0, c, size=(h, w)), c)
            rates = rng.uniform(0.0, 1.0, size=c)
            got = corrupt_teacher(gt, rates, seed, blob_scale).values
            want = corrupt_teacher_whole(gt, rates, seed, blob_scale).values
            assert same_bits(got, want)
            assert (got != gt.values).any()

    @pytest.mark.parametrize("blob_scale", [0, 4])
    def test_peak_per_pixel_does_not_grow_with_height(self, blob_scale):
        # The whole-array draws peaked at 33 (i.i.d.) and 41.5 (blobs)
        # bytes a pixel, at any height.
        def per_pixel(height, width=1024):
            gt = LabelMap(np.random.default_rng(0).integers(0, 19, size=(height, width)), 19)
            rates = np.full(19, 0.2)
            return traced_peak(corrupt_teacher, gt, rates, 1, blob_scale) / (height * width)

        large = per_pixel(512)
        assert large <= per_pixel(128)
        assert large < 16

    def test_scene_peak_per_pixel_does_not_grow_with_height(self):
        def per_pixel(height, width=1024):
            return traced_peak(_scene, height, width, 19, 8, 0) / (height * width)

        large = per_pixel(512)
        assert large <= per_pixel(128)
        assert large < 16


# 1 x 1 x 2; a height that is not a multiple of the block rows (51 at
# width 256 and 5 classes); and a row wider than a block, one row a block.
BLOCK_SHAPES = [(1, 1, 2), (130, 256, 5), (3, 40000, 2)]


def random_labels(h, w, c, seed=0) -> LabelMap:
    return LabelMap(np.random.default_rng(seed).integers(0, c, size=(h, w)), c)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def whole_features(labels: np.ndarray, classes: int, rng) -> np.ndarray:
    """The features of the class ids ``labels`` as one whole draw: noise
    times 0.5 plus 0.0, then 2.0 added at each pixel's class."""
    feats = rng.standard_normal((*labels.shape, classes)) * 0.5 + 0.0
    feats.reshape(-1)[np.arange(0, labels.size * classes, classes) + labels.reshape(-1)] += 2.0
    return feats


class TestFeatureBlocks:
    """The feature kernel draws what one whole draw gave, block by block."""

    @pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
    def test_blocks_are_one_whole_draw(self, shape):
        labels = random_labels(*shape)
        want = whole_features(labels.values, shape[2], np.random.default_rng(4))
        blocks = [blk.copy() for blk in _feature_blocks(labels, np.random.default_rng(4))]
        assert len(blocks) == {(1, 1, 2): 1, (130, 256, 5): 3, (3, 40000, 2): 3}[shape]
        assert same_bits(np.concatenate(blocks), want)

    def test_gen_ground_truth_features_are_one_whole_draw(self):
        # the draws gen_ground_truth makes before the features, replayed
        h, w, c, scale, seed = 130, 256, 5, 8, 3
        gt, fm = gen_ground_truth(h, w, c, region_scale=scale, seed=seed)
        rng = np.random.default_rng(seed)
        sites = round(h * w / scale**2)
        _voronoi_cells(h, w, sites, rng)
        rng.integers(0, c, size=sites - c)
        assert same_bits(fm.values, whole_features(gt.values, c, rng))


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

    @pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
    def test_blocks_are_one_full_map(self, shape):
        labels = random_labels(*shape, seed=1)
        c = shape[2]
        for temp in (0.1, 2.0):
            p_top = 1.0 / (1.0 + (c - 1) * np.exp(-1.0 / temp))
            want = np.full(shape, (1.0 - p_top) / (c - 1))
            np.put_along_axis(want, labels.values[:, :, None], p_top, axis=2)
            assert same_bits(soften(labels, temp).values, want)

    @pytest.mark.parametrize("temp", [1e16, 1e300, float("inf")])
    def test_rejects_temperature_that_ties_every_class(self, temp):
        with pytest.raises(ValueError, match="too high"):
            soften(self.gt, temp)


class TestUnderperformerMaps:
    CONFIG = BenchmarkConfig(height=24, width=24, classes=5, num_teachers=2, images=2)

    def test_confidently_wrong(self):
        bench = make_benchmark(self.CONFIG, seed=2)
        for gt, labels in zip(bench.gts, make_underperformer_maps(bench.gts, seed=1)):
            acc = (labels.values == gt.values).mean()
            assert acc < 0.55  # ~40% of pixels survive at its error rate
            pm = soften(labels, UNDERPERFORMER_TEMPERATURE)
            assert pm.values.max(axis=2).min() > 0.99  # misleading certainty
            np.testing.assert_array_equal(unify(pm).values, labels.values)

    def test_deterministic(self):
        bench = make_benchmark(self.CONFIG, seed=2)
        a = make_underperformer_maps(bench.gts, seed=9)
        b = make_underperformer_maps(bench.gts, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)
        c = make_underperformer_maps(bench.gts, seed=10)
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

    def test_is_the_per_image_generator_collected(self):
        cfg = BenchmarkConfig(height=16, width=20, classes=4, num_teachers=3, images=3)
        bench = make_benchmark(cfg, seed=5)
        rates, temps, images = benchmark_images(cfg, seed=5)
        images = list(images)
        assert len(images) == cfg.images
        for i, (gt, features, teachers) in enumerate(images):
            assert np.array_equal(gt.values, bench.gts[i].values)
            # each block is copied before the next is drawn into its buffer
            drawn = np.concatenate([blk.copy() for blk in features])
            assert drawn.tobytes() == bench.feats[i].values.tobytes()
            assert len(teachers) == cfg.num_teachers
            for t, labels in enumerate(teachers):
                assert np.array_equal(labels.values, bench.teacher_labels[t][i].values)
        assert np.array_equal(rates, bench.error_rates)
        assert np.array_equal(temps, bench.temperatures)

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
        bad = make_underperformer_maps(bench.gts, seed=3)
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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: gen_ground_truth(4, 4, 1), "need at least 2 classes", id="one-class"),
    pytest.param(lambda: gen_ground_truth(4, 4, 2, region_scale=0),
                 "region_scale must be >= 1", id="region-scale"),
    pytest.param(lambda: corrupt_teacher(LabelMap(np.array([[0, UNLABELED_ID]]), 2), [0.1, 0.1], 0),
                 "ground truth may not contain unlabeled pixels", id="unlabeled-gt"),
    pytest.param(lambda: BenchmarkConfig(images=1),
                 "benchmark needs >= 2 images (protocol split)", id="one-image"),
    pytest.param(lambda: BenchmarkConfig(num_teachers=0),
                 "benchmark needs >= 1 teacher", id="no-teacher"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
