import math
import tracemalloc

import numpy as np
import pytest

from segfuse.core import UNLABELED_ID, LabelMap, ProbMap
from segfuse.distill import (
    FeatureMap,
    ToyStudent,
    TrainConfig,
    average_fuse,
    ce_loss_and_grads,
    _ce_means,
    certainty_selection_protocol,
    kl_loss_and_grads,
    student_forward,
    train_student,
)
from segfuse.synth import corrupt_teacher, gen_ground_truth
from segfuse.unify import unify
from segfuse.util import softmax, softmax_inplace


def prob(rows):
    return ProbMap(np.array(rows, dtype=np.float64))


class TestAverageFuse:
    def test_identical_teachers_idempotent(self):
        pm = prob([[[0.3, 0.7]]])
        fused = average_fuse([pm, pm, pm])
        np.testing.assert_allclose(fused.values, pm.values)

    def test_two_opposed_teachers(self):
        fused = average_fuse([prob([[[1.0, 0.0]]]), prob([[[0.0, 1.0]]])])
        np.testing.assert_allclose(fused.values[0, 0], [0.5, 0.5])

    def test_confident_minority_flips_average_but_not_vote(self):
        # Three moderate-certainty teachers agree on class 2; one
        # overconfident teacher asserts class 0.  Averaging follows the
        # loud minority while majority voting on unified outputs does not.
        from segfuse.fusion import pixel_fuse

        moderate = prob([[[0.30, 0.30, 0.40]]])
        confident = prob([[[0.99, 0.005, 0.005]]])
        teachers = [moderate, moderate, moderate, confident]
        averaged = average_fuse(teachers)
        assert int(np.argmax(averaged.values[0, 0])) == 0
        voted = pixel_fuse([unify(t) for t in teachers])
        assert voted.values[0, 0] == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_fuse([])


def certain_model(classes, winner, dims=2):
    """Student that puts all but ~e^-100 of its mass on ``winner`` everywhere."""
    bias = np.full(classes, -50.0)
    bias[winner] = 50.0
    return ToyStudent(np.zeros((classes, dims)), bias)


def zero_feats(h, w, dims=2):
    return FeatureMap(np.zeros((h, w, dims)))


class TestLossKL:
    def test_perfect_one_hot_student_is_zero(self):
        target = prob([[[0.0, 1.0]]])
        loss = kl_loss_and_grads(certain_model(2, 1), zero_feats(1, 1), target)[0]
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_pair_is_log3_per_pixel(self):
        target = prob([[[1 / 3] * 3] * 4])
        model = ToyStudent(np.zeros((3, 2)), np.zeros(3))
        loss = kl_loss_and_grads(model, zero_feats(1, 4), target)[0]
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        raw_t = rng.random((3, 4, 5))
        target = ProbMap(raw_t / raw_t.sum(2, keepdims=True))
        feats = FeatureMap(rng.normal(size=(3, 4, 2)))
        model = ToyStudent(rng.normal(size=(5, 2)), rng.normal(size=5))
        expected = 0.0
        for i in range(3):
            for j in range(4):
                logits = [
                    sum(model.weights[c, k] * feats.values[i, j, k] for k in range(2))
                    + model.bias[c]
                    for c in range(5)
                ]
                norm = sum(math.exp(z) for z in logits)
                for c in range(5):
                    expected -= target.values[i, j, c] * math.log(math.exp(logits[c]) / norm)
        loss = kl_loss_and_grads(model, feats, target)[0]
        assert loss == pytest.approx(expected / 12, rel=1e-9)

    def test_self_loss_is_summed_entropy(self):
        rng = np.random.default_rng(3)
        feats = FeatureMap(rng.normal(size=(4, 4, 2)))
        model = ToyStudent(rng.normal(size=(3, 2)), rng.normal(size=3))
        pm = student_forward(model, feats)
        entropy = -(pm.values * np.log(pm.values)).sum()
        loss = kl_loss_and_grads(model, feats, pm)[0]
        assert 16 * loss == pytest.approx(float(entropy), rel=1e-12)


class TestLossCE:
    def test_correct_certain_student_is_zero(self):
        fused = LabelMap(np.array([[1]]), 2)
        loss = ce_loss_and_grads(certain_model(2, 1), zero_feats(1, 1), fused)[0]
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_student_pays_log3(self):
        fused = LabelMap(np.array([[0, 2]]), 3)
        model = ToyStudent(np.zeros((3, 2)), np.zeros(3))
        loss = ce_loss_and_grads(model, zero_feats(1, 2), fused)[0]
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_all_unlabeled_raises(self):
        fused = LabelMap(np.full((2, 2), UNLABELED_ID), 3)
        model = ToyStudent(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="unlabeled"):
            ce_loss_and_grads(model, zero_feats(2, 2), fused)


class TestStudentForward:
    def test_zero_parameters_give_uniform(self):
        model = ToyStudent(np.zeros((4, 3)), np.zeros(4))
        feats = FeatureMap(np.random.default_rng(0).normal(size=(2, 2, 3)))
        out = student_forward(model, feats)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-12)

    def test_dominant_class_weights(self):
        w = np.zeros((3, 2))
        b = np.array([50.0, 0.0, 0.0])
        model = ToyStudent(w, b)
        feats = FeatureMap(np.random.default_rng(1).normal(size=(3, 3, 2)))
        out = unify(student_forward(model, feats))
        assert (out.values == 0).all()

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        model = ToyStudent(rng.normal(size=(4, 3)), rng.normal(size=4))
        feats = FeatureMap(rng.normal(size=(3, 2, 3)))
        out = student_forward(model, feats)
        for i in range(3):
            for j in range(2):
                logits = model.weights @ feats.values[i, j] + model.bias
                e = np.exp(logits - logits.max())
                np.testing.assert_allclose(
                    out.values[i, j], e / e.sum(), rtol=1e-6, atol=1e-9
                )

    def test_rejects_dim_mismatch(self):
        model = ToyStudent(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            student_forward(model, FeatureMap(np.zeros((2, 2, 5))))


def finite_difference(f, model, coord, step=1e-4):
    w, b = model.weights.copy(), model.bias.copy()
    kind, idx = coord
    def at(delta):
        if kind == "w":
            w2 = w.copy()
            w2[idx] += delta
            return f(ToyStudent(w2, b))
        b2 = b.copy()
        b2[idx] += delta
        return f(ToyStudent(w, b2))
    return (at(step) - at(-step)) / (2 * step)


def random_coords(rng, classes, dims, n):
    coords = []
    for _ in range(n):
        if rng.random() < 0.7:
            coords.append(("w", (int(rng.integers(classes)), int(rng.integers(dims)))))
        else:
            coords.append(("b", int(rng.integers(classes))))
    return coords


class TestGradients:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.feats = FeatureMap(rng.normal(size=(6, 5, 4)))
        labels = rng.integers(0, 3, size=(6, 5))
        labels[0, 0] = UNLABELED_ID
        self.labels = LabelMap(labels, 3)
        raw = rng.random((6, 5, 3)) + 0.1
        self.target = ProbMap(raw / raw.sum(2, keepdims=True))
        self.model = ToyStudent(rng.normal(scale=0.5, size=(3, 4)), rng.normal(size=3))
        self.rng = rng

    def test_ce_gradients_match_finite_differences(self):
        loss, gw, gb = ce_loss_and_grads(self.model, self.feats, self.labels)
        f = lambda m: ce_loss_and_grads(m, self.feats, self.labels)[0]
        for coord in random_coords(self.rng, 3, 4, 5):
            fd = finite_difference(f, self.model, coord)
            analytic = gw[coord[1]] if coord[0] == "w" else gb[coord[1]]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
            assert rel < 1e-4

    def test_kl_gradients_match_finite_differences(self):
        loss, gw, gb = kl_loss_and_grads(self.model, self.feats, self.target)
        f = lambda m: kl_loss_and_grads(m, self.feats, self.target)[0]
        for coord in random_coords(self.rng, 3, 4, 5):
            fd = finite_difference(f, self.model, coord)
            analytic = gw[coord[1]] if coord[0] == "w" else gb[coord[1]]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
            assert rel < 1e-4

    def test_unlabeled_pixels_do_not_touch_gradients(self):
        # flipping the feature vector under an unlabeled pixel changes nothing
        loss0, gw0, gb0 = ce_loss_and_grads(self.model, self.feats, self.labels)
        changed = self.feats.values.copy()
        changed[0, 0] = 99.0
        loss1, gw1, gb1 = ce_loss_and_grads(self.model, FeatureMap(changed), self.labels)
        assert loss0 == loss1
        np.testing.assert_array_equal(gw0, gw1)
        np.testing.assert_array_equal(gb0, gb1)

    def test_single_small_step_decreases_ce_loss(self):
        loss, gw, gb = ce_loss_and_grads(self.model, self.feats, self.labels)
        eta = 1e-3
        stepped = ToyStudent(self.model.weights - eta * gw, self.model.bias - eta * gb)
        assert ce_loss_and_grads(stepped, self.feats, self.labels)[0] < loss


def reference_softmax(z, axis):
    e = np.exp(z - z.max(axis, keepdims=True))
    return e / e.sum(axis, keepdims=True)


def reference_ce_means(weights, bias, x, y):
    n = y.shape[0]
    probs = reference_softmax(x @ weights.T + bias, 1)
    picked = probs[np.arange(n), y]
    loss = float(-np.log(np.maximum(picked, 1e-12)).sum())
    g = probs
    g[np.arange(n), y] -= 1.0
    return loss / n, (g.T @ x) / n, g.sum(axis=0) / n


def tied_logits(rng, shape, scale):
    """Logits of magnitude ~scale whose rows often tie for the maximum."""
    z = np.round(rng.normal(scale=3.0, size=shape)) * scale
    z[..., 1] = z[..., 0]
    return z


class TestSoftmaxKernel:
    """The in-place, slice-wise max kernel is bit-identical to the formula."""

    @pytest.mark.parametrize("shape, axis", [
        ((4099, 8), 1), ((4099, 19), 1), ((37, 29, 8), 2), ((11, 13, 19), 2),
    ])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_matches_reference_formula(self, shape, axis, scale):
        rng = np.random.default_rng(shape[-1])
        for z in (rng.normal(scale=scale, size=shape), tied_logits(rng, shape, scale)):
            kept = z.copy()
            assert np.array_equal(softmax(z, axis), reference_softmax(z, axis))
            assert np.array_equal(z, kept)
            assert softmax_inplace(z, axis) is z
            assert np.array_equal(z, reference_softmax(kept, axis))

    @pytest.mark.parametrize("classes", [8, 19])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_ce_means_match_reference_expression(self, classes, scale):
        rng = np.random.default_rng(classes)
        x = rng.normal(size=(4099, 5))
        y = rng.integers(0, classes, size=4099).astype(np.intp)
        weights = rng.normal(scale=scale / 10, size=(classes, 5))
        weights[1] = weights[0]
        bias = np.round(rng.normal(size=classes)) * scale
        bias[1] = bias[0]
        got, want = _ce_means(weights, bias, x, y), reference_ce_means(weights, bias, x, y)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    def test_ce_step_holds_one_rows_by_classes_array(self):
        # A second live rows x classes temporary made the heap's high-water
        # mark, and so the peak RSS of training, depend on the row count.
        n, classes = 20000, 19
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 5))
        y = rng.integers(0, classes, size=n).astype(np.intp)
        weights, bias = rng.normal(size=(classes, 5)), rng.normal(size=classes)
        tracemalloc.start()
        try:
            _ce_means(weights, bias, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * classes * 8


def separable_instance(seed=0, h=16, w=16):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(h, w))
    means = np.array([[2.0, 0.0], [0.0, 2.0]])
    feats = means[labels] + 0.4 * rng.normal(size=(h, w, 2))
    return FeatureMap(feats), LabelMap(labels, 2)


class TestTrainStudent:
    def test_separable_data_trains_accurately(self):
        feats, labels = separable_instance()
        cfg = TrainConfig(lr=0.5, iterations=500, seed=0)
        result = train_student(feats, labels, cfg)
        pred = unify(student_forward(result.model, feats))
        acc = (pred.values == labels.values).mean()
        assert acc >= 0.95

    def test_zero_lr_keeps_model_at_init(self):
        feats, labels = separable_instance(3)
        cfg = TrainConfig(lr=0.0, iterations=20, seed=5)
        trained = train_student(feats, labels, cfg).model
        init = np.random.default_rng(5).normal(0.0, 0.01, size=(2, 2))
        np.testing.assert_array_equal(trained.weights, init)
        np.testing.assert_array_equal(trained.bias, np.zeros(2))

    def test_deterministic_given_seed(self):
        feats, labels = separable_instance(7)
        cfg = TrainConfig(lr=0.3, iterations=50, seed=9)
        a = train_student(feats, labels, cfg)
        b = train_student(feats, labels, cfg)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_loss_trace_shrinks_on_separable_data(self):
        feats, labels = separable_instance(11)
        cfg = TrainConfig(lr=0.5, iterations=300, seed=1)
        losses = train_student(feats, labels, cfg).losses
        assert losses[-1] < 0.25 * losses[0]

    def test_rejects_fully_unlabeled(self):
        feats, _ = separable_instance()
        empty = LabelMap(np.full((16, 16), UNLABELED_ID), 2)
        with pytest.raises(ValueError):
            train_student(feats, empty, TrainConfig(iterations=5, seed=0))

    def test_unlabeled_pixels_ignored_by_training(self):
        feats, labels = separable_instance(13)
        masked = labels.values.copy()
        masked[:4] = UNLABELED_ID
        lm = LabelMap(masked, 2)
        cfg = TrainConfig(lr=0.3, iterations=30, seed=2)
        base = train_student(feats, lm, cfg).model
        # perturbing features under unlabeled pixels changes nothing
        warped = feats.values.copy()
        warped[:4] = -50.0
        alt = train_student(FeatureMap(warped), lm, cfg).model
        np.testing.assert_array_equal(base.weights, alt.weights)

    def test_config_json_roundtrip(self):
        cfg = TrainConfig(lr=0.25, iterations=42, seed=6)
        assert TrainConfig.from_json(cfg.to_json()) == cfg
        with pytest.raises(ValueError):
            TrainConfig.from_json('{"bogus": 1}')


def protocol_inputs(seed=0, images=4, classes=4):
    rng = np.random.default_rng(seed)
    gts, feats = [], []
    good, bad = [], []
    for i in range(images):
        g, f = gen_ground_truth(24, 24, classes, region_scale=5, seed=1000 + seed + i)
        gts.append(g)
        feats.append(f)
        good.append(corrupt_teacher(g, [0.05] * classes, 0.5, seed=200 + i))
        bad.append(corrupt_teacher(g, [0.65] * classes, 0.1, seed=300 + i))
    return gts, feats, good, bad


class TestSelectionProtocol:
    def test_single_teacher_gives_identity_policy(self):
        _, feats, good, _ = protocol_inputs()
        cfg = TrainConfig(lr=0.5, iterations=60, seed=0)
        res = certainty_selection_protocol([good], feats, 0.3, cfg)
        assert (res.policy.assignment == 0).all()

    def test_accurate_teacher_wins_most_classes(self):
        _, feats, good, bad = protocol_inputs()
        cfg = TrainConfig(lr=0.5, iterations=120, seed=0)
        res = certainty_selection_protocol([good, bad], feats, 0.3, cfg)
        picked_good = (res.policy.assignment == 0).sum()
        assert picked_good > res.policy.num_classes / 2

    def test_identical_teachers_tie_deterministically(self):
        _, feats, good, _ = protocol_inputs(1)
        cfg = TrainConfig(lr=0.5, iterations=60, seed=0)
        res = certainty_selection_protocol([good, list(good)], feats, 0.3, cfg)
        assert (res.policy.assignment == 0).all()
        np.testing.assert_array_equal(res.table[0].per_class, res.table[1].per_class)

    def test_needs_two_images(self):
        _, feats, good, _ = protocol_inputs()
        with pytest.raises(ValueError):
            certainty_selection_protocol([good[:1]], feats[:1], 0.3, TrainConfig(seed=0))

    def test_teacher_maps_must_match_feature_size(self):
        _, feats, good, _ = protocol_inputs()
        small = [ProbMap(pm.values[:12, :12]) for pm in good]
        with pytest.raises(ValueError, match="dimensions differ"):
            certainty_selection_protocol([small, good], feats, 0.3, TrainConfig(seed=0))
