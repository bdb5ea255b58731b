import ast
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import distill, util
from segfuse.core import UNLABELED_ID, LabelMap, ProbMap
from segfuse.distill import (
    FeatureMap,
    ToyStudent,
    TrainConfig,
    _BLOCK_ROWS,
    _BLOCK_UNIT,
    _block_probs,
    _ce_buffers,
    _ce_means,
    _certainty,
    _labeled_rows,
    _measure_split,
    _row_blocks,
    _TrainingBlocks,
    _unlabeled,
    average_fuse,
    ce_loss_and_grads,
    kl_loss_and_grads,
    measure_teacher,
    student_blocks,
    student_labels,
    train_rows,
    train_student,
)
from segfuse.policy import select_certainty
from segfuse.synth import (UNDERPERFORMER_TEMPERATURE, BenchmarkConfig, corrupt_teacher,
                           gen_ground_truth, make_benchmark, make_underperformer_maps,
                           soften)
from segfuse.unify import unify

from helpers import average_fuse_stacked, certainty_policy, certainty_report, student_map


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

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_of_the_stacked_mean(self, seed):
        # robustness' members: the teachers, then one under-performer re-added
        bench = make_benchmark(BenchmarkConfig(), seed)
        members = [soften(maps[0], temp)
                   for maps, temp in zip(bench.teacher_labels, bench.temperatures)]
        bad = soften(make_underperformer_maps(bench.gts, seed)[0], UNDERPERFORMER_TEMPERATURE)
        members += [bad] * 3
        for k in range(1, len(members) + 1):
            got = average_fuse(members[:k]).values
            assert np.array_equal(got, average_fuse_stacked(members[:k])), k

    def test_peak_does_not_grow_with_the_member_count(self):
        rng = np.random.default_rng(0)
        raw = rng.random((64, 64, 8)) + 1e-3
        member = ProbMap(raw / raw.sum(axis=2, keepdims=True))
        peaks = []
        for count in (2, 8):
            tracemalloc.start()
            try:
                average_fuse([member] * count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one summed map and the ProbMap check's temporaries, whatever the count
        assert peaks[1] <= peaks[0] + 4096
        assert peaks[1] < 2.5 * member.values.nbytes


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
        pm = student_map(model, feats)
        entropy = -(pm.values * np.log(pm.values)).sum()
        loss = kl_loss_and_grads(model, feats, pm)[0]
        assert 16 * loss == pytest.approx(float(entropy), rel=1e-12)

    def test_is_the_expression_on_the_assembled_probabilities_bit_for_bit(self):
        rng = np.random.default_rng(6)
        model = ToyStudent(rng.normal(size=(7, 5)), rng.normal(size=7))
        feats = FeatureMap(rng.normal(size=(129, 130, 5)))
        assert len(_row_blocks(129 * 130)) == 3
        raw = rng.random((129, 130, 7)) + 1e-3
        target = ProbMap(raw / raw.sum(2, keepdims=True))
        probs = student_map(model, feats).values.reshape(-1, 7)
        s = target.values.reshape(probs.shape)
        n = len(probs)
        x = feats.values.reshape(n, -1)
        loss = float(-(s * np.log(np.maximum(probs, distill._LOG_CLAMP))).sum()) / n
        g = (probs * s.sum(axis=1, keepdims=True) - s) / n
        got = kl_loss_and_grads(model, feats, target)
        assert got[0].hex() == loss.hex()
        assert got[1].tobytes() == (g.T @ x).tobytes()
        assert got[2].tobytes() == g.sum(axis=0).tobytes()

    def test_feature_dim_must_match_the_model(self):
        # the message the forward's own check gives, not numpy's matmul error
        target = prob([[[1 / 3] * 3] * 4])
        model = ToyStudent(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError, match="^feature dim 5 does not match model dim 4$"):
            kl_loss_and_grads(model, zero_feats(1, 4, dims=5), target)


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
        out = student_map(model, feats)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-12)

    def test_dominant_class_weights(self):
        w = np.zeros((3, 2))
        b = np.array([50.0, 0.0, 0.0])
        model = ToyStudent(w, b)
        feats = FeatureMap(np.random.default_rng(1).normal(size=(3, 3, 2)))
        out = unify(student_map(model, feats))
        assert (out.values == 0).all()

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        model = ToyStudent(rng.normal(size=(4, 3)), rng.normal(size=4))
        feats = FeatureMap(rng.normal(size=(3, 2, 3)))
        out = student_map(model, feats)
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
            student_map(model, FeatureMap(np.zeros((2, 2, 5))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_feature_map_rejects_any_non_finite_value(self, value, where):
        v = np.random.default_rng(0).normal(size=(6, 7, 5))
        v.reshape(-1)[{"first": 0, "middle": v.size // 2, "last": -1}[where]] = value
        with pytest.raises(ValueError, match="^feature map contains non-finite values$"):
            FeatureMap(v)

    @pytest.mark.parametrize("shape", [(8, 8, 0), (0, 8, 3), (8, 0, 3)])
    def test_feature_map_rejects_an_empty_map(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"bad feature map shape {shape}")):
            FeatureMap(np.zeros(shape))


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


def reference_softmax(z):
    e = np.exp(z - z.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def reference_ce_means(weights, bias, x, y):
    n = y.shape[0]
    probs = reference_softmax(x @ weights.T + bias)
    picked = probs[np.arange(n), y]
    loss = float(-np.log(np.maximum(picked, 1e-12)).sum())
    g = probs
    g[np.arange(n), y] -= 1.0
    return loss / n, (g.T @ x) / n, g.sum(axis=0) / n


def training_set(x, y, classes):
    """The training set of the rows x labeled by the class ids y, as
    training builds it."""
    builder = _TrainingBlocks([LabelMap(y[None], classes)])
    builder.add(x)
    return builder.done()


def ce_means(weights, bias, x, y, workers=1):
    """``_ce_means`` of the rows x on ``workers`` workers, as (mean loss,
    weight grads, bias grads)."""
    rows = training_set(x, y, weights.shape[0])
    loss, grads = _ce_means(np.column_stack([weights, bias]), rows, _ce_buffers(rows, workers))
    return loss, grads[:, :-1], grads[:, -1]


#: How far the kernels may be from the whole-array formulas, relative to
#: the largest magnitude of the reference: their row sums (BLAS products
#: with a ones vector) and per-block gradient sums round in another order.
REL_TOL = 1e-13


def assert_near(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()


def assert_ce_means_near_reference(weights, bias, x, y):
    """``_ce_means`` is within REL_TOL of the whole-array step, gives the
    same bits on a second call on two workers, and, with classes 0 and 1
    tied, the same loss bits when their labels swap (their probabilities
    are equal)."""
    got = ce_means(weights, bias, x, y)
    for g, w in zip(got, reference_ce_means(weights, bias, x, y)):
        assert_near(g, w)
    again = ce_means(weights, bias, x, y, workers=2)
    assert got[0] == again[0]
    assert np.array_equal(got[1], again[1]) and np.array_equal(got[2], again[2])
    tied_w, tied_b = weights.copy(), bias.copy()
    tied_w[1], tied_b[1] = tied_w[0], tied_b[0]
    swapped = np.where(y == 0, 1, np.where(y == 1, 0, y))
    assert ce_means(tied_w, tied_b, x, swapped)[0] == ce_means(tied_w, tied_b, x, y)[0]


class TestSoftmaxKernel:
    """The class-major block softmax of an augmented block (a row of ones
    last, the bias the weights' last column) is the formula within
    REL_TOL, deterministic, exact on ties, and written into its buffer."""

    @pytest.mark.parametrize("shape", [(4099, 8), (4099, 19), (1, 19), (31, 8)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_matches_reference_formula(self, shape, scale):
        rows, classes = shape
        rng = np.random.default_rng(classes)
        x = rng.normal(size=(rows, 5))
        weights = rng.normal(scale=scale / 10, size=(classes, 5))
        bias = np.round(rng.normal(size=classes)) * scale
        for tied in (False, True):
            if tied:  # classes 0 and 1 tie, often for the maximum
                bias[0] = bias.max()
                weights[1], bias[1] = weights[0], bias[0]
            xb = np.concatenate(training_set(x, np.zeros(rows, np.intp), 2).blocks, axis=1)
            wb = np.column_stack([weights, bias])
            assert xb.shape == (6, rows) and (xb[-1] == 1).all()
            assert np.array_equal(xb[:-1], x.T)
            buf = np.full(classes * rows + 3, np.nan)
            got = _block_probs(xb, wb, buf)
            assert got.shape == (classes, rows)
            assert np.shares_memory(got, buf) and got.ctypes.data == buf.ctypes.data
            assert np.isnan(buf[classes * rows:]).all()
            assert_near(got.T, reference_softmax(x @ weights.T + bias))
            assert np.array_equal(_block_probs(xb, wb, np.empty(classes * rows)), got)
        assert np.array_equal(got[1], got[0])

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
        assert_ce_means_near_reference(weights, bias, x, y)

    def test_ce_step_peak_does_not_grow_with_the_row_count(self):
        # A rows x classes gradient array made the step's heap high-water
        # mark, and so the peak RSS of training, grow with the row count.
        classes = 19

        def step_peak(n):
            rng = np.random.default_rng(0)
            x = rng.normal(size=(n, 5))
            y = rng.integers(0, classes, size=n).astype(np.intp)
            wb = rng.normal(size=(classes, 6))
            rows = training_set(x, y, classes)
            tracemalloc.start()
            try:
                _ce_means(wb, rows, _ce_buffers(rows))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert step_peak(200_000) - step_peak(20_000) < (2 * B - 1) * classes * 8


B = _BLOCK_ROWS


class TestRowBlocks:
    """The CE step's row blocks stay within REL_TOL of the whole-array step
    at any size."""

    @pytest.mark.parametrize("classes, dims", [(8, 8), (19, 19), (2, 40)])
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 3 * B + 2])
    def test_ce_means_match_reference_across_block_boundaries(self, n, classes, dims):
        rng = np.random.default_rng([n, classes, dims])
        x = rng.normal(size=(n, dims))
        y = rng.integers(0, classes, size=n).astype(np.intp)
        weights = rng.normal(scale=0.3, size=(classes, dims))
        bias = rng.normal(size=classes)
        assert_ce_means_near_reference(weights, bias, x, y)

    @pytest.mark.parametrize("classes", [8, 19])
    def test_ce_means_match_reference_near_convergence(self, classes):
        # Labels are the argmax of logits of scale about 3, so most label
        # probabilities are near 1 and the label sums, taken once, nearly
        # cancel the probability products they are subtracted from.
        rng = np.random.default_rng(classes)
        x = rng.normal(size=(20_000, classes))
        weights = rng.normal(scale=3 / np.sqrt(classes), size=(classes, classes))
        bias = rng.normal(size=classes)
        y = (x @ weights.T + bias).argmax(axis=1)
        assert_ce_means_near_reference(weights, bias, x, y)

    @pytest.mark.parametrize("height, width", [(1, B + 1), (2 * B + 1, 1)])
    def test_student_forward_matches_whole_array_expression(self, height, width):
        rng = np.random.default_rng(height)
        weights, bias = rng.normal(size=(19, 19)), rng.normal(size=19)
        weights[1], bias[1] = weights[0], bias[0]
        model = ToyStudent(weights, bias)
        feats = FeatureMap(rng.normal(size=(height, width, 19)))
        # One product over all pixel rows: a batch of H products of W rows
        # each takes a 1-row path at W = 1, whose last bits differ.
        x = feats.values.reshape(-1, 19)
        want = reference_softmax(x @ model.weights.T + model.bias)
        got = student_map(model, feats).values
        assert_near(got, want.reshape(height, width, 19))
        assert np.array_equal(student_map(model, feats).values, got)
        assert np.array_equal(got[..., 1], got[..., 0])

    def test_blocks_are_whole_units_but_a_last_remainder(self):
        U = _BLOCK_UNIT
        for n in [*range(1, 4 * B, 61), *range(1, 3 * U), B - 1, B, B + 1,
                  2 * B - 1, 2 * B, 2 * B + U - 1, 7 * B + 5]:
            blocks = _row_blocks(n)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [s.stop - s.start for s in blocks]
            assert min(sizes) > 0, n
            if n % U:
                assert sizes.pop() == n % U, n
            assert all(size % U == 0 and size <= 2 * B for size in sizes), n
            assert all(size >= B for size in sizes) or len(sizes) <= 1, n


#: C = d = 8 is the robustness workload's shape: the forward gemm's inner
#: dimension is 9 with the ones row; 19 is the large set-ups'.  The default
#: kernel is the CPU's; on Nehalem and Prescott, which any x86-64 CPU runs,
#: the gemms change bits with the thread count, so only the pin to one BLAS
#: thread holds the bits there.
BLAS_CASES = pytest.mark.parametrize("classes, kernel", [
    pytest.param(classes, kernel, id=f"{classes}-{kernel}" if kernel else str(classes))
    for classes in (8, 19) for kernel in (None, "Nehalem", "Prescott")])


def blas_probe(script, classes, kernel, threads):
    """The words that the Python code ``script`` prints for ``classes`` in a
    fresh interpreter, on OpenBLAS's ``kernel`` (None: the CPU's) at
    ``threads`` BLAS threads; ``helpers`` is importable there."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          str(Path(__file__).parent)])}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", script, str(classes)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


#: Trains a C-class student on 33,000 rows of C features (4 row blocks and
#: a remainder) for 5 steps and prints the bytes of its weights, bias,
#: losses and rho.
THREAD_PROBE = """
import hashlib, sys, numpy as np
from segfuse.core import LabelMap
from segfuse.distill import FeatureMap, TrainConfig, _certainty, _unlabeled, train_student
c = int(sys.argv[1])
rng = np.random.default_rng(0)
feats = FeatureMap(rng.normal(size=(33_000, 1, c)))
labels = LabelMap(rng.integers(0, c, size=(33_000, 1)).astype(np.uint8), c)
result = train_student(feats, labels, TrainConfig(iterations=5, seed=0))
rho = _certainty(result.model, _unlabeled([feats], c)).per_class
for a in (result.model.weights, result.model.bias, result.losses, rho):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


@BLAS_CASES
def test_training_bits_do_not_depend_on_the_blas_thread_count(classes, kernel):
    one = blas_probe(THREAD_PROBE, classes, kernel, 1)
    assert len(one) == 4
    assert blas_probe(THREAD_PROBE, classes, kernel, 2) == one


#: Runs a random C-class student with C features (C = d) over a 128 x 256
#: image, 4 row blocks, and prints the bytes of its probabilities.
FORWARD_PROBE = """
import hashlib, sys, numpy as np
from segfuse.distill import FeatureMap, ToyStudent
from helpers import student_map
c = int(sys.argv[1])
rng = np.random.default_rng(0)
model = ToyStudent(rng.normal(size=(c, c)), rng.normal(size=c))
feats = FeatureMap(rng.normal(size=(128, 256, c)))
print(hashlib.sha256(student_map(model, feats).values.tobytes()).hexdigest())
"""


@BLAS_CASES
def test_forward_bits_do_not_depend_on_the_blas_thread_count(classes, kernel):
    # student_blocks pins BLAS for every consumer (kl_loss_and_grads,
    # student_labels, distill --probmap-out, rho), not only for training's:
    # unpinned, the forward gemm's bits follow the thread count on Nehalem
    # and Prescott.
    one = blas_probe(FORWARD_PROBE, classes, kernel, 1)
    assert len(one) == 1
    assert blas_probe(FORWARD_PROBE, classes, kernel, 2) == one


#: Takes the CE and KL losses and gradients of a random C-class student
#: with C features on a 33,000 x 1 image (4 row blocks and a remainder),
#: under random labels and a random soft target, and prints their bytes.
LOSS_PROBE = """
import hashlib, sys, numpy as np
from segfuse.core import LabelMap, ProbMap
from segfuse.distill import FeatureMap, ToyStudent, ce_loss_and_grads, kl_loss_and_grads
c = int(sys.argv[1])
rng = np.random.default_rng(0)
model = ToyStudent(rng.normal(size=(c, c)), rng.normal(size=c))
feats = FeatureMap(rng.normal(size=(33_000, 1, c)))
labels = LabelMap(rng.integers(0, c, size=(33_000, 1)).astype(np.uint8), c)
target = rng.random((33_000, 1, c)) + 1e-3
target = ProbMap(target / target.sum(axis=2, keepdims=True))
for loss, gw, gb in (ce_loss_and_grads(model, feats, labels),
                     kl_loss_and_grads(model, feats, target)):
    for a in (np.float64(loss), gw, gb):
        print(hashlib.sha256(a.tobytes()).hexdigest())
"""


@BLAS_CASES
def test_loss_bits_do_not_depend_on_the_blas_thread_count(classes, kernel):
    # ce_loss_and_grads and kl_loss_and_grads pin BLAS as training does:
    # unpinned, the gradient gemms' bits follow the thread count on Nehalem
    # and Prescott, and the KL weight gradient's on the CPU's own kernel
    # too at C = 19.
    one = blas_probe(LOSS_PROBE, classes, kernel, 1)
    assert len(one) == 6
    assert blas_probe(LOSS_PROBE, classes, kernel, 2) == one


def rows_of(blocks, classes=8, dims=8):
    """A random training set of ``blocks`` row blocks, the last a short
    remainder of 5 rows."""
    n = (blocks - 1) * B + 5
    rng = np.random.default_rng([blocks, classes])
    rows = training_set(rng.normal(size=(n, dims)), rng.integers(0, classes, n), classes)
    assert len(rows.at) == blocks and len(rows.at[-1]) == 5
    return rows


#: Trains on 4 row blocks (so on 2 workers where there are 2 cores) at the
#: thread count the environment gives OpenBLAS, and prints that count
#: before, during and after training.
BLAS_PIN_PROBE = """
import numpy as np
from segfuse import distill, util
from segfuse.core import LabelMap
from segfuse.distill import FeatureMap, TrainConfig, train_student
get = util._openblas()[0]
during, block_probs = set(), distill._block_probs
def spy(*args):
    during.add(get())
    return block_probs(*args)
distill._block_probs = spy
before = get()
rng = np.random.default_rng(0)
feats = FeatureMap(rng.normal(size=(40_000, 1, 3)))
labels = LabelMap(rng.integers(0, 3, size=(40_000, 1)).astype(np.uint8), 3)
train_student(feats, labels, TrainConfig(iterations=2))
print(before, sorted(during), get())
"""


#: Runs two overlapping ``util.one_blas_thread`` bodies on two threads, in
#: the order A enters, B enters, A leaves, B leaves, and prints the thread
#: count inside B after A has left, then after both have left.
BLAS_OVERLAP_PROBE = """
import threading
from segfuse import util
get = util._openblas()[0]
a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
inside_b = []
def a():
    with util.one_blas_thread():
        a_in.set()
        assert b_in.wait(30)
    a_out.set()
def b():
    assert a_in.wait(30)
    with util.one_blas_thread():
        b_in.set()
        assert a_out.wait(30)
        inside_b.append(get())
threads = [threading.Thread(target=a), threading.Thread(target=b)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(inside_b[0], get())
"""


class TestCEWorkers:
    """The CE step's worker threads change neither its bits nor its
    errors, each costs one block buffer, and training gives the caller's
    BLAS thread count back."""

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 15])
    def test_workers_give_the_same_bits(self, blocks):
        rows = rows_of(blocks)
        wb = np.random.default_rng(blocks).normal(size=(8, 9))
        loss, grads = _ce_means(wb, rows, _ce_buffers(rows))
        # More workers than cores, switching threads often: a block term
        # lost or summed out of order would change the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3, 5):
                got = _ce_means(wb, rows, _ce_buffers(rows, workers))
                assert got[0] == loss and got[1].tobytes() == grads.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_training_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        rows, config = rows_of(4), TrainConfig(iterations=3, seed=1)

        def train(workers):
            monkeypatch.setattr(distill, "workers", lambda items: workers)
            result = train_rows(rows, config)
            return result.model.weights.tobytes(), result.model.bias.tobytes(), result.losses.tobytes()

        assert train(2) == train(1)

    def test_workers_follow_the_cores_and_the_block_count(self, monkeypatch):
        # At least two blocks per worker, read from the buffers that
        # train_rows asks for, one per worker.
        monkeypatch.setattr(util, "cores", lambda: 2)
        counts, ce_buffers = [], distill._ce_buffers

        def spy(rows, workers=1):
            counts.append(workers)
            return ce_buffers(rows, workers)

        monkeypatch.setattr(distill, "_ce_buffers", spy)
        for blocks in (1, 2, 3, 4, 15):
            train_rows(rows_of(blocks), TrainConfig(iterations=1))
        assert counts == ([1] * 5 if util._openblas() is None else [1, 1, 1, 2, 2])

    def test_without_the_library_training_runs_unpinned_on_one_worker(self, monkeypatch):
        monkeypatch.setattr(util.os, "listdir", lambda path: ["libopenblas.so"])
        util._openblas.cache_clear()
        try:
            assert util._openblas() is None and util.workers(15) == 1
            with util.one_blas_thread():
                pass
        finally:
            monkeypatch.undo()
            util._openblas.cache_clear()

    @pytest.mark.parametrize("worker", [0, 1])
    def test_a_failing_block_raises_without_hanging(self, worker, monkeypatch):
        rows = rows_of(4)
        bad, block_probs = rows.blocks[2 + worker], distill._block_probs  # worker 1 owns 1, 3

        def failing(xb, wb, buf):
            if xb is bad:
                raise RuntimeError("block failed")
            return block_probs(xb, wb, buf)

        monkeypatch.setattr(distill, "_block_probs", failing)
        monkeypatch.setattr(distill, "workers", lambda items: 2)
        blas = util._openblas()
        before = blas and blas[0]()
        errors = []

        def run():
            try:
                train_rows(rows, TrainConfig(iterations=2))
            except RuntimeError as e:
                errors.append(e)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        assert [str(e) for e in errors] == ["block failed"]
        assert (blas and blas[0]()) == before

    def test_training_gives_the_blas_thread_count_back(self):
        if util._openblas() is None:
            pytest.skip("this numpy bundles no scipy-openblas to pin")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", BLAS_PIN_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "[1]", "2"]

    def test_overlapping_pins_hold_until_the_last_leaves(self):
        if util._openblas() is None:
            pytest.skip("this numpy bundles no scipy-openblas to pin")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", BLAS_OVERLAP_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "2"]

    def test_the_lowest_failing_block_is_raised(self, monkeypatch):
        # worker 0 takes blocks 0 and 2, worker 1 blocks 1 and 3; block 2
        # fails first, then block 1, whose error is the one raised
        rows = rows_of(4)
        block_probs, two_failed = distill._block_probs, threading.Event()

        def failing(xb, wb, buf):
            if xb is rows.blocks[2]:
                two_failed.set()
                raise RuntimeError("block 2 failed")
            if xb is rows.blocks[1]:
                assert two_failed.wait(30)
                raise ValueError("block 1 failed")
            return block_probs(xb, wb, buf)

        monkeypatch.setattr(distill, "_block_probs", failing)
        monkeypatch.setattr(distill, "workers", lambda items: 2)
        for _ in range(5):
            two_failed.clear()
            with pytest.raises(ValueError, match="^block 1 failed$"):
                train_rows(rows, TrainConfig(iterations=2))

    def test_each_extra_worker_costs_one_block_buffer(self, monkeypatch):
        classes = 19
        rows = rows_of(4, classes, dims=19)

        def peak(workers):
            monkeypatch.setattr(distill, "workers", lambda items: workers)
            tracemalloc.start()
            try:
                train_rows(rows, TrainConfig(iterations=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A worker's block buffer, plus the two rows-long vectors it may
        # hold at once: its block's column maxima or sums, and its picked
        # label probabilities.
        size = max(map(len, rows.at)) * 8
        one = peak(1)
        for workers in (2, 3):
            assert peak(workers) - one <= (workers - 1) * (classes * size + 2 * size)


class TestReleasedProduct:
    """``np.dot``, the CE step's and the label sums' product, lets other
    threads run during its gemm and gives ``@``'s bits."""

    def test_other_threads_run_during_the_product(self):
        # A spinner that needs the GIL for every turn.  The switch interval
        # outlasts a product, so a product that held the GIL would let it
        # turn 0 times (numpy's matmul does, for a 19 x 20 output); one that
        # releases it lets it turn whenever it gets a core, so the test
        # runs up to 20 products until it has turned 50 times during them.
        rng = np.random.default_rng(0)
        a, x = rng.random((19, 200_000)), rng.random((20, 200_000))
        turns, started, stop = [0], threading.Event(), threading.Event()

        def spin():
            started.set()
            while not stop.is_set():
                turns[0] += 1
                time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            assert started.wait(30)
            during = 0
            for _ in range(20):
                before = turns[0]
                np.dot(a, x.T)
                during += turns[0] - before
                if during >= 50:
                    break
        finally:
            stop.set()
            spinner.join(30)
            sys.setswitchinterval(interval)
        assert not spinner.is_alive()
        assert during >= 50

    @pytest.mark.parametrize("classes", [8, 19])
    def test_gives_the_bits_of_matmul(self, classes):
        rows = rows_of(3, classes, dims=classes)  # the last block 5 rows
        wb = np.random.default_rng(classes).normal(size=(classes, classes + 1))
        buf = _ce_buffers(rows)[0]
        for xb, at in zip(rows.blocks, rows.at):
            blk = _block_probs(xb, wb, buf)
            assert np.dot(blk, xb.T).tobytes() == (blk @ xb.T).tobytes()
            onehot = np.zeros(blk.shape)
            onehot.put(at, 1.0)
            assert np.dot(onehot, xb.T).tobytes() == (onehot @ xb.T).tobytes()


def rho_of(model, images):
    feats = [FeatureMap(v) for v in images]
    return _certainty(model, _unlabeled(feats, model.feature_dims)).per_class


@st.composite
def certainty_cases(draw):
    """A random student with classes 0 and 1 exactly tied (so 1 is never
    predicted) and the last class held far down (never predicted either),
    and 1 to 3 images of under one block up to more than three blocks."""
    classes = draw(st.integers(3, 19))
    dims = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    weights = rng.normal(scale=scale, size=(classes, dims))
    bias = rng.normal(size=classes)
    weights[1], bias[1] = weights[0], bias[0]
    bias[-1] = -1e4
    sizes = st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.sampled_from([(1, B - 1), (B + 1, 1), (2, B + 3), (4 * B // 64 + 3, 64)]),
    )
    shapes = draw(st.lists(sizes, min_size=1, max_size=3))
    feats = [FeatureMap(rng.normal(size=(h, w, dims))) for h, w in shapes]
    return ToyStudent(weights, bias), feats


class TestCertainty:
    """The block rho is the masked per-class certainty of the student's
    probability maps, summed in another order."""

    @settings(max_examples=40, deadline=None)
    @given(certainty_cases())
    def test_matches_the_probability_map_oracle(self, case):
        model, feats = case
        images = _unlabeled(feats, model.feature_dims)
        got = _certainty(model, images).per_class
        want = certainty_report([student_map(model, f) for f in feats]).per_class
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got[[1, -1]]).all()
        seen = ~np.isnan(want)
        assert np.abs(got[seen] - want[seen]).max() <= 1e-13
        assert np.array_equal(_certainty(model, images).per_class, got, equal_nan=True)

    def test_single_class_predictor(self):
        # class 0 predicted everywhere at 0.8 -> rho(0)=0.8, others undefined
        model = ToyStudent(np.zeros((3, 2)), np.log([0.8, 0.1, 0.1]))
        rho = rho_of(model, [np.random.default_rng(0).normal(size=(1, 2, 2))])
        assert rho[0] == pytest.approx(0.8)
        assert np.isnan(rho[1]) and np.isnan(rho[2])

    def test_uniform_student_ties_to_class_zero(self):
        rho = rho_of(ToyStudent(np.zeros((4, 3)), np.zeros(4)), [np.ones((2, 3, 3))])
        assert rho[0] == pytest.approx(0.25)
        assert np.isnan(rho[1:]).all()

    def test_matches_scalar_accumulation_oracle(self):
        rng = np.random.default_rng(21)
        model = ToyStudent(rng.normal(size=(4, 3)), rng.normal(size=4))
        x = rng.normal(size=(8, 8, 3))
        rho = rho_of(model, [x])
        sums = np.zeros(4)
        counts = np.zeros(4)
        for i in range(8):
            for j in range(8):
                logits = [float(model.weights[c] @ x[i, j] + model.bias[c]) for c in range(4)]
                e = [math.exp(z - max(logits)) for z in logits]
                c = e.index(max(e))
                sums[c] += e[c] / sum(e)
                counts[c] += 1
        for c in range(4):
            if counts[c]:
                assert rho[c] == pytest.approx(sums[c] / counts[c], rel=1e-12)
            else:
                assert np.isnan(rho[c])

    def test_accumulates_across_measurement_images(self):
        # p(0) = 9 / (1 + 9) = 0.9 on the first image, 7 / (7 + 3) = 0.7 on the second
        model = ToyStudent(np.array([[1.0], [0.0]]), np.zeros(2))
        rho = rho_of(model, [np.full((1, 1, 1), np.log(v)) for v in (9, 7 / 3)])
        assert rho[0] == pytest.approx(0.8)

    def test_peak_does_not_grow_with_the_image_count(self):
        # One probability map per measurement image made the peak grow by
        # height x width x classes floats per image, and an argmax that
        # copied each block held one more output block.
        model, feats, buffers, block = peak_case()
        one = traced_peak(_certainty, model, _unlabeled([feats], feats.dims))
        assert one - buffers < block
        three = traced_peak(_certainty, model, _unlabeled([feats] * 3, feats.dims))
        assert three - one < 16 * 1024


def traced_peak(f, *args):
    """The tracemalloc peak of ``f(*args)`` in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_case():
    """(a 19-class student of 8 features, a 256 x 128 feature map, the
    bytes of its two block buffers, the bytes of one output block)."""
    rng = np.random.default_rng(0)
    classes, dims = 19, 8
    model = ToyStudent(rng.normal(size=(classes, dims)), rng.normal(size=classes))
    feats = FeatureMap(rng.normal(size=(256, 128, dims)))
    rows = max(b.stop - b.start for b in _row_blocks(256 * 128))
    return model, feats, (dims + 1 + classes) * rows * 8, classes * rows * 8


class TestStudentLabels:
    """``student_labels`` is ``unify`` of the student's probability map
    without the map."""

    @settings(max_examples=40, deadline=None)
    @given(certainty_cases())
    def test_matches_unify_of_the_probability_map(self, case):
        model, feats = case
        for f in feats:
            got, want = student_labels(model, f), unify(student_map(model, f))
            assert got.num_classes == want.num_classes
            assert np.array_equal(got.values, want.values)

    def test_rejects_dim_mismatch(self):
        model = ToyStudent(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="feature dim 5 does not match model dim 2"):
            student_labels(model, FeatureMap(np.zeros((2, 2, 5))))

    def test_peak_is_under_one_output_block(self):
        # Beyond its labels and its two block buffers: no probability map
        # and no copy of a block.
        model, feats, buffers, block = peak_case()
        labels = feats.height * feats.width * 2
        assert traced_peak(student_labels, model, feats) - labels - buffers < block


#: Pixels of an image of three whole row blocks and a 2-row remainder.
GATHER_N = 3 * B + 2


def gather_masks():
    """Labeled masks of a GATHER_N-pixel image, by name."""
    n = GATHER_N
    starts = np.random.default_rng(0).random(n) < 0.5
    starts[B], starts[2 * B] = True, False  # a block starts labeled, one unlabeled
    crossing = np.ones(n, bool)
    crossing[:300] = crossing[n - 100 :] = False
    return {"none": np.zeros(n, bool), "all": np.ones(n, bool),
            "alternating": np.arange(n) % 2 == 0, "block-starts": starts,
            "crossing": crossing}


class TestStudentBlocks:
    """``student_blocks`` gathers each row block back into pixel order from
    an image's training blocks and unlabeled rows with the bits of its
    all-unlabeled forward (``student_map``), whatever pixels are labeled."""

    def setup_method(self):
        rng = np.random.default_rng(1)
        self.model = ToyStudent(rng.normal(size=(5, 3)), rng.normal(size=5))
        self.feats = FeatureMap(rng.normal(size=(2, GATHER_N // 2, 3)))
        self.want = student_map(self.model, self.feats).values.reshape(-1, 5)

    def gathered(self, masks):
        """Each image's rows x classes probabilities from one pass, the
        images' labeled pixels in one builder's training blocks."""
        rows = self.feats.values.reshape(-1, 3)
        x = _TrainingBlocks([LabelMap(np.where(m, 0, UNLABELED_ID)[None], 2) for m in masks])
        for _ in masks:
            x.add(rows)
        out = []
        for b, blk in student_blocks(self.model, x.done()[0], [(m, [rows[~m].T]) for m in masks]):
            if b.start == 0:
                out.append(np.full((GATHER_N, 5), np.nan))
            out[-1][b] = blk.T
        return out

    @pytest.mark.parametrize("name", list(gather_masks()))
    def test_matches_student_forward(self, name):
        [got] = self.gathered([gather_masks()[name]])
        assert np.array_equal(got, self.want)

    def test_images_of_one_pass_keep_their_own_rows(self):
        got = self.gathered(list(gather_masks().values()))
        assert len(got) == len(gather_masks())
        assert all(np.array_equal(g, self.want) for g in got)

    def test_training_blocks_span_the_images(self):
        # one training block holds the last labeled pixels of the first
        # image and the first of the second: read on, not restarted
        masks = [gather_masks()["crossing"], gather_masks()["alternating"]]
        first = int(np.count_nonzero(masks[0]))
        cuts = _row_blocks(first + int(np.count_nonzero(masks[1])))
        assert any(b.start < first < b.stop for b in cuts)
        assert all(np.array_equal(g, self.want) for g in self.gathered(masks))

    def test_masks_cover_the_cuts(self):
        masks = gather_masks()
        cuts = [b.start for b in _row_blocks(GATHER_N)[1:]]
        assert cuts[:2] == [B, 2 * B] and len(cuts) > 2
        assert masks["block-starts"][B] and not masks["block-starts"][2 * B]
        # the one labeled run holds a row cut and a training block boundary
        crossing = masks["crossing"]
        labeled = np.flatnonzero(crossing)
        run = range(labeled[0], labeled[-1] + 1)
        assert len(run) == len(labeled)
        bounds = [labeled[b.start] for b in _row_blocks(len(labeled))[1:]]
        assert any(c in run[1:] for c in cuts) and any(p in run[1:] for p in bounds)


def callers(name):
    """The sorted innermost functions or classes of ``distill`` that call
    ``name``, as a name or an attribute (``np.name``), once per call, each
    by its qualified name (``Class.method``)."""
    tree = ast.parse(Path(distill.__file__).read_text(encoding="utf-8"))
    owner = {}

    def scope(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                # an inner scope's calls overwrite its outer scope's owner
                owner.update((id(n), prefix + child.name) for n in ast.walk(child))
                scope(child, f"{prefix}{child.name}.")
            else:
                scope(child, prefix)

    scope(tree, "")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return sorted(owner.get(id(c), "<module>") for c in calls)


def test_block_probs_runs_in_one_forward_and_the_ce_step():
    # The student's forward is one block loop: a second inference loop
    # would split its buffers and its gather again.
    assert callers("_block_probs") == ["_ce_part", "student_blocks"]


def test_row_blocks_cuts_once_for_training_and_once_for_inference():
    # A second training cut, of the labels apart from the builder's
    # blocks, had to be checked against the builder's own.
    assert callers("_row_blocks") == ["_TrainingBlocks.__init__", "student_blocks"]


def test_label_maps_are_concatenated_once():
    # The builder took the mask at construction and concatenated the label
    # maps again in done() for the class ids.
    assert callers("concatenate") == ["_TrainingBlocks.__init__"]


class TestCertaintyOracle:
    """``helpers.certainty_report``'s own checks: ``measure_teacher`` never
    passes an empty measurement set, or maps of two class counts."""

    def test_rejects_empty_measurement_set(self):
        with pytest.raises(ValueError, match="empty measurement"):
            certainty_report([])

    def test_rejects_maps_that_disagree_on_the_class_count(self):
        with pytest.raises(ValueError, match="disagree on the class count"):
            certainty_report([prob([[[0.9, 0.1]]]), prob([[[0.8, 0.1, 0.1]]])])


class TestLabeledRows:
    def test_holds_one_copy_of_the_labeled_features(self):
        # At a mostly labeled input, stacking every image's rows and then
        # masking them held the features of all pixels plus the labeled ones.
        # Now: the blocks with their ones row, the labels, one staged block
        # of row-major rows and one image's positions.
        h, w, dims, classes = 96, 128, 19, 5
        rng = np.random.default_rng(0)
        feats, labels = [], []
        for _ in range(2):
            feats.append(FeatureMap(rng.normal(size=(h, w, dims))))
            lab = rng.integers(0, classes, size=(h, w))
            lab[rng.random((h, w)) < 0.1] = UNLABELED_ID
            labels.append(LabelMap(lab, classes))
        tracemalloc.start()
        try:
            rows = _labeled_rows(feats, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x, got_classes = rows.blocks, rows.classes
        y = np.concatenate([a // len(a) for a in rows.at])
        n_labeled = y.shape[0]
        block = max(b.stop - b.start for b in _row_blocks(n_labeled))
        assert peak < n_labeled * (dims + 2) * 8 + block * dims * 8 + h * w * 8 + 64 * 1024
        mask = np.concatenate([l.values.reshape(-1) for l in labels]) != UNLABELED_ID
        assert n_labeled == mask.sum() and got_classes == classes
        want_x = np.concatenate([f.values.reshape(-1, dims) for f in feats])[mask]
        want_y = np.concatenate([l.values.reshape(-1) for l in labels])[mask]
        assert [b.shape[1] for b in x] == [b.stop - b.start for b in _row_blocks(n_labeled)]
        assert all(b.shape[0] == dims + 1 and b.flags.c_contiguous for b in x)
        assert np.array_equal(np.concatenate(x, axis=1), np.vstack([want_x.T, np.ones(n_labeled)]))
        assert y.dtype == np.intp and np.array_equal(y, want_y)
        assert all(np.array_equal(a % len(a), np.arange(len(a))) for a in rows.at)
        assert_near(rows.sums, np.eye(classes)[want_y].T @ np.column_stack([want_x, y >= 0]))

    def test_refuses_label_maps_of_two_class_counts(self):
        # The first map's count was taken, and a 2-class student trained.
        labels = [LabelMap(np.zeros((2, 2), np.uint16), c) for c in (2, 3)]
        with pytest.raises(ValueError, match="^images disagree on feature dim or class count$"):
            _TrainingBlocks(labels)

    @pytest.mark.parametrize("dims, classes", [((3, 5), (2, 2)), ((3, 3), (2, 3))])
    def test_train_student_refuses_images_that_disagree(self, dims, classes):
        feats = [FeatureMap(np.zeros((2, 2, d))) for d in dims]
        labels = [LabelMap(np.zeros((2, 2), np.uint16), c) for c in classes]
        with pytest.raises(ValueError, match="^images disagree on feature dim or class count$"):
            train_student(feats, labels, TrainConfig(iterations=1))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("iterations", 3.0), ("iterations", True),
        ("iterations", "3"), ("iterations", None),
        ("seed", 1.5), ("seed", np.float64(2.0)), ("seed", False), ("seed", np.bool_(True)),
        ("seed", "0"),
    ])
    def test_rejects_a_non_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_takes_numpy_integers(self):
        config = TrainConfig(iterations=np.int64(3), seed=np.uint8(2))
        assert (config.iterations, config.seed) == (3, 2)


def separable_instance(seed=0, h=16, w=16):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(h, w))
    means = np.array([[2.0, 0.0], [0.0, 2.0]])
    feats = means[labels] + 0.4 * rng.normal(size=(h, w, 2))
    return FeatureMap(feats), LabelMap(labels, 2)


class TestTrainStudent:
    def test_separable_data_trains_accurately(self):
        feats, labels = separable_instance()
        cfg = TrainConfig(iterations=500, seed=0)
        result = train_student(feats, labels, cfg)
        pred = student_labels(result.model, feats)
        acc = (pred.values == labels.values).mean()
        assert acc >= 0.95

    def test_deterministic_given_seed(self):
        feats, labels = separable_instance(7)
        cfg = TrainConfig(iterations=50, seed=9)
        a = train_student(feats, labels, cfg)
        b = train_student(feats, labels, cfg)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_loss_trace_shrinks_on_separable_data(self):
        feats, labels = separable_instance(11)
        cfg = TrainConfig(iterations=300, seed=1)
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
        cfg = TrainConfig(iterations=30, seed=2)
        base = train_student(feats, lm, cfg).model
        # perturbing features under unlabeled pixels changes nothing
        warped = feats.values.copy()
        warped[:4] = -50.0
        alt = train_student(FeatureMap(warped), lm, cfg).model
        np.testing.assert_array_equal(base.weights, alt.weights)


def protocol_inputs(seed=0, images=4, classes=4):
    rng = np.random.default_rng(seed)
    gts, feats = [], []
    good, bad = [], []
    for i in range(images):
        g, f = gen_ground_truth(24, 24, classes, region_scale=5, seed=1000 + seed + i)
        gts.append(g)
        feats.append(f)
        good.append(corrupt_teacher(g, [0.05] * classes, seed=200 + i))
        bad.append(corrupt_teacher(g, [0.65] * classes, seed=300 + i))
    return gts, feats, good, bad


def with_extra_dim(feats):
    """``feats`` with one more, all-zero feature dimension."""
    return FeatureMap(np.pad(feats.values, ((0, 0), (0, 0), (0, 1))))


class TestSelectionProtocol:
    def test_single_teacher_gives_identity_policy(self):
        _, feats, good, _ = protocol_inputs()
        cfg = TrainConfig(iterations=60, seed=0)
        policy = certainty_policy([good], feats, cfg)
        assert (policy.assignment == 0).all()

    def test_accurate_teacher_wins_most_classes(self):
        _, feats, good, bad = protocol_inputs()
        cfg = TrainConfig(iterations=120, seed=0)
        policy = certainty_policy([good, bad], feats, cfg)
        picked_good = (policy.assignment == 0).sum()
        assert picked_good > policy.num_classes / 2

    def test_identical_teachers_tie_deterministically(self):
        _, feats, good, _ = protocol_inputs(1)
        cfg = TrainConfig(iterations=60, seed=0)
        rhos = [measure_teacher(m, feats, cfg) for m in (good, list(good))]
        assert (select_certainty(rhos).assignment == 0).all()
        np.testing.assert_array_equal(rhos[0].per_class, rhos[1].per_class)

    def test_needs_two_images(self):
        _, feats, good, _ = protocol_inputs()
        with pytest.raises(ValueError):
            measure_teacher(good[:1], feats[:1], TrainConfig(seed=0))

    def test_teacher_maps_must_match_feature_size(self):
        _, feats, good, _ = protocol_inputs()
        small = [LabelMap(lm.values[:12, :12], lm.num_classes) for lm in good]
        with pytest.raises(ValueError, match="dimensions differ"):
            certainty_policy([small, good], feats, TrainConfig(seed=0))

    def test_measurement_split_is_the_first_share_of_the_images(self):
        # 500 of Cityscapes' 2,975; at least one image, and one left to train on
        sizes = [2, 3, 6, 9, 12, 2975]
        assert [_measure_split(n) for n in sizes] == [1, 1, 1, 2, 2, 500]

    def test_never_reads_the_measurement_split_labels(self):
        _, feats, good, bad = protocol_inputs(2)
        cfg = TrainConfig(iterations=60, seed=0)
        # the measurement share of 4 images holds out image 0 only
        swapped = bad[:1] + good[1:]
        assert (bad[0].values != good[0].values).any()
        rho = measure_teacher(good, feats, cfg)
        rho2 = measure_teacher(swapped, feats, cfg)
        np.testing.assert_array_equal(rho.per_class, rho2.per_class)
        # while the training split's labels do reach rho
        rho3 = measure_teacher(good[:1] + bad[1:], feats, cfg)
        assert not np.array_equal(rho.per_class, rho3.per_class, equal_nan=True)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda f, pms, cfg: train_student(f[0], pms[0], cfg), "LabelMap"),
            (lambda f, pms, cfg: train_student(f, pms, cfg), "LabelMap"),
            (lambda f, pms, cfg: ce_loss_and_grads(certain_model(4, 0), f[0], pms[0]), "LabelMap"),
            (lambda f, pms, cfg: ce_loss_and_grads(certain_model(4, 0), f, pms), "LabelMap"),
            (lambda f, pms, cfg: measure_teacher(pms[0], f, cfg), "LabelMap"),
            (lambda f, pms, cfg: measure_teacher(pms, f, cfg), "LabelMap"),
            (lambda f, pms, cfg: measure_teacher([unify(p) for p in pms[1:]], f, cfg),
             "^member has 3 label maps for 4 images$"),
            (lambda f, pms, cfg: measure_teacher(
                [unify(p) for p in pms], [with_extra_dim(f[0])] + f[1:], cfg),
             "^feature dim 5 does not match model dim 4$"),
            (lambda f, pms, cfg: select_certainty([]), "at least one teacher report"),
        ],
        ids=["train_single", "train_list", "ce_single", "ce_list",
             "measure_single", "measure_list", "measure_count", "measure_dims",
             "empty_ensemble"],
    )
    def test_bad_members_are_a_value_error(self, call, match, monkeypatch):
        def no_training(*args):
            raise AssertionError("measure_teacher trained before it checked its inputs")

        # The train cases call the imported train_student; measure_teacher
        # looks it up in its module, so no bad member may reach training.
        monkeypatch.setattr(distill, "train_student", no_training)
        gts, feats, _, _ = protocol_inputs()
        probs = [soften(corrupt_teacher(g, [0.05] * 4, seed=i), 0.5)
                 for i, g in enumerate(gts)]
        with pytest.raises(ValueError, match=match):
            call(feats, probs, TrainConfig(iterations=5, seed=0))


def _model(classes=2, dims=2):
    return ToyStudent(np.zeros((classes, dims)), np.zeros(classes))


def _feats(h=2, w=2, dims=2):
    return FeatureMap(np.zeros((h, w, dims)))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ToyStudent(np.zeros((3, 2)), np.zeros(2)),
                 "weights must be |C| x d and bias |C|", id="student-shapes"),
    pytest.param(lambda: ToyStudent(np.zeros(3), np.zeros(3)),
                 "weights must be |C| x d and bias |C|", id="student-rank"),
    pytest.param(lambda: ToyStudent(np.full((2, 2), np.inf), np.zeros(2)),
                 "student parameters must be finite", id="student-inf-weight"),
    pytest.param(lambda: ToyStudent(np.zeros((2, 2)), np.array([0.0, np.nan])),
                 "student parameters must be finite", id="student-nan-bias"),
    pytest.param(lambda: average_fuse([ProbMap(np.full((2, 2, 2), 0.5)),
                                       ProbMap(np.full((2, 3, 2), 0.5))]),
                 "teacher shapes differ: (2, 3, 2) vs (2, 2, 2)", id="average-shapes"),
    pytest.param(lambda: train_student([_feats(), _feats()],
                                       [LabelMap(np.zeros((2, 2), np.uint8), 2)], TrainConfig()),
                 "need equally many (>=1) feature and label maps", id="train-counts"),
    pytest.param(lambda: ce_loss_and_grads(_model(3), _feats(),
                                           LabelMap(np.zeros((2, 2), np.uint8), 2)),
                 "label class count does not match the model", id="ce-classes"),
    pytest.param(lambda: kl_loss_and_grads(_model(), _feats(), ProbMap(np.full((2, 3, 2), 0.5))),
                 "feature and target dimensions differ", id="kl-grid"),
    pytest.param(lambda: kl_loss_and_grads(_model(3), _feats(), ProbMap(np.full((2, 2, 2), 0.5))),
                 "target class count does not match the model", id="kl-classes"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
