"""Experiment-driver behavior on a small fast benchmark."""

import sys
import threading
import weakref

import numpy as np
import pytest

from segfuse import distill, experiments, util
from segfuse.cli import main

from segfuse.distill import (
    TrainConfig,
    _certainty,
    _unlabeled,
    average_fuse,
    measure_teacher,
    student_labels,
    train_student,
)
from segfuse.experiments import (
    certainty_hist,
    correlation,
    flexibility,
    kernel_sweep,
    policy_quality,
    prop_checks,
    robustness,
)
from segfuse.metrics import dataset_iou
from segfuse.fusion import channel_fuse, pixel_fuse
from segfuse.synth import (
    UNDERPERFORMER_TEMPERATURE,
    BenchmarkConfig,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from segfuse.unify import unify
from segfuse.util import rows_to_csv

from helpers import certainty_policy, student_map

FAST = BenchmarkConfig(
    height=24, width=24, classes=4, num_teachers=3, images=3, region_scale=5
)
TC = TrainConfig(iterations=60, seed=0)


class TestKernelSweep:
    def test_gain_at_one_is_exactly_zero(self):
        header, rows = kernel_sweep(FAST, [1, 3, 5], 0, 3)
        for kappa, seed, miou, gain in rows:
            if kappa == 1:
                assert gain == 0.0

    def test_matches_manual_fuse_eval_per_kappa(self):
        from segfuse.policy import select_random

        header, rows = kernel_sweep(FAST, [1, 5], 7, 1)
        bench = make_benchmark(FAST, 7)
        unified = bench.teacher_labels
        policy = select_random(FAST.classes, FAST.num_teachers, 7)
        for kappa, seed, miou, gain in rows:
            fused = [
                channel_fuse([u[i] for u in unified], policy, kappa)
                for i in range(FAST.images)
            ]
            assert miou == dataset_iou(fused, bench.gts).miou

    def test_requires_baseline_kappa(self):
        with pytest.raises(ValueError):
            kernel_sweep(FAST, [3, 5], 0, 1)

    def test_checks_every_kappa_before_any_seed(self, monkeypatch):
        from segfuse import experiments

        def no_benchmark(*args):
            raise AssertionError("built a benchmark before checking the kappas")

        monkeypatch.setattr(experiments, "make_benchmark", no_benchmark)
        with pytest.raises(ValueError, match="kappa must be odd and >= 1, got 2"):
            kernel_sweep(FAST, [1, 3, 2], 0, 1)


class TestRobustness:
    def test_k_zero_evaluates_clean_ensemble(self):
        header, rows = robustness(FAST, [0], 0, 1, TC)
        methods = {method for k, method, seed, miou in rows}
        assert methods == {"pixel", "channel_certainty", "average"}

    def test_channel_curve_flat_when_policy_avoids_underperformers(self):
        header, rows = robustness(FAST, [0, 2], 0, 2, TC)
        # verify the certainty policy indeed never selects an appended bad
        # teacher, then the fused mIoU must be identical across k
        for seed in (0, 1):
            bench = make_benchmark(FAST, seed)
            bad = make_underperformer_maps(bench.gts, seed)
            members = list(bench.teacher_labels) + [bad] * 2
            policy = certainty_policy(members, bench.feats, TC)
            assert (policy.assignment < FAST.num_teachers).all()
        by = {}
        for k, method, seed, miou in rows:
            if method == "channel_certainty":
                by.setdefault(seed, {})[k] = miou
        for seed, vals in by.items():
            assert vals[0] == vals[2]

    def test_unifies_only_the_average_rows(self, monkeypatch):
        from segfuse import experiments

        calls = []
        monkeypatch.setattr(
            experiments, "unify", lambda pm: calls.append(1) or unify(pm)
        )
        bad_counts, seeds = [0, 1, 2], 2
        robustness(FAST, bad_counts, 0, seeds, TC)
        # every member is labels; only the averaged probabilities are argmaxed
        assert len(calls) == seeds * len(bad_counts) * FAST.images

    def test_softens_one_image_at_a_time(self, monkeypatch):
        # at most the teachers and the under-performer of one image
        refs, alive = [], []

        def tracked_soften(labels, temperature):
            pm = soften(labels, temperature)
            refs.append(weakref.ref(pm))
            alive.append(sum(r() is not None for r in refs))
            return pm

        monkeypatch.setattr(experiments, "soften", tracked_soften)
        robustness(FAST, [0, 1, 3], 0, 2, TC)
        assert len(refs) == 2 * FAST.images * (FAST.num_teachers + 1)
        assert max(alive) == FAST.num_teachers + 1

    @pytest.mark.parametrize("bad_counts", ["3,1", "0,2,5"])
    def test_csv_at_gapped_counts_is_the_reference(self, tmp_path, bad_counts):
        # the reference softens every image's members before averaging
        flags = ["--height", "24", "--width", "24", "--classes", "4", "--teachers", "3",
                 "--images", "3", "--region-scale", "5", "--blob-scale", "4"]
        out = tmp_path / "robustness.csv"
        assert main(["experiment", "robustness", *flags, "--bad-counts", bad_counts,
                     "--seed", "0", "--seeds", "2", "--iterations", "60", "-o", str(out)]) == 0
        counts = sorted(int(k) for k in bad_counts.split(","))
        want = robustness_reference(FAST, counts, 0, 2, TC)
        assert out.read_text() == rows_to_csv(["bad_count", "method", "seed", "miou"], want)

    def test_pixel_fusion_degrades_with_bad_members(self):
        header, rows = robustness(FAST, [0, 3], 0, 3, TC)
        px = {k: [] for k in (0, 3)}
        for k, method, seed, miou in rows:
            if method == "pixel":
                px[k].append(miou)
        assert np.mean(px[3]) < np.mean(px[0])


def fuse_channel(unified, policy):
    return [channel_fuse([u[i] for u in unified], policy, 13) for i in range(len(unified[0]))]


def robustness_reference(config, bad_counts, base_seed, num_seeds, tc):
    """Every member trained again for every k, through the full protocol."""
    rows = []
    for seed in range(base_seed, base_seed + num_seeds):
        bench = make_benchmark(config, seed)
        bad = make_underperformer_maps(bench.gts, seed)
        members = zip((*bench.teacher_labels, bad),
                      (*bench.temperatures, UNDERPERFORMER_TEMPERATURE))
        *good, bad_probs = [[soften(m, temp) for m in maps] for maps, temp in members]
        for k in bad_counts:
            probs = good + [bad_probs] * k
            unified = list(bench.teacher_labels) + [bad] * k
            pixel = [pixel_fuse([u[i] for u in unified]) for i in range(config.images)]
            policy = certainty_policy(unified, bench.feats, tc)
            averaged = [
                unify(average_fuse([p[i] for p in probs])) for i in range(config.images)
            ]
            rows += [
                (k, "pixel", seed, dataset_iou(pixel, bench.gts).miou),
                (k, "channel_certainty", seed,
                 dataset_iou(fuse_channel(unified, policy), bench.gts).miou),
                (k, "average", seed, dataset_iou(averaged, bench.gts).miou),
            ]
    return rows


def flexibility_reference(config, rounds, seed, tc):
    """The full protocol rerun over the whole ensemble every round."""
    bench = make_benchmark(config, seed)
    ensemble = [list(maps) for maps in bench.teacher_labels]
    rows = []
    for r in range(1, rounds + 1):
        policy = certainty_policy(ensemble, bench.feats, tc)
        student = train_student(list(bench.feats), fuse_channel(ensemble, policy), tc).model
        preds = [unify(student_map(student, f)) for f in bench.feats]
        rows.append((r, len(ensemble), dataset_iou(preds, bench.gts).miou))
        ensemble = ensemble + [preds]
    return rows


class TestMeasureOnce:
    """Drivers that measure each distinct member once match a full rerun."""

    def test_robustness_matches_per_k_protocol(self):
        header, rows = robustness(FAST, [0, 1, 3], 0, 2, TC)
        assert rows == robustness_reference(FAST, [0, 1, 3], 0, 2, TC)

    def test_flexibility_matches_full_protocol_each_round(self):
        header, rows = flexibility(FAST, 3, 0, TC)
        assert rows == flexibility_reference(FAST, 3, 0, TC)

    def test_measure_teacher_rho_is_the_held_out_students_certainty(self):
        bench = make_benchmark(FAST, 0)
        for labels in bench.teacher_labels:
            rho = measure_teacher(labels, bench.feats, config=TC)
            # FAST's 3 images hold out image 0: the student trains on 1 and 2
            student = train_student(bench.feats[1:], labels[1:], TC).model
            want = _certainty(student, _unlabeled(bench.feats[:1], student.feature_dims)).per_class
            assert np.array_equal(rho.per_class, want, equal_nan=True)


class TestUnifyOnce:
    """A driver unifies each map once and labels each image once per
    student: fusion and measurement share the labels, measuring rho unifies
    no map, and a student's labels come from ``student_labels``."""

    @pytest.mark.parametrize(
        "driver, unifies, labeled",
        [
            (lambda: robustness(FAST, [0, 1, 2], 0, 1, TC), True, 0),
            (lambda: flexibility(FAST, 3, 0, TC), False, 3 * FAST.images),
            (lambda: policy_quality(FAST, 0, 1, TC), False, 0),
            (lambda: correlation(FAST, 0, 1, TC), False, 0),
        ],
        ids=["robustness", "flexibility", "policy_quality", "correlation"],
    )
    def test_no_map_is_unified_twice(self, monkeypatch, driver, unifies, labeled):
        from segfuse import distill, experiments

        seen, calls = [], []  # strong references, so no id is reused during the run

        def recording_unify(pm):
            seen.append(pm)
            return unify(pm)

        def recording_labels(model, feats):
            calls.append((model, feats))
            return student_labels(model, feats)

        monkeypatch.setattr(experiments, "unify", recording_unify)
        monkeypatch.setattr(distill, "unify", recording_unify, raising=False)
        monkeypatch.setattr(experiments, "student_labels", recording_labels)
        driver()
        repeats = len(seen) - len({id(pm) for pm in seen})
        assert bool(seen) == unifies
        assert repeats == 0
        assert len({(id(m), id(f)) for m, f in calls}) == len(calls) == labeled


DRIVERS = {
    "robustness": lambda: robustness(FAST, [0, 1, 2], 0, 2, TC),
    "flexibility": lambda: flexibility(FAST, 3, 0, TC),
    "policy_quality": lambda: policy_quality(FAST, 0, 2, TC),
    "correlation": lambda: correlation(FAST, 0, 2, TC),
}


def robustness_members(seed):
    """The members ``robustness`` measures for ``seed``: the teachers, then ``bad``."""
    bench = make_benchmark(FAST, seed)
    return [*bench.teacher_labels, make_underperformer_maps(bench.gts, seed)]


class TestMemberPool:
    """The drivers measure their members on one thread per core: the rows
    and errors are those of one thread, and every thread is joined."""

    @pytest.mark.parametrize("name", DRIVERS)
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, name):
        measuring, measure = [], measure_teacher

        def spying(*args, **kwargs):
            measuring.append(threading.get_ident())
            return measure(*args, **kwargs)

        monkeypatch.setattr(experiments, "measure_teacher", spying)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often
        try:
            runs = {}
            for cores in (1, 2):
                monkeypatch.setattr(util, "cores", lambda: cores)
                measuring.clear()
                runs[cores] = DRIVERS[name]()
                assert len(set(measuring)) == (cores if distill._openblas() else 1)
        finally:
            sys.setswitchinterval(interval)
        assert runs[2] == runs[1]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_the_first_failing_member_is_raised(self, monkeypatch, cores):
        # On 3 workers, worker 0 takes members 0 and 3, worker 1 member 1:
        # member 3 fails first, then member 1, whose error is the one raised.
        members, measure = robustness_members(0), measure_teacher
        three_failed = threading.Event()
        workers = cores if distill._openblas() else 1

        def failing(labels, *args, **kwargs):
            member = next(i for i, m in enumerate(members)
                          if np.array_equal(m[0].values, labels[0].values))
            if member == 3:
                three_failed.set()
                raise RuntimeError("member 3 failed")
            if member == 1:
                assert workers < 3 or three_failed.wait(30)
                raise ValueError("member 1 failed")
            return measure(labels, *args, **kwargs)

        monkeypatch.setattr(experiments, "measure_teacher", failing)
        monkeypatch.setattr(util, "cores", lambda: cores)
        with pytest.raises(ValueError, match="^member 1 failed$"):
            robustness(FAST, [0], 0, 1, TC)

    @pytest.mark.parametrize("member", [0, 1])
    def test_a_failing_member_is_joined(self, monkeypatch, member):
        # member 0 is measured on the calling thread, member 1 on a worker
        members, measure = robustness_members(0), measure_teacher

        def failing(labels, *args, **kwargs):
            if np.array_equal(members[member][0].values, labels[0].values):
                raise RuntimeError(f"member {member} failed")
            return measure(labels, *args, **kwargs)

        monkeypatch.setattr(experiments, "measure_teacher", failing)
        monkeypatch.setattr(util, "cores", lambda: 2)
        before, errors = set(threading.enumerate()), []

        def run():
            try:
                robustness(FAST, [0], 0, 1, TC)
            except RuntimeError as e:
                errors.append(str(e))

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        assert errors == [f"member {member} failed"]
        assert set(threading.enumerate()) <= before


class TestFlexibility:
    def test_rounds_grow_the_ensemble(self):
        header, rows = flexibility(FAST, 2, 0, TC)
        assert [r[0] for r in rows] == [1, 2]
        assert rows[1][1] == rows[0][1] + 1

    def test_unifies_each_map_once(self, monkeypatch):
        from segfuse import experiments

        unified, labeled = [], []
        monkeypatch.setattr(
            experiments, "unify", lambda pm: unified.append(1) or unify(pm)
        )
        monkeypatch.setattr(
            experiments, "student_labels",
            lambda model, f: labeled.append(1) or student_labels(model, f),
        )
        rounds = 3
        flexibility(FAST, rounds, 0, TC)
        # teachers start as labels, and each round's student labels each
        # image once without a probability map to unify
        assert len(unified) == 0
        assert len(labeled) == rounds * FAST.images

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            flexibility(FAST, 0, 0, TC)


class TestCertaintyHist:
    def test_checks_bins_before_the_benchmark(self, monkeypatch):
        from segfuse import experiments

        def no_benchmark(*args):
            raise AssertionError("built a benchmark before checking the bins")

        monkeypatch.setattr(experiments, "make_benchmark", no_benchmark)
        for bins in (0, int(np.iinfo(np.intp).max)):
            with pytest.raises(ValueError, match="bins must be"):
                certainty_hist(FAST, 0, bins)


class TestPropChecks:
    def test_rows_are_json_ready_and_satisfied(self):
        results = prop_checks(10, 0)
        assert len(results) == 20
        for r in results:
            assert r["precondition_met"] is True
            assert set(r) >= {"prop", "seed"}
