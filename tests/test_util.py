import ast
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from segfuse import fileio, util
from segfuse.cli import main
from segfuse.core import FeatureMap
from segfuse.distill import TrainConfig, train_student
from segfuse.policy import select_random
from segfuse.synth import corrupt_teacher, gen_ground_truth, soften
from segfuse.unify import unify
from segfuse.util import cores, on_threads

from helpers import owners, random_labelmap


class TestOnThreads:
    """``on_threads`` gives a loop's results and its first error, on threads
    it always joins."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_results_come_back_in_item_order(self, workers):
        calls = []

        def fn(w, item):
            calls.append((w, item, threading.get_ident()))
            return item * item

        assert on_threads(fn, range(5), workers) == [0, 1, 4, 9, 16]
        used = min(workers, 5)
        assert sorted((item, w) for w, item, _ in calls) == [(i, i % used) for i in range(5)]
        # worker 0 runs on the calling thread, the others on threads of their own
        assert {w for w, _, ident in calls if ident == threading.get_ident()} == {0}
        assert all(len({ident for v, _, ident in calls if v == w}) == 1 for w in range(used))

    def test_no_items_run_nothing(self):
        assert on_threads(lambda w, item: 1 / 0, [], 2) == []

    def test_the_lowest_failing_item_is_raised(self):
        # worker 0 takes items 0, 2, 4 and worker 1 items 1, 3, 5; item 3
        # fails first in time, item 0 later: item 0's error is raised
        three_failed, calls = threading.Event(), []

        def fn(w, item):
            calls.append(item)
            if item == 3:
                three_failed.set()
                raise KeyError(3)
            if item == 0:
                assert three_failed.wait(30)
                raise ValueError("item 0")
            return item

        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="^item 0$"):
            on_threads(fn, range(6), 2)
        # each worker stopped at its first failure and every thread is joined
        assert sorted(calls) == [0, 1, 3]
        assert set(threading.enumerate()) <= before

    def test_a_failure_ends_the_run_after_the_current_items(self):
        # worker 0 takes items 0, 2, 4, 6 and worker 1 items 1, 3, 5, 7;
        # item 0 fails at once, so worker 1 takes no item after item 1
        # (nor item 1 itself, where it starts after the failure)
        calls = []

        def fn(w, item):
            calls.append(item)
            if item == 0:
                raise ValueError("item 0")
            time.sleep(1)
            return item

        start = time.perf_counter()
        with pytest.raises(ValueError, match="^item 0$"):
            on_threads(fn, range(8), 2)
        assert time.perf_counter() - start < 3  # 4 s when every item ran
        assert sorted(calls) in ([0], [0, 1])

    def test_every_item_below_the_lowest_failure_runs(self):
        # More workers than cores, switching threads often, several items
        # failing: the lowest failure is raised and no item below it is
        # skipped, whichever failure is recorded first.
        rng = np.random.default_rng(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                failing = set(rng.choice(60, size=3, replace=False).tolist())
                calls = []

                def fn(w, item):
                    calls.append(item)
                    if item in failing:
                        raise ValueError(item)
                    return item

                with pytest.raises(ValueError) as raised:
                    on_threads(fn, range(60), 7)
                assert raised.value.args == (min(failing),)
                assert set(range(min(failing) + 1)) <= set(calls)
        finally:
            sys.setswitchinterval(interval)


class TestCores:
    """``cores`` counts the cores a process may use, where the OS has no
    affinity call too, and every pool runs there."""

    def test_the_affinity_where_the_os_has_one(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("this OS reports no CPU affinity")
        assert cores() == len(os.sched_getaffinity(0))

    def test_the_cpu_count_where_the_os_has_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert cores() == 1

    def test_fusion_and_training_run_without_the_affinity_call(self, tmp_path, monkeypatch):
        gt, _ = gen_ground_truth(16, 16, 3, region_scale=4, seed=0)
        paths = [tmp_path / f"t{i}.lmap" for i in range(3)]
        for i, p in enumerate(paths):
            p.write_bytes(fileio.write_labelmap(unify(soften(corrupt_teacher(
                gt, [0.2] * 3, seed=i), 1.0))))
        (tmp_path / "p.json").write_text(fileio.policy_to_json(select_random(3, 3, seed=0)))
        labels = random_labelmap(np.random.default_rng(0), 40_000, 1, 3, unlabeled_frac=0.0)
        feats = FeatureMap(np.random.default_rng(1).normal(size=(40_000, 1, 3)))
        want = train_student(feats, labels, TrainConfig(iterations=2)).losses

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        out = tmp_path / "out.lmap"
        assert main(["fuse-channel", *map(str, paths), "--policy", str(tmp_path / "p.json"),
                     "-o", str(out)]) == 0
        assert out.stat().st_size > 0
        got = train_student(feats, labels, TrainConfig(iterations=2)).losses  # 4 row blocks
        assert got.tobytes() == want.tobytes()


class TestWorkers:
    """``workers`` gives one thread per core, at most one per item, and one
    where BLAS cannot be pinned."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_per_core_and_item(self, monkeypatch, cores):
        monkeypatch.setattr(util, "cores", lambda: cores)
        got = [util.workers(items) for items in (0, 1, 2, 5)]
        pinned = util._openblas() is not None
        assert got == [1, 1, min(cores, 2) if pinned else 1, cores if pinned else 1]


def test_one_thread_pool_and_one_core_count():
    # The CE blocks, the member reads and the member measurements share one
    # pool, one core count and one BLAS pin; a pool of its own would need
    # its own error order and join, a core count of its own its own
    # portability, and a pin of its own its own depth count and lock.
    assert owners({"Thread"}) == [("util", "on_threads")]
    assert owners({"sched_getaffinity"}) == [("util", "cores")]
    assert owners({"CDLL"}) == [("util", "_openblas")]


class TestRowBlock:
    """``RowBlock`` fits whole rows in about ``_BLOCK_BYTES``, at least one,
    and cuts n rows into such blocks, the last one short."""

    @pytest.mark.parametrize("row_bytes, rows", [
        (1, util._BLOCK_BYTES), (76, util._BLOCK_BYTES // 76), (util._BLOCK_BYTES, 1),
        (util._BLOCK_BYTES + 1, 1), (0, util._BLOCK_BYTES)])
    def test_rows_fit_the_block(self, row_bytes, rows):
        assert util.RowBlock(row_bytes).rows == rows

    @pytest.mark.parametrize("n", [0, 1, 6898, 6899, 20695])
    def test_cuts_cover_the_rows_in_order(self, n):
        block = util.RowBlock(76)  # 6,898 rows
        cuts = block.cuts(n)
        assert [r for c in cuts for r in range(n)[c]] == list(range(n))
        assert all(c.stop - c.start == block.rows for c in cuts)
        assert len(cuts) == -(-n // block.rows)


def test_the_block_size_has_one_owner():
    # _BLOCK_BYTES is assigned once, in util, and read there by RowBlock
    # alone: a module that cut its own blocks from it would cut apart from
    # the one rule again.
    assert owners({"_BLOCK_BYTES"}) == [("util", "<module>"), ("util", "__init__")]
    tree = ast.parse(Path(util.__file__).read_text(encoding="utf-8"))
    assert sum(isinstance(node, ast.Name) and node.id == "_BLOCK_BYTES"
               and isinstance(node.ctx, ast.Store) for node in ast.walk(tree)) == 1
