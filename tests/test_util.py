import threading

import pytest

from segfuse.util import on_threads


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
