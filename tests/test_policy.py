import numpy as np
import pytest

from segfuse.policy import select_certainty, select_oracle, select_random

from helpers import reports_from_matrix


class TestSelectRandom:
    def test_single_teacher_maps_everything_to_zero(self):
        p = select_random(6, 1, seed=3)
        assert (p.assignment == 0).all()

    def test_same_seed_same_policy(self):
        a = select_random(10, 4, seed=123)
        b = select_random(10, 4, seed=123)
        assert np.array_equal(a.assignment, b.assignment)

    def test_different_seeds_differ(self):
        a = select_random(32, 4, seed=1)
        b = select_random(32, 4, seed=2)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_uniform_frequencies(self):
        # 10^5 draws over 4 teachers: each frequency within 3 sigma of 0.25
        draws = select_random(100_000, 4, seed=7).assignment
        freqs = np.bincount(draws, minlength=4) / draws.size
        sigma = np.sqrt(0.25 * 0.75 / draws.size)
        assert (np.abs(freqs - 0.25) < 3 * sigma).all()

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            select_random(0, 2, seed=0)


class TestSelectOracle:
    """Cases for the per-class argmax body that both report selectors share."""

    select = staticmethod(select_oracle)
    kind = "per-class IoU"

    def test_dominant_diagonal(self):
        phi = np.array([[0.9, 0.1], [0.2, 0.8]])
        p = self.select(reports_from_matrix(phi))
        assert p.assignment.tolist() == [0, 1]

    def test_identical_columns_tie_to_teacher_zero(self):
        phi = np.array([[0.5, 0.5], [0.3, 0.3]])
        p = self.select(reports_from_matrix(phi))
        assert p.assignment.tolist() == [0, 0]

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        phi = rng.random((8, 5))
        p = self.select(reports_from_matrix(phi))
        for c in range(8):
            best, best_v = 0, phi[c, 0]
            for t in range(1, 5):
                if phi[c, t] > best_v:
                    best, best_v = t, phi[c, t]
            assert p.assignment[c] == best

    def test_undefined_ranks_below_defined(self):
        phi = np.array([[np.nan, 0.1]])
        p = self.select(reports_from_matrix(phi))
        assert p.assignment[0] == 1

    def test_all_undefined_warns_and_defaults(self):
        phi = np.array([[np.nan, np.nan], [0.4, 0.6]])
        with pytest.warns(UserWarning, match=f"{self.kind} undefined .* teacher 0"):
            p = self.select(reports_from_matrix(phi))
        assert p.assignment.tolist() == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            self.select([])


class TestSelectCertainty(TestSelectOracle):
    """Inherits the oracle's cases (ties, undefined cells) and adds its own."""

    select = staticmethod(select_certainty)
    kind = "student certainty"

    def test_per_row_argmax(self):
        p = select_certainty(reports_from_matrix(np.array([[0.7, 0.9], [0.6, 0.5]])))
        assert p.assignment.tolist() == [1, 0]

    def test_single_teacher_identity(self):
        rhos = reports_from_matrix(np.array([[0.7], [0.2]]))
        assert select_certainty(rhos).assignment.tolist() == [0, 0]

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(11)
        rho = rng.random((6, 4))
        p = select_certainty(reports_from_matrix(rho))
        np.testing.assert_array_equal(p.assignment, rho.argmax(axis=1))

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        rho = rng.random((5, 3)) * 0.5
        base = select_certainty(reports_from_matrix(rho))
        squashed = select_certainty(reports_from_matrix(rho**2))  # strictly increasing
        assert np.array_equal(base.assignment, squashed.assignment)

    def test_policies_are_total_and_in_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = rng.random((7, 3))
            rho[rng.random((7, 3)) < 0.3] = np.nan
            with np.errstate(all="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    p = select_certainty(reports_from_matrix(rho))
            assert p.assignment.shape == (7,)
            assert ((p.assignment >= 0) & (p.assignment < 3)).all()
