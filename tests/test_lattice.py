import numpy as np
import pytest

from hqc import LatticeFn, LatticeGrid, diff_r, seminorm

from oracles import average_r, dual_norm_lp, dual_seminorm_neg1, project_zero_mean


def fn(values, p=1):
    values = np.asarray(values, dtype=float)
    return LatticeFn(LatticeGrid(values.size, p), values)


def rand_fn(rng, N):
    return fn(rng.standard_normal(N))


class TestGrid:
    def test_eps_times_N_is_one(self):
        for N in (2, 7, 64):
            assert LatticeGrid(N).eps * N == 1.0

    def test_period_must_divide(self):
        with pytest.raises(ValueError):
            LatticeGrid(10, 4)
        with pytest.raises(ValueError):
            LatticeGrid(1)

    def test_species_pattern(self):
        g = LatticeGrid(6, 3)
        assert list(g.species()) == [0, 1, 2, 0, 1, 2]


class TestDiffAverage:
    def test_forward_difference_with_wrap(self):
        u = fn([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(diff_r(u, 1).values, [-4.0, 0.0, 0.0, 4.0])
        assert np.allclose(diff_r(u, 2).values, [-2.0, 0.0, 2.0, 0.0])

    def test_constants_annihilated(self):
        u = fn(3.7 * np.ones(8))
        for r in (1, 2, -3):
            assert np.abs(diff_r(u, r).values).max() == 0.0

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            diff_r(fn([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            average_r(fn([1.0, 2.0]), 0)

    def test_two_point_average(self):
        u = fn([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(average_r(u, 2).values, [0.5, 0.0, 0.0, 0.5])
        assert np.allclose(average_r(u, 1).values, u.values)

    def test_diff_r_factorizes_through_average(self):
        # D_r = A_r D, checked on random data up to r = 8
        rng = np.random.default_rng(11)
        for N in (8, 17, 64):
            u = rand_fn(rng, N)
            for r in range(1, 9):
                lhs = diff_r(u, r).values
                rhs = average_r(diff_r(u, 1), r).values
                scale = max(1.0, np.abs(lhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-13 * scale

    def test_averaging_contracts(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = rand_fn(rng, 32)
            for r in range(1, 9):
                for q in (1, 2, np.inf):
                    lhs = seminorm(average_r(diff_r(u, 1), r), 0, q)
                    assert lhs <= seminorm(u, 1, q) + 1e-13

    def test_multistep_derivative_error_bound(self):
        # ||D_r v - D v||_q <= (eps/2) (r-1) ||D^2 v||_q
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rand_fn(rng, 48)
            for r in range(2, 9):
                diff = fn(diff_r(u, r).values - diff_r(u, 1).values)
                for q in (1, 2, np.inf):
                    bound = 0.5 * (1 / 48) * (r - 1) * seminorm(u, 2, q)
                    assert seminorm(diff, 0, q) <= bound + 1e-12


class TestProjectionInner:
    def test_subtract_mean(self):
        assert np.allclose(
            project_zero_mean(fn([1.0, 2.0, 3.0, 4.0])).values, [-1.5, -0.5, 0.5, 1.5]
        )

    def test_idempotent_and_kills_constants(self):
        u = fn([0.5, -0.5, 0.25, -0.25])
        assert np.allclose(project_zero_mean(u).values, u.values)
        assert np.abs(project_zero_mean(fn(2.0 * np.ones(5))).values).max() == 0.0

    def test_inner_examples(self):
        # the 2-norm is the one of the mean-scaled pairing (1/N) u.v
        u = fn([1.0, -2.0, 0.5, 3.0])
        assert u.values @ u.values / 4 == pytest.approx(seminorm(u, 0, 2) ** 2, rel=1e-14)


class TestSeminorms:
    def test_examples(self):
        assert seminorm(fn([-1.5, -0.5, 0.5, 1.5]), 0, np.inf) == 1.5
        assert seminorm(fn([1.0, 0.0, 0.0, 0.0]), 1, 1) == pytest.approx(2.0)
        assert seminorm(fn(np.ones(4)), 0, 2) == pytest.approx(1.0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            seminorm(fn([1.0, -1.0]), -1, np.inf)

    def test_poincare_bound(self):
        # ||u||_inf <= 0.5 |u|_{1,1} <= 0.5 |u|_{1,inf} for zero-mean u
        rng = np.random.default_rng(14)
        for _ in range(30):
            u = project_zero_mean(rand_fn(rng, 24))
            assert seminorm(u, 0, np.inf) <= 0.5 * seminorm(u, 1, 1) + 1e-13
            assert seminorm(u, 1, 1) <= seminorm(u, 1, np.inf) + 1e-13


class TestDualSeminorm:
    def test_zero(self):
        assert dual_seminorm_neg1(fn(np.zeros(4))) == 0.0

    def test_alternating_example(self):
        assert dual_seminorm_neg1(fn([1.0, -1.0, 1.0, -1.0])) == pytest.approx(0.125)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(15)
        u = project_zero_mean(rand_fn(rng, 12))
        two = fn(2.0 * u.values)
        assert dual_seminorm_neg1(two) == pytest.approx(2 * dual_seminorm_neg1(u), rel=1e-13)

    def test_requires_zero_mean(self):
        with pytest.raises(ValueError):
            dual_seminorm_neg1(fn([1.0, 1.0, 0.0]))

    def test_against_lp_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            N = int(rng.integers(3, 17))
            u = project_zero_mean(rand_fn(rng, N))
            assert dual_seminorm_neg1(u) == pytest.approx(dual_norm_lp(u.values), abs=1e-10)

    def test_gradient_pairing_lower_bound(self):
        # sup <u, Dv> over |v|_{1,1} = 1 dominates half the sup norm; the
        # functional's lattice representer is -T^{-1} D u
        rng = np.random.default_rng(17)
        for _ in range(30):
            u = project_zero_mean(rand_fn(rng, 20))
            rep = fn(-np.roll(diff_r(u, 1).values, 1))
            assert dual_seminorm_neg1(rep) >= 0.5 * seminorm(u, 0, np.inf) - 1e-13
