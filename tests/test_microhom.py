import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hqc import (
    DomainError,
    HomogenizedLaw,
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
)
from hqc.exceptions import SolverFailure, StabilityError
from hqc.microhom import (
    _bond_args,
    _cell_maps,
    _flat,
    _reduced_hessian,
    newton_cells,
    warm_start,
)

from oracles import cell_bond_arguments, cell_gradient, cell_hessian, reduce_mat, shell_law


@pytest.fixture(scope="module")
def lj_law():
    return HomogenizedLaw(lj_family([1.0, 9.0 / 8.0], R=3))


def solve_cells(law, z, chi0):
    """Batched cell solve with the law's settings: (chi, residual, iterations)."""
    return newton_cells(law.family, np.atleast_1d(z), chi0, law.tol, law.max_iter)


class TestSolveCell:
    def test_single_species_trivial(self):
        law = HomogenizedLaw(quadratic_family([1.3], [0.0]))
        chi, res, iters = solve_cells(law, 0.2, np.zeros((1, 1)))
        assert chi[0, 0] == 0.0
        assert iters[0] == 0
        assert res[0] == 0.0
        assert law.eval_strains(0.2)[3][0, 0] == 0.0

    def test_quadratic_alternating_strain(self):
        # D chi alternates +-d with d = (k2 - k1) z / (k1 + k2)
        k1, k2, z = 1.0, 2.0, 0.3
        law = HomogenizedLaw(quadratic_family([k1, k2], [0.0, 0.0]))
        chi, res, _ = solve_cells(law, z, np.zeros((1, 2)))
        d = (k2 - k1) * z / (k1 + k2)
        assert np.allclose(np.roll(chi[0], -1) - chi[0], [d, -d], atol=1e-13)
        assert abs(chi[0].mean()) < 1e-13
        assert res[0] <= law.tol
        assert np.abs(law.eval_strains(z)[3] - chi).max() <= 1e-13

    def test_ground_state_is_fixed_point(self, lj_law):
        chi_star = ground_microstructure(lj_law.family).chi_star.values
        chi, _, iters = solve_cells(lj_law, 0.0, chi_star[None, :])
        assert np.abs(chi[0] - chi_star).max() < 1e-12
        assert iters[0] <= 2

    def test_residual_contract(self, lj_law):
        z = np.array([-0.05, 0.0, 0.08])
        chi = lj_law.eval_strains(z)[3]
        g = cell_gradient(lj_law.family, cell_bond_arguments(lj_law.family, z, chi), np.arange(2))
        assert np.abs(g).max() <= lj_law.tol

    def test_inadmissible_strain(self, lj_law):
        with pytest.raises(DomainError, match="^cell at strain -1.2 Newton: inadmissible start"):
            lj_law.eval_strains(-1.2)

    def test_nonconvergence_reported(self):
        law = HomogenizedLaw(lj_family([1.0, 9.0 / 8.0], R=3), max_iter=1)
        with pytest.raises(SolverFailure, match="strain 0.3 "):
            law.eval_strains(0.3)
        with pytest.raises(SolverFailure, match="strains 0.2 to 0.3 "):
            law.eval_strains([0.3, 0.2, 0.25])


class TestJointBatch:
    """A batch is solved jointly, with one step length for every row; on
    stable cells it agrees with the row-by-row solves."""

    @staticmethod
    def check_batch(family, z):
        law = HomogenizedLaw(family)
        chi, res, iters = solve_cells(law, z, np.zeros((z.size, family.p)))
        single = np.vstack([
            solve_cells(law, zi, np.zeros((1, family.p)))[0] for zi in z
        ])
        assert np.abs(chi - single).max() <= 1e-13 * max(1.0, np.abs(single).max())
        assert res.max() <= law.tol
        assert (iters == iters[0]).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 16))
    def test_shipped_family(self, seed, m):
        z = np.random.default_rng(seed).uniform(-0.1, 0.1, size=m)
        self.check_batch(lj_family([1.0, 9.0 / 8.0], R=3), z)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 4), R=st.integers(1, 3), m=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_random_lj_families(self, p, R, m, seed):
        # equilibrium distances >= 1 keep every cell short of the LJ
        # inflection point up to strain 0.1, so each cell is stable
        rng = np.random.default_rng(seed)
        family = lj_family(rng.uniform(1.0, 1.25, size=p), R)
        assume(nn_dominance_margin(family, ground_microstructure(family)) > 0)
        self.check_batch(family, rng.uniform(-0.1, 0.1, size=m))


class TestCellKernel:
    """The shell-stacked kernel against the shell-by-shell loop assembly."""

    @staticmethod
    def cells(p, R, lj, seed):
        rng = np.random.default_rng(seed)
        if lj:
            family = lj_family(rng.uniform(0.8, 1.25, size=p), R)
        else:
            k, a = rng.uniform(0.5, 3.0, size=p), rng.uniform(-0.2, 0.2, size=p)
            family = quadratic_family(k, a, R)
        m = 3
        chi = rng.uniform(-0.1, 0.1, size=(m, p))
        chi -= chi.mean(axis=1, keepdims=True)
        # every bond argument stays >= -0.5, admissible for both families
        z = rng.uniform(-0.3, 0.3, size=m)
        return family, z, chi

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 5), R=st.integers(1, 4), lj=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_assembly(self, p, R, lj, seed):
        family, z, chi = self.cells(p, R, lj, seed)
        y = np.arange(p)
        maps = _cell_maps(p, R)
        a = _bond_args(maps, z, chi)
        args = cell_bond_arguments(family, z, chi)
        stacked = np.stack([args[r] for r in range(1, R + 1)], axis=1)
        assert a.shape == (z.size, R, p)
        assert np.abs(a - stacked).max() <= 1e-13 * max(1.0, np.abs(stacked).max())

        g = _flat(family.bonds(a, 1)) @ maps.Dp
        g_ref = cell_gradient(family, args, y)
        scale = max(np.abs(shell_law(family, 1, r, v, y)).max() for r, v in args.items())
        assert np.abs(g - g_ref).max() <= 1e-13 * scale

        H = _reduced_hessian(maps, _flat(family.bonds(a, 2)))
        H_ref = reduce_mat(cell_hessian(family, args, y))
        scale = max(np.abs(shell_law(family, 2, r, v, y)).max() for r, v in args.items())
        assert np.abs(H - H_ref).max() <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(2, 5), R=st.integers(1, 4), lj=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_hessian_is_derivative_of_gradient(self, p, R, lj, seed):
        family, z, chi = self.cells(p, R, lj, seed)
        maps = _cell_maps(p, R)
        H = _reduced_hessian(maps, _flat(family.bonds(_bond_args(maps, z, chi), 2)))

        def reduced_gradient(field):
            return _flat(family.bonds(_bond_args(maps, z, field), 1)) @ maps.Dp @ maps.E

        step = 1e-5
        for k in range(p - 1):
            fd = (reduced_gradient(chi + step * maps.E[:, k])
                  - reduced_gradient(chi - step * maps.E[:, k])) / (2 * step)
            assert np.abs(fd - H[:, :, k]).max() <= 1e-6 * np.abs(H).max()


class TestHomogenizedEval:
    def test_single_species_sums_shells(self):
        fam = lj_family([1.0], R=3)
        law = HomogenizedLaw(fam)
        z = 0.02
        phi0, dphi0, d2phi0 = law.eval(z)
        for value, order in ((phi0, 0), (dphi0, 1), (d2phi0, 2)):
            expected = sum(float(shell_law(fam, order, r, z, 0)) for r in (1, 2, 3))
            assert value == pytest.approx(expected, rel=1e-14)

    def test_harmonic_mean_modulus(self):
        rng = np.random.default_rng(31)
        for p in (2, 3, 5):
            for _ in range(20):
                k = rng.uniform(0.2, 5.0, size=p)
                law = HomogenizedLaw(quadratic_family(k, np.zeros(p)))
                z = rng.uniform(-0.5, 0.5)
                phi0, dphi0, d2phi0 = law.eval(z)
                hm = 1.0 / np.mean(1.0 / k)
                assert d2phi0 == pytest.approx(hm, abs=1e-10)
                assert phi0 == pytest.approx(0.5 * hm * z * z, abs=1e-12)

    def test_derivatives_match_finite_differences(self, lj_law):
        rng = np.random.default_rng(32)
        step = 1e-6
        for _ in range(50):
            z = rng.uniform(-0.08, 0.12)
            phi0, dphi0, d2phi0 = lj_law.eval(z)
            fd1 = (lj_law.eval(z + step)[0] - lj_law.eval(z - step)[0]) / (2 * step)
            fd2 = (lj_law.eval(z + step)[1] - lj_law.eval(z - step)[1]) / (2 * step)
            assert fd1 == pytest.approx(dphi0, rel=1e-6)
            assert fd2 == pytest.approx(d2phi0, rel=1e-6)

    def test_modulus_positive_under_dominance(self, lj_law):
        from hqc import nn_dominance_margin

        micro = ground_microstructure(lj_law.family)
        assert nn_dominance_margin(lj_law.family, micro) > 0
        assert lj_law.eval(0.0)[2] > 0


class TestEvalStrains:
    def test_matches_scalar_path(self, lj_law):
        z = np.array([-0.03, 0.0, 0.02, 0.07])
        phi0, dphi0, d2phi0, chi = lj_law.eval_strains(z)
        for i, zi in enumerate(z):
            a, b, c = lj_law.eval(float(zi))
            assert phi0[i] == pytest.approx(a, rel=1e-13)
            assert dphi0[i] == pytest.approx(b, rel=1e-13)
            assert d2phi0[i] == pytest.approx(c, rel=1e-12)

    def test_zero_mean_fields(self, lj_law):
        z = np.linspace(-0.04, 0.06, 11)
        chi = lj_law.eval_strains(z)[3]
        assert np.abs(chi.mean(axis=1)).max() <= 1e-13

    def test_empty_batch(self, lj_law):
        phi0, dphi0, d2phi0, chi = lj_law.eval_strains([])
        assert phi0.shape == dphi0.shape == d2phi0.shape == (0,)
        assert chi.shape == (0, 2)

    def test_saddle_cell_raises(self):
        # Newton converges on this cell to a saddle of the cell energy: the
        # reduced Hessian (1 x 1 for p = 2) is -42.29 at the returned field
        law = HomogenizedLaw(lj_family([0.8127438520154584, 0.8559274744248038], R=3))
        z = 0.034124882938726064
        with pytest.raises(StabilityError, match=r"^indefinite reduced cell Hessian: cell 1 has "
                           r"strain 0\.0341249 and smallest Hessian eigenvalue -42\.29\d*$"):
            law.eval_strains([-0.1, z])  # the cell at strain -0.1 is stable


class TestWarmStartInterface:
    def test_inadmissible_rows_start_cold(self, lj_law):
        family = lj_law.family
        z = np.array([-0.02, 0.01, 0.03, -1.0])
        warm = lj_law.eval_strains(np.array([-0.02, 0.01, 0.03, 0.05]))[3]
        warm[1] = [0.7, -0.7]  # nearest-neighbour bond z - 1.4 < -1
        # at z = -1 every field has a bond <= -1
        chi0 = warm_start(family, z, warm)
        assert np.array_equal(chi0[[0, 2]], warm[[0, 2]])
        assert not chi0[[1, 3]].any()
