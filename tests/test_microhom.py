import numpy as np
import pytest

from hqc import (
    DomainError,
    HomogenizedLaw,
    ground_microstructure,
    lj_family,
    quadratic_family,
)
from hqc.exceptions import SolverFailure
from hqc.microhom import _bond_arguments, _cell_gradient, newton_cells


@pytest.fixture(scope="module")
def lj_law():
    return HomogenizedLaw(lj_family([1.0, 9.0 / 8.0], R=3))


def solve_cells(law, z, chi0):
    """Batched cell solve with the law's settings: (chi, residual, iterations)."""
    return newton_cells(
        law.family, np.atleast_1d(z), chi0, law.tol, law.max_iter, law.damping_max
    )


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
        g = _cell_gradient(lj_law.family, _bond_arguments(lj_law.family, z, chi), np.arange(2))
        assert np.abs(g).max() <= lj_law.tol

    def test_inadmissible_strain(self, lj_law):
        with pytest.raises(DomainError):
            lj_law.eval_strains(-1.2)

    def test_nonconvergence_reported(self):
        law = HomogenizedLaw(lj_family([1.0, 9.0 / 8.0], R=3), max_iter=1)
        with pytest.raises(SolverFailure):
            law.eval_strains(0.3)


class TestHomogenizedEval:
    def test_single_species_sums_shells(self):
        fam = lj_family([1.0], R=3)
        law = HomogenizedLaw(fam)
        z = 0.02
        phi0, dphi0, d2phi0 = law.eval(z)
        assert phi0 == pytest.approx(sum(float(fam.eval(r, z, 0)) for r in (1, 2, 3)), rel=1e-14)
        assert dphi0 == pytest.approx(sum(float(fam.d1(r, z, 0)) for r in (1, 2, 3)), rel=1e-14)
        assert d2phi0 == pytest.approx(sum(float(fam.d2(r, z, 0)) for r in (1, 2, 3)), rel=1e-14)

    def test_harmonic_mean_modulus(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k1, k2 = rng.uniform(0.2, 5.0, size=2)
            law = HomogenizedLaw(quadratic_family([k1, k2], [0.0, 0.0]))
            z = rng.uniform(-0.5, 0.5)
            phi0, dphi0, d2phi0 = law.eval(z)
            hm = 2.0 * k1 * k2 / (k1 + k2)
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

    def test_warm_start_does_not_change_values(self, lj_law):
        rng = np.random.default_rng(33)
        z = rng.uniform(-0.05, 0.05, size=200)
        ref = lj_law.eval_strains(z)
        warm = ref[3] + 1e-8 * rng.standard_normal(ref[3].shape)
        redo = lj_law.eval_strains(z, warm=warm)
        for a, b in zip(ref[:3], redo[:3]):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())

    def test_zero_mean_fields(self, lj_law):
        z = np.linspace(-0.04, 0.06, 11)
        chi = lj_law.eval_strains(z)[3]
        assert np.abs(chi.mean(axis=1)).max() <= 1e-13


class TestWarmStartInterface:
    def test_explicit_micro_warm_start(self, lj_law):
        chi = lj_law.eval_strains(0.05)[3]
        law2 = HomogenizedLaw(lj_law.family)
        warm = law2.eval_strains(0.0501, warm=chi)
        _, res, _ = solve_cells(law2, 0.0501, chi)
        assert res[0] <= law2.tol
        cold = law2.eval_strains(0.0501)
        for a, b in zip(warm[:3], cold[:3]):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()
