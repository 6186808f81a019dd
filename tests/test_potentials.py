import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hqc import (
    DomainError,
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
)
from hqc.potentials import PotentialFamily, validate_microstructure
from hqc.exceptions import StabilityError


class SecondShellFamily(PotentialFamily):
    """Harmonic nearest-neighbor law plus an r=2 term of stiffness kappa;
    kappa >= k/2 breaks nearest-neighbor dominance."""

    def __init__(self, k, kappa, p=2):
        self.k = k
        self.kappa = kappa
        self.p = p
        self.R = 2

    def _stiff(self, r):
        return self.k if r == 1 else self.kappa

    def eval(self, r, z, y):
        return 0.5 * self._stiff(r) * np.asarray(z, dtype=float) ** 2

    def d1(self, r, z, y):
        return self._stiff(r) * np.asarray(z, dtype=float)

    def d2(self, r, z, y):
        return self._stiff(r) * np.ones_like(np.asarray(z, dtype=float))

    def admissible(self, r, z, y):
        return np.ones_like(np.asarray(z, dtype=float), dtype=bool)


@pytest.fixture(scope="module")
def lj():
    return lj_family([1.0, 9.0 / 8.0], R=3)


class TestLennardJones:
    def test_minimum_value(self, lj):
        # at the equilibrium distance the well depth is -1 and the slope 0
        for y, l in ((0, 1.0), (1, 9.0 / 8.0)):
            assert lj.eval(1, l - 1.0, y) == pytest.approx(-1.0, abs=1e-14)
            assert lj.d1(1, l - 1.0, y) == pytest.approx(0.0, abs=1e-12)

    def test_compressed_value(self, lj):
        # s = 1/2 gives -2*2^6 + 2^12
        assert lj.eval(1, -0.5, 0) == pytest.approx(3968.0)

    def test_domain_guard(self, lj):
        with pytest.raises(DomainError):
            lj.eval(1, -1.0, 0)
        assert not lj.admissible(2, -1.5, 1)

    def test_periodic_in_species(self, lj):
        z = 0.03
        assert lj.eval(1, z, 0) == lj.eval(1, z, 2)
        assert lj.eval(2, z, 1) == lj.eval(2, z, 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lj_family([1.0, -1.0], 2)
        with pytest.raises(ValueError):
            lj_family([1.0], 0)

    def test_derivative_consistency(self, lj):
        rng = np.random.default_rng(21)
        for _ in range(100):
            r = int(rng.integers(1, 4))
            y = int(rng.integers(0, 2))
            z = rng.uniform(-0.3, 0.4)
            step = 1e-6 * max(1.0, abs(z))
            fd1 = (lj.eval(r, z + step, y) - lj.eval(r, z - step, y)) / (2 * step)
            fd2 = (lj.d1(r, z + step, y) - lj.d1(r, z - step, y)) / (2 * step)
            assert fd1 == pytest.approx(lj.d1(r, z, y), rel=1e-6)
            assert fd2 == pytest.approx(lj.d2(r, z, y), rel=1e-6)


class TestQuadratic:
    def test_rest_state(self):
        fam = quadratic_family([2.0, 3.0], [0.1, -0.2])
        for y, a in ((0, 0.1), (1, -0.2)):
            assert fam.eval(1, a, y) == 0.0
            assert fam.d1(1, a, y) == 0.0

    def test_constant_curvature(self):
        fam = quadratic_family([2.0, 3.0], [0.1, -0.2])
        for z in (-1.0, 0.0, 2.5):
            assert fam.d2(1, z, 0) == 2.0
            assert fam.d2(1, z, 1) == 3.0

    def test_simple_lattice_reduction(self):
        fam = quadratic_family([1.0, 1.0], [0.0, 0.0])
        z = 0.37
        assert fam.eval(1, z, 0) == pytest.approx(0.5 * z * z)

    def test_higher_shells_inert(self):
        fam = quadratic_family([1.0, 2.0], [0.0, 0.0], R=3)
        assert fam.eval(2, 0.5, 0) == 0.0
        assert fam.d2(3, 0.5, 1) == 0.0

    def test_fd_consistency(self):
        fam = quadratic_family([1.5, 0.7], [0.2, -0.1])
        rng = np.random.default_rng(22)
        for _ in range(100):
            z = rng.uniform(-2, 2)
            y = int(rng.integers(0, 2))
            step = 1e-6 * max(1.0, abs(z))
            fd1 = (fam.eval(1, z + step, y) - fam.eval(1, z - step, y)) / (2 * step)
            assert fd1 == pytest.approx(fam.d1(1, z, y), rel=1e-6, abs=1e-9)


class TestGroundMicrostructure:
    def test_single_species_is_zero(self):
        m = ground_microstructure(quadratic_family([2.0], [0.3]))
        assert m.chi_star.values.shape == (1,)
        assert m.chi_star.values[0] == 0.0

    def test_quadratic_against_scalar_minimization(self):
        k = np.array([1.0, 2.0])
        a = np.array([0.1, -0.1])
        fam = quadratic_family(k, a)

        def cell_energy(c):
            chi = np.array([c, -c])
            d = np.roll(chi, -1) - chi
            return float(np.mean(0.5 * k * (d - a) ** 2))

        res = minimize_scalar(cell_energy, bounds=(-0.4, 0.4), method="bounded",
                              options={"xatol": 1e-12})
        m = ground_microstructure(fam)
        assert m.chi_star.values[0] == pytest.approx(res.x, abs=1e-9)
        assert abs(m.chi_star.values.mean()) < 1e-14

    def test_lj_against_golden_section(self, lj):
        def cell_energy(c):
            chi = np.array([c, -c])
            y = np.arange(2)
            e = 0.0
            for r in (1, 2, 3):
                d = (np.roll(chi, -r) - chi) / r
                e += float(np.mean(lj.eval(r, d, y)))
            return e

        res = minimize_scalar(cell_energy, bracket=(-0.2, 0.0, 0.2), method="golden",
                              options={"xtol": 1e-13})
        m = ground_microstructure(lj)
        assert m.chi_star.values[0] == pytest.approx(res.x, abs=1e-9)

    def test_residual_tolerance(self, lj):
        from oracles import cell_bond_arguments, cell_gradient

        chi = ground_microstructure(lj).chi_star.values[None, :]
        g = cell_gradient(lj, cell_bond_arguments(lj, np.zeros(1), chi), np.arange(2))
        assert np.abs(g).max() <= 1e-12

    def test_lemma_bound_random_families(self):
        # ||chi_*||_inf <= (p-1)/2 whenever the micro deformation is increasing
        rng = np.random.default_rng(23)
        done = 0
        while done < 50:
            p = int(rng.integers(2, 7))
            fam = quadratic_family(rng.uniform(0.5, 3.0, size=p), rng.uniform(-0.2, 0.2, size=p))
            try:
                m = ground_microstructure(fam)
            except StabilityError:
                continue
            assert np.abs(m.chi_star.values).max() <= 0.5 * (p - 1) + 1e-12
            d = np.roll(m.chi_star.values, -1) - m.chi_star.values
            assert (1.0 + d).min() > 0.0
            done += 1

    def test_assumption_violation_detected(self):
        with pytest.raises(StabilityError):
            validate_microstructure(np.array([0.8, -0.8]), "test")


class TestDominanceMargin:
    def test_single_species_harmonic(self):
        fam = quadratic_family([1.0], [0.0])
        m = ground_microstructure(fam)
        assert nn_dominance_margin(fam, m) == pytest.approx(0.5)

    def test_lj_margin_positive(self, lj):
        m = ground_microstructure(lj)
        assert nn_dominance_margin(lj, m) > 0.0

    def test_p1_reduction_formula(self, lj):
        # for p = 1 the margin is 0.5 d2phi_1(0) - sum_{r>=2} |d2phi_r(0)|
        fam = lj_family([1.0], R=3)
        m = ground_microstructure(fam)
        assert m.chi_star.values[0] == 0.0
        expected = 0.5 * fam.d2(1, 0.0, 0) - sum(abs(fam.d2(r, 0.0, 0)) for r in (2, 3))
        assert nn_dominance_margin(fam, m) == pytest.approx(float(expected), rel=1e-13)

    def test_strong_second_shell_breaks_dominance(self):
        fam = SecondShellFamily(k=1.0, kappa=0.6)
        m = ground_microstructure(fam)
        assert nn_dominance_margin(fam, m) <= 0.0
