import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from hqc import (
    DomainError,
    HomogenizedLaw,
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
)
from hqc.potentials import PotentialFamily, validate_microstructure
from hqc.exceptions import StabilityError

from oracles import shell_law, stacked_law


class SecondShellFamily(PotentialFamily):
    """Harmonic nearest-neighbor law plus an r=2 term of stiffness kappa;
    kappa >= k/2 breaks nearest-neighbor dominance."""

    def __init__(self, k, kappa, p=2):
        self.stiff = np.array([[k], [kappa]])  # (R, 1): the same for every species
        self.p = p
        self.R = 2

    def admissible(self, a):
        return np.ones(np.shape(a), dtype=bool)

    def bonds(self, a, *orders):
        a = np.asarray(a, dtype=float)
        laws = (0.5 * self.stiff * a ** 2, self.stiff * a, self.stiff * np.ones_like(a))
        out = [laws[order] for order in orders]
        return out[0] if len(out) == 1 else tuple(out)


@pytest.fixture(scope="module")
def lj():
    return lj_family([1.0, 9.0 / 8.0], R=3)


def shells(family, z):
    """Bond arguments (R, p) with every entry z."""
    return np.full((family.R, family.p), float(z))


class TestLennardJones:
    def test_minimum_value(self, lj):
        # at the equilibrium distance the well depth is -1 and the slope 0
        phi, d1 = lj.bonds(np.array([1.0, 9.0 / 8.0]) - 1.0 + np.zeros((3, 1)), 0, 1)
        for y in (0, 1):
            assert phi[0, y] == pytest.approx(-1.0, abs=1e-14)
            assert d1[0, y] == pytest.approx(0.0, abs=1e-12)

    def test_compressed_value(self, lj):
        # s = 1/2 gives -2*2^6 + 2^12
        assert lj.bonds(shells(lj, -0.5), 0)[0, 0] == pytest.approx(3968.0)

    def test_domain_guard(self, lj):
        a = shells(lj, 0.0)
        a[0, 0] = -1.0
        with pytest.raises(DomainError):
            lj.bonds(a, 0)
        a[0, 0] = 0.0
        a[1, 1] = -1.5
        assert not lj.admissible(a)[1, 1]
        assert lj.admissible(a).sum() == a.size - 1

    def test_periodic_in_species(self, lj):
        # sites x and x + p share a column: every cell of a stack gets the
        # same values
        cells = np.broadcast_to(shells(lj, 0.03), (4, 3, 2))
        phi = lj.bonds(cells, 0)
        assert np.array_equal(phi, np.broadcast_to(phi[0], phi.shape))

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
            phi_p, d1_p = lj.bonds(shells(lj, z + step), 0, 1)
            phi_m, d1_m = lj.bonds(shells(lj, z - step), 0, 1)
            _, d1, d2 = lj.bonds(shells(lj, z), 0, 1, 2)
            fd1 = (phi_p - phi_m)[r - 1, y] / (2 * step)
            fd2 = (d1_p - d1_m)[r - 1, y] / (2 * step)
            assert fd1 == pytest.approx(d1[r - 1, y], rel=1e-6)
            assert fd2 == pytest.approx(d2[r - 1, y], rel=1e-6)


class TestQuadratic:
    def test_rest_state(self):
        fam = quadratic_family([2.0, 3.0], [0.1, -0.2])
        phi, d1 = fam.bonds(np.array([[0.1, -0.2]]), 0, 1)
        assert np.all(phi == 0.0)
        assert np.all(d1 == 0.0)

    def test_constant_curvature(self):
        fam = quadratic_family([2.0, 3.0], [0.1, -0.2])
        for z in (-1.0, 0.0, 2.5):
            assert fam.bonds(shells(fam, z), 2).tolist() == [[2.0, 3.0]]

    def test_simple_lattice_reduction(self):
        fam = quadratic_family([1.0, 1.0], [0.0, 0.0])
        z = 0.37
        assert fam.bonds(shells(fam, z), 0)[0, 0] == pytest.approx(0.5 * z * z)

    def test_higher_shells_inert(self):
        fam = quadratic_family([1.0, 2.0], [0.0, 0.0], R=3)
        phi, d2 = fam.bonds(shells(fam, 0.5), 0, 2)
        assert phi[1, 0] == 0.0
        assert d2[2, 1] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            quadratic_family([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            quadratic_family([1.0], [0.0], R=0)

    def test_fd_consistency(self):
        fam = quadratic_family([1.5, 0.7], [0.2, -0.1])
        rng = np.random.default_rng(22)
        for _ in range(100):
            z = rng.uniform(-2, 2)
            y = int(rng.integers(0, 2))
            step = 1e-6 * max(1.0, abs(z))
            fd1 = (fam.bonds(shells(fam, z + step), 0)
                   - fam.bonds(shells(fam, z - step), 0))[0, y] / (2 * step)
            assert fd1 == pytest.approx(fam.bonds(shells(fam, z), 1)[0, y], rel=1e-6, abs=1e-9)


class TestStackedLaw:
    """``bonds``/``admissible`` over the (R, p) layout against the
    closed-form per-shell laws of ``oracles``."""

    @staticmethod
    def family(p, R, lj, rng):
        if lj:
            return lj_family(rng.uniform(0.8, 1.25, size=p), R)
        return quadratic_family(rng.uniform(0.5, 3.0, size=p), rng.uniform(-0.2, 0.2, size=p), R)

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 5), R=st.integers(1, 4), lj=st.booleans(),
           lead=st.lists(st.integers(1, 4), max_size=2), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, p, R, lj, lead, seed):
        rng = np.random.default_rng(seed)
        family = self.family(p, R, lj, rng)
        a = rng.uniform(-0.5, 0.6, size=(*lead, R, p))
        together = family.bonds(a, 0, 1, 2)
        for order in (0, 1, 2):
            ref, scale = stacked_law(family, a, order)
            value = family.bonds(a, order)
            assert value.shape == a.shape
            assert np.array_equal(value, together[order])
            assert np.all(np.abs(value - ref) <= 1e-14 * scale)

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 5), R=st.integers(1, 4), lj=st.booleans(),
           lead=st.lists(st.integers(1, 4), max_size=2), seed=st.integers(0, 2**32 - 1))
    def test_admissible_is_positive_gradient(self, p, R, lj, lead, seed):
        rng = np.random.default_rng(seed)
        family = self.family(p, R, lj, rng)
        a = rng.uniform(-1.5, 0.6, size=(*lead, R, p))
        a.flat[rng.integers(a.size)] = -1.0  # g = 0 exactly
        mask = family.admissible(a)
        assert mask.dtype == bool and mask.shape == a.shape
        assert np.array_equal(mask, 1.0 + a > 0 if lj else np.ones(a.shape, dtype=bool))

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 5), R=st.integers(1, 4), order=st.integers(0, 2),
           lead=st.lists(st.integers(1, 4), max_size=2), gap=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_inadmissible_entry_raises(self, p, R, order, lead, gap, seed):
        rng = np.random.default_rng(seed)
        family = self.family(p, R, True, rng)
        a = rng.uniform(-0.5, 0.6, size=(*lead, R, p))
        a.flat[rng.integers(a.size)] = -1.0 - gap  # g = 1 + a is 0 or negative
        with pytest.raises(DomainError):
            family.bonds(a, order)


class TestGroundMicrostructure:
    def test_single_species_is_zero(self):
        m = ground_microstructure(HomogenizedLaw(quadratic_family([2.0], [0.3])))
        assert m.shape == (1,)
        assert m[0] == 0.0

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
        m = ground_microstructure(HomogenizedLaw(fam))
        assert m[0] == pytest.approx(res.x, abs=1e-9)
        assert abs(m.mean()) < 1e-14

    def test_lj_against_golden_section(self, lj):
        def cell_energy(c):
            chi = np.array([c, -c])
            y = np.arange(2)
            e = 0.0
            for r in (1, 2, 3):
                d = (np.roll(chi, -r) - chi) / r
                e += float(np.mean(shell_law(lj, 0, r, d, y)))
            return e

        res = minimize_scalar(cell_energy, bracket=(-0.2, 0.0, 0.2), method="golden",
                              options={"xtol": 1e-13})
        m = ground_microstructure(HomogenizedLaw(lj))
        assert m[0] == pytest.approx(res.x, abs=1e-9)

    def test_residual_tolerance(self, lj):
        from oracles import cell_bond_arguments, cell_gradient

        chi = ground_microstructure(HomogenizedLaw(lj))[None, :]
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
                m = ground_microstructure(HomogenizedLaw(fam))
            except StabilityError:
                continue
            assert np.abs(m).max() <= 0.5 * (p - 1) + 1e-12
            d = np.roll(m, -1) - m
            assert (1.0 + d).min() > 0.0
            done += 1

    @pytest.mark.parametrize("family", [lj_family([1.0, 9.0 / 8.0], R=3)], ids=["lj"])
    def test_cold_start_agrees_with_cold_cell_solve(self, family):
        law = HomogenizedLaw(family)
        chi_star = ground_microstructure(law)
        chi = law.eval_strains(0.0)[3][0]
        assert np.abs(chi - chi_star).max() <= 1e-14
        # the law's ground_cell row itself, read-only
        assert np.shares_memory(chi_star, law.ground_cell[0]) and not chi_star.flags.writeable

    def test_assumption_violation_detected(self):
        with pytest.raises(StabilityError):
            validate_microstructure(np.array([0.8, -0.8]), "test")


class TestDominanceMargin:
    def test_single_species_harmonic(self):
        fam = quadratic_family([1.0], [0.0])
        m = ground_microstructure(HomogenizedLaw(fam))
        assert nn_dominance_margin(fam, m) == pytest.approx(0.5)

    def test_lj_margin_positive(self, lj):
        m = ground_microstructure(HomogenizedLaw(lj))
        assert nn_dominance_margin(lj, m) > 0.0

    def test_p1_reduction_formula(self, lj):
        # for p = 1 the margin is 0.5 d2phi_1(0) - sum_{r>=2} |d2phi_r(0)|
        fam = lj_family([1.0], R=3)
        m = ground_microstructure(HomogenizedLaw(fam))
        assert m[0] == 0.0
        expected = 0.5 * shell_law(fam, 2, 1, 0.0, 0) - sum(
            abs(shell_law(fam, 2, r, 0.0, 0)) for r in (2, 3)
        )
        assert nn_dominance_margin(fam, m) == pytest.approx(float(expected), rel=1e-13)

    def test_strong_second_shell_breaks_dominance(self):
        fam = SecondShellFamily(k=1.0, kappa=0.6)
        m = ground_microstructure(HomogenizedLaw(fam))
        assert nn_dominance_margin(fam, m) <= 0.0
