import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    Displacement2D,
    SpringModel2D,
    chi_analytic,
    exp_sin_force,
    gradient_error,
    homogenize2d,
    solve2d,
)
from hqc.lattice2d import DIRECTIONS, p1_bonds, solve_atomistic_2d, solve_coarse_2d

from oracles import (
    bond_matvec,
    corrector_matrix,
    energy2d,
    p1_corrected_on_atoms,
    p1_stiffness_dense,
    zero_mean_dense_solve,
)

stiffness = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in [1e-3, 1e3]


@pytest.fixture(scope="module")
def model():
    return SpringModel2D(1.0, 2.0, 0.25)


def brute_force_energy(model, u):
    """Direct bond-by-bond sum, no rolls."""
    N1, N2 = u.N1, u.N2
    E = 0.0
    for c in range(2):
        v = u.values[c]
        for i in range(N1):
            for j in range(N2):
                par = (i + j) % 2  # (k1 + k2) parity of the 1-based site
                for r in DIRECTIONS:
                    if r in ((1, 0), (0, 1)):
                        psi = model.k1 if par == 0 else model.k2
                    else:
                        psi = model.k3
                    dv = v[(i + r[0]) % N1, (j + r[1]) % N2] - v[i, j]
                    E += 0.5 * psi * dv * dv
    return E


class TestEnergy2D:
    def test_translations_cost_nothing(self, model):
        u = Displacement2D(4, 4, np.stack([np.full((4, 4), 1.3), np.full((4, 4), -0.2)]))
        E, g = energy2d(model, u)
        assert E == 0.0
        assert np.abs(g.values).max() == 0.0

    def test_single_displaced_site_vs_brute_force(self):
        model = SpringModel2D(1.0, 1.0, 1.0)
        vals = np.zeros((2, 4, 4))
        vals[0, 1, 2] = 0.7
        u = Displacement2D(4, 4, vals)
        E, _ = energy2d(model, u)
        assert E == pytest.approx(brute_force_energy(model, u), rel=1e-13)

    def test_quadratic_scaling(self, model):
        rng = np.random.default_rng(91)
        u = Displacement2D(6, 6, rng.standard_normal((2, 6, 6)))
        u2 = Displacement2D(6, 6, 2.0 * u.values)
        assert energy2d(model, u2)[0] == pytest.approx(4.0 * energy2d(model, u)[0], rel=1e-13)

    def test_random_fields_vs_brute_force(self, model):
        rng = np.random.default_rng(92)
        for _ in range(3):
            u = Displacement2D(6, 4, rng.standard_normal((2, 6, 4)))
            assert energy2d(model, u)[0] == pytest.approx(brute_force_energy(model, u), rel=1e-12)

    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(93)
        u = Displacement2D(8, 8, 0.1 * rng.standard_normal((2, 8, 8)))
        _, g = energy2d(model, u)
        step = 1e-7
        for _ in range(40):
            c = int(rng.integers(0, 2))
            i = int(rng.integers(0, 8))
            j = int(rng.integers(0, 8))
            vp = u.values.copy()
            vp[c, i, j] += step
            vm = u.values.copy()
            vm[c, i, j] -= step
            fd = (
                energy2d(model, Displacement2D(8, 8, vp))[0]
                - energy2d(model, Displacement2D(8, 8, vm))[0]
            ) / (2 * step)
            assert fd == pytest.approx(g.values[c, i, j], rel=1e-8, abs=1e-8)

    def test_odd_grids_rejected(self, model):
        with pytest.raises(ValueError):
            solve_atomistic_2d(model, Displacement2D(5, 4, np.zeros((2, 5, 4))))


class TestStacks:
    def test_bond_operator_acts_slice_by_slice(self, model):
        V = np.random.default_rng(100).standard_normal((3, 6, 4))
        AV = bond_matvec(model.bonds, V)
        for b in range(3):
            assert np.array_equal(AV[b], bond_matvec(model.bonds, V[b]))
        # energy2d takes the gradient of both components in one stacked call
        _, g = energy2d(model, Displacement2D(6, 4, V[:2]))
        for c in range(2):
            assert np.array_equal(g.values[c], bond_matvec(model.bonds, V[c]))

    def test_p1_stiffness_acts_slice_by_slice(self):
        # the P1 stiffness is the three constant-coefficient bonds of p1_bonds
        Q = np.array([[2.0, -0.5], [-0.5, 1.0]])
        U = np.random.default_rng(101).standard_normal((3, 5, 5))
        KU = bond_matvec(p1_bonds(Q), U)
        for b in range(3):
            assert np.array_equal(KU[b], bond_matvec(p1_bonds(Q), U[b]))


class TestChiAnalytic:
    def test_no_contrast_no_corrector(self):
        assert chi_analytic(SpringModel2D(2.0, 2.0, 0.5)) == 0.0

    def test_reference_values(self, model):
        assert chi_analytic(model) == pytest.approx(-1.0 / 12.0)
        assert chi_analytic(SpringModel2D(2.0, 1.0, 0.25)) == pytest.approx(1.0 / 12.0)


class TestHomogenize2D:
    def test_cached_per_model_and_read_only(self):
        hom = homogenize2d(SpringModel2D(1.0, 2.0, 0.25))
        assert homogenize2d(SpringModel2D(1.0, 2.0, 0.25)) is hom
        with pytest.raises(ValueError):
            hom.Q[0, 0] = 0.0
        with pytest.raises(ValueError):
            hom.chi_unit[0, 0, 0] = 0.0

    def test_no_contrast_reduces_to_plain_springs(self):
        k, k3 = 1.7, 0.4
        hom = homogenize2d(SpringModel2D(k, k, k3))
        assert hom.corrector_scale == 0.0
        assert np.allclose(hom.Q, (k + 2 * k3) * np.eye(2), atol=1e-14)

    def test_effective_form_closed_expression(self):
        rng = np.random.default_rng(94)
        for _ in range(10):
            k1, k2, k3 = rng.uniform(0.1, 10.0, size=3)
            hom = homogenize2d(SpringModel2D(k1, k2, k3))
            diag = (k1 + k2) / 2 + 2 * k3 - (k1 - k2) ** 2 / (4 * (k1 + k2))
            off = -((k1 - k2) ** 2) / (4 * (k1 + k2))
            assert np.allclose(hom.Q, [[diag, off], [off, diag]], atol=1e-13)

    def test_corrector_matches_analytic_random_triples(self):
        rng = np.random.default_rng(95)
        for _ in range(20):
            k1, k2, k3 = rng.uniform(0.1, 10.0, size=3)
            model = SpringModel2D(k1, k2, k3)
            hom = homogenize2d(model)
            assert hom.analytic_gap <= 1e-12
            assert hom.pattern_deviation <= 1e-12
            assert np.allclose(corrector_matrix(hom), chi_analytic(model) * np.eye(2), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(k=st.tuples(stiffness, stiffness, stiffness))
    def test_cell_solve_over_wide_stiffness_range(self, k):
        k1, k2, k3 = k
        model = SpringModel2D(k1, k2, k3)
        hom = homogenize2d(model)
        chi = hom.chi_unit
        assert np.abs(chi.mean(axis=(1, 2))).max() <= 1e-15
        # a unit strain e_b loads bond r with r_b: A chi_b = sum_r (C_r - C_r(. - r)) r_b
        rhs = np.zeros((2, 2, 2))
        for r, C in model.bonds:
            for b in range(2):
                rhs[b] += (C - np.roll(C, r, (0, 1))) * r[b]
        assert np.abs(bond_matvec(model.bonds, chi) - rhs).max() <= 1e-14 * max(k)
        diag = (k1 + k2) / 2 + 2 * k3 - (k1 - k2) ** 2 / (4 * (k1 + k2))
        off = -((k1 - k2) ** 2) / (4 * (k1 + k2))
        assert np.abs(hom.Q - [[diag, off], [off, diag]]).max() <= 1e-14 * max(diag, abs(off))
        assert hom.analytic_gap <= 1e-15 * max(k) / min(k)

    def test_effective_form_vs_patch_oracle(self, model):
        # the energy density of the corrected affine field on an 8x8 patch
        # equals the effective form value; the field is evaluated from
        # coordinates so bonds leaving the core stay exact
        rng = np.random.default_rng(96)
        hom = homogenize2d(model)
        n = 8
        eps = 1.0 / n
        for _ in range(4):
            G = 0.1 * rng.standard_normal((2, 2))

            def u(c, i, j):
                x = np.array([(i + 1) * eps, (j + 1) * eps])
                cell = ((i + 1) % 2, (j + 1) % 2)
                return G[c] @ x + eps * (
                    G[c, 0] * hom.chi_unit[0][cell] + G[c, 1] * hom.chi_unit[1][cell]
                )

            E = 0.0
            for c in range(2):
                for i in range(n):
                    for j in range(n):
                        par = (i + j) % 2
                        for r in DIRECTIONS:
                            psi = (
                                (model.k1 if par == 0 else model.k2)
                                if r in ((1, 0), (0, 1))
                                else model.k3
                            )
                            dv = (u(c, i + r[0], j + r[1]) - u(c, i, j)) / eps
                            E += 0.5 * psi * dv * dv
            density = E / (n * n)
            expected = 0.5 * (G[0] @ hom.Q @ G[0] + G[1] @ hom.Q @ G[1])
            assert density == pytest.approx(expected, rel=1e-12)


class TestSolve2D:
    def test_zero_force_zero_solution(self, model):
        f = Displacement2D(8, 8, np.zeros((2, 8, 8)))
        u, info = solve2d(model, f, "atomistic")
        assert np.abs(u.values).max() == 0.0
        u, _ = solve2d(model, f, ("coarse", 4))
        assert np.abs(u.values).max() < 1e-14

    def test_atomistic_residual(self, model):
        rng = np.random.default_rng(97)
        v = rng.standard_normal((2, 8, 8))
        f = Displacement2D(8, 8, v - v.mean(axis=(1, 2), keepdims=True))
        u, iters = solve_atomistic_2d(model, f)
        assert iters == 0
        eps2 = 1.0 / 64
        for c in range(2):
            r = bond_matvec(model.bonds, u.values[c]) - eps2 * f.values[c]
            assert np.abs(r).max() < 1e-9 * max(1.0, np.abs(eps2 * f.values[c]).max())

    @pytest.mark.parametrize("t", [2, 3, 4, 6, 12])
    def test_coarse_solve_vs_atom_by_atom_oracle(self, model, t):
        # N = 12 gives strides 6, 4, 3, 2, 1: at odd stride 3 the corrector
        # parity does not line up with the squares, at stride 1 every atom
        # is a node
        N = 12
        hom = homogenize2d(model)
        f = Displacement2D(N, N, np.random.default_rng(98 + t).standard_normal((2, N, N)))
        nodes = (N // t) * np.arange(t)
        loads = f.values[:, nodes[:, None], nodes] / (t * t)
        A = p1_stiffness_dense(hom.Q, t)
        U = np.stack([zero_mean_dense_solve(A, loads[c]) for c in range(2)])
        expected = p1_corrected_on_atoms(U, hom.chi_unit, N)
        u = solve_coarse_2d(hom, f, t)
        assert np.abs(u.values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_uniform_springs_full_mesh_consistency(self):
        # without microstructure the corrector vanishes and the P1 solve is a
        # consistent discretization: the gap to the atomistic solution is
        # discretization error that shrinks with N (the anti-diagonal bonds
        # straddle two triangles, so the match is not exact)
        model = SpringModel2D(1.0, 1.0, 1.0)
        gaps = []
        for N in (16, 32):
            f = exp_sin_force(N, N)
            ua, _ = solve2d(model, f, "atomistic")
            uc = solve_coarse_2d(homogenize2d(model), f, N)
            scale = np.abs(ua.values).max()
            gaps.append(np.abs(ua.values - uc.values).max() / scale)
        assert gaps[0] < 0.05
        assert gaps[1] < 0.6 * gaps[0]

    def test_error_report_against_reference(self, model):
        f = exp_sin_force(32, 32)
        ref, _ = solve2d(model, f, "atomistic")
        u, info = solve2d(model, f, ("coarse", 8), reference=ref)
        assert info["err_1inf"] > 0
        assert info["err_0inf"] > 0
        assert info["err_1inf"] == pytest.approx(gradient_error(u, ref))

    @pytest.mark.parametrize("axis, expected", [(0, 4.0), (1, 8 * np.sin(np.pi / 4))])
    def test_gradient_error_on_non_square_grid(self, axis, expected):
        # sin(2 pi x) along one axis of a 4 x 8 grid: its largest forward
        # difference, 1 over 4 sites or sin(pi/4) over 8, is divided by the
        # spacing of that axis
        shape = (4, 8)
        x = np.arange(shape[axis]) / shape[axis]
        wave = np.expand_dims(np.sin(2 * np.pi * x), 1 - axis)
        u = Displacement2D(*shape, np.stack([np.broadcast_to(wave, shape), np.zeros(shape)]))
        zero = Displacement2D(*shape, np.zeros((2, *shape)))
        assert gradient_error(u, zero) == pytest.approx(expected, rel=1e-12)

    def test_first_order_convergence_small(self, model):
        f = exp_sin_force(64, 64)
        ref, _ = solve2d(model, f, "atomistic")
        errs = []
        for t in (4, 8, 16):
            _, info = solve2d(model, f, ("coarse", t), reference=ref)
            errs.append(info["err_1inf"])
        slope = np.polyfit(np.log([1 / 4, 1 / 8, 1 / 16]), np.log(errs), 1)[0]
        assert slope >= 0.85

    def test_invalid_mode_and_t(self, model):
        f = Displacement2D(8, 8, np.zeros((2, 8, 8)))
        with pytest.raises(ValueError):
            solve2d(model, f, ("fine", 2))
        with pytest.raises(ValueError):
            solve2d(model, f, ("coarse", 3))
