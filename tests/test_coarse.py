import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    CoarseFn,
    ForceFunctional,
    SolverFailure,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    Mesh1D,
    corrector,
    equivalence_check,
    inner,
    interpolate,
    istar,
    lj_family,
    quadratic_family,
    seminorm,
    solve_coarse,
    solve_homogenized_full,
    uniform_mesh,
)
from hqc.coarse import coarse_newton_step
from hqc.study import sin_force

from oracles import coarse_step_dense


def rand_mesh(rng, grid, m):
    nodes = np.sort(rng.choice(np.arange(1, grid.N + 1), size=m, replace=False))
    return Mesh1D(grid, nodes)


def rand_zero_mean(rng, grid):
    v = rng.standard_normal(grid.N)
    return LatticeFn(grid, v - v.mean())


class TestMesh:
    def test_element_sizes_partition_unity(self):
        rng = np.random.default_rng(61)
        grid = LatticeGrid(48)
        for m in (2, 5, 11):
            mesh = rand_mesh(rng, grid, m)
            assert mesh.element_sizes().sum() == pytest.approx(1.0, rel=1e-14)

    def test_uniform_mesh_nodes(self):
        mesh = uniform_mesh(LatticeGrid(16), 4)
        assert list(mesh.nodes) == [4, 8, 12, 16]
        assert mesh.h_max == pytest.approx(0.25)

    def test_invalid_meshes(self):
        grid = LatticeGrid(16)
        with pytest.raises(ValueError):
            Mesh1D(grid, np.array([3]))
        with pytest.raises(ValueError):
            Mesh1D(grid, np.array([3, 3, 7]))
        with pytest.raises(ValueError):
            uniform_mesh(grid, 5)

    def test_h_fn_piecewise_constant(self):
        grid = LatticeGrid(8)
        mesh = Mesh1D(grid, np.array([2, 5]))
        h = mesh.h_fn().values
        # element [2, 5) holds sites 2,3,4; element [5, 2+8) holds 5,...,8,1
        assert np.allclose(h[[1, 2, 3]], 3 / 8)
        assert np.allclose(h[[4, 5, 6, 7, 0]], 5 / 8)

    def test_mean_weights_are_exact_mean(self):
        rng = np.random.default_rng(62)
        grid = LatticeGrid(36)
        for m in (2, 4, 9):
            mesh = rand_mesh(rng, grid, m)
            U = rng.standard_normal(m)
            u = CoarseFn(mesh, U)
            assert u.lattice_mean() == pytest.approx(u.to_lattice().values.mean(), abs=1e-14)


class TestInterpolate:
    def test_reproduces_affine_data(self):
        grid = LatticeGrid(12)
        mesh = Mesh1D(grid, np.array([3, 9]))
        u = CoarseFn(mesh, np.array([1.0, -0.5]))
        again = interpolate(mesh, u.to_lattice())
        assert np.allclose(again.nodal_values, u.nodal_values)
        assert np.allclose(again.to_lattice().values, u.to_lattice().values)

    def test_idempotent(self):
        rng = np.random.default_rng(63)
        grid = LatticeGrid(24)
        mesh = rand_mesh(rng, grid, 5)
        v = rand_zero_mean(rng, grid)
        once = interpolate(mesh, v).to_lattice()
        twice = interpolate(mesh, once).to_lattice()
        assert np.allclose(once.values, twice.values)

    def test_strain_constant_in_elements(self):
        rng = np.random.default_rng(64)
        grid = LatticeGrid(32)
        mesh = rand_mesh(rng, grid, 6)
        u = interpolate(mesh, rand_zero_mean(rng, grid))
        D = (np.roll(u.to_lattice().values, -1) - u.to_lattice().values) * grid.N
        jumps = np.abs(D - np.roll(D, 1))
        assert jumps[~mesh.is_node()].max() < 1e-12

    def test_total_variation_stability(self):
        # |I_h v|_{1,1} <= |v|_{1,1}
        rng = np.random.default_rng(65)
        grid = LatticeGrid(64)
        for _ in range(100):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 17)))
            v = rand_zero_mean(rng, grid)
            assert (
                seminorm(interpolate(mesh, v).to_lattice(), 1, 1)
                <= seminorm(v, 1, 1) + 1e-13
            )


class TestIstar:
    def test_interior_indicator_split(self):
        grid = LatticeGrid(12)
        mesh = Mesh1D(grid, np.array([2, 10]))
        w = np.zeros(12)
        w[5] = 1.0  # site 6 inside [2, 10): weights (10-6)/8 and (6-2)/8
        out = istar(mesh, LatticeFn(grid, w)).values
        assert out[1] == pytest.approx(0.5)
        assert out[9] == pytest.approx(0.5)
        w = np.zeros(12)
        w[3] = 2.0  # site 4: left weight (10-4)/8 = 0.75
        out = istar(mesh, LatticeFn(grid, w)).values
        assert out[1] == pytest.approx(1.5)
        assert out[9] == pytest.approx(0.5)

    def test_node_supported_unchanged(self):
        rng = np.random.default_rng(66)
        grid = LatticeGrid(20)
        mesh = rand_mesh(rng, grid, 4)
        w = np.zeros(20)
        w[mesh.nodes - 1] = rng.standard_normal(4)
        out = istar(mesh, LatticeFn(grid, w)).values
        assert np.allclose(out, w)

    def test_mass_preserved(self):
        rng = np.random.default_rng(67)
        grid = LatticeGrid(30)
        ones = LatticeFn(grid, np.ones(30))
        for _ in range(10):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 9)))
            w = LatticeFn(grid, rng.standard_normal(30))
            assert inner(istar(mesh, w), ones) == pytest.approx(inner(w, ones), abs=1e-14)

    def test_adjoint_identity_on_basis(self):
        rng = np.random.default_rng(68)
        for N in (16, 40, 64):
            grid = LatticeGrid(N)
            for _ in range(5):
                mesh = rand_mesh(rng, grid, int(rng.integers(2, 9)))
                w = LatticeFn(grid, rng.standard_normal(N))
                W = istar(mesh, w)
                for i in range(N):
                    e = np.zeros(N)
                    e[i] = 1.0
                    v = LatticeFn(grid, e)
                    lhs = inner(W, v)
                    rhs = inner(w, interpolate(mesh, v).to_lattice())
                    assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_dual_norm_stability(self):
        # |istar f|_{-1,inf} <= |f|_{-1,inf}
        from hqc import dual_seminorm_neg1, project_zero_mean

        rng = np.random.default_rng(69)
        grid = LatticeGrid(48)
        for _ in range(25):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 13)))
            f = rand_zero_mean(rng, grid)
            lhs = dual_seminorm_neg1(project_zero_mean(istar(mesh, f)))
            assert lhs <= dual_seminorm_neg1(f) + 1e-13

    def test_sup_norm_bound(self):
        # ||istar f||_inf <= (1/eps) ||h f||_inf
        rng = np.random.default_rng(70)
        grid = LatticeGrid(48)
        for _ in range(25):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 13)))
            f = rand_zero_mean(rng, grid)
            lhs = np.abs(istar(mesh, f).values).max()
            rhs = grid.N * np.abs(mesh.h_fn().values * f.values).max()
            assert lhs <= rhs + 1e-12

    def test_interpolation_error_pairing_bound(self):
        # <f, v - I_h v> <= ||(h - eps) f||_inf |v|_{1,inf}
        rng = np.random.default_rng(71)
        grid = LatticeGrid(40)
        for _ in range(25):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 11)))
            f = rand_zero_mean(rng, grid)
            v = rand_zero_mean(rng, grid)
            gap = LatticeFn(grid, v.values - interpolate(mesh, v).to_lattice().values)
            lhs = inner(f, gap)
            bound = (
                np.abs((mesh.h_fn().values - grid.eps) * f.values).max()
                * seminorm(v, 1, np.inf)
            )
            assert lhs <= bound + 1e-12


class TestForceFunctional:
    def test_kinds_validated(self):
        grid = LatticeGrid(8)
        with pytest.raises(ValueError):
            ForceFunctional("midpoint", LatticeFn(grid, np.zeros(8)))

    def test_annihilates_constants(self):
        rng = np.random.default_rng(72)
        grid = LatticeGrid(32)
        f = rand_zero_mean(rng, grid)
        for kind in ("exact_summation", "node_lumped"):
            F = ForceFunctional(kind, f)
            for _ in range(5):
                mesh = rand_mesh(rng, grid, int(rng.integers(2, 9)))
                assert abs(F.node_values(mesh).sum()) < 1e-13

    def test_exact_summation_has_no_gap(self):
        rng = np.random.default_rng(73)
        grid = LatticeGrid(32)
        f = rand_zero_mean(rng, grid)
        mesh = rand_mesh(rng, grid, 6)
        gap = ForceFunctional("exact_summation", f).quadrature_gap(mesh)
        assert np.all(gap == 0.0)

    def test_rhs_lattice_matches_pairing(self):
        rng = np.random.default_rng(74)
        grid = LatticeGrid(24)
        f = rand_zero_mean(rng, grid)
        mesh = rand_mesh(rng, grid, 5)
        for kind in ("exact_summation", "node_lumped"):
            F = ForceFunctional(kind, f)
            W = F.rhs_lattice(mesh)
            b = F.node_values(mesh)
            for j in range(5):
                e = np.zeros(24)
                e[mesh.nodes[j] - 1] = 1.0
                # hat-function pairing: <W, w_xi^h> over the coarse basis
                hat = interpolate(mesh, LatticeFn(grid, e)).to_lattice()
                assert inner(W, hat) == pytest.approx(b[j], abs=1e-13)


@pytest.fixture(scope="module")
def lj_setup():
    lj = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(lj)
    grid = LatticeGrid(256, 2)
    f = sin_force(grid, 50.0, 1.0)
    return law, grid, f


class TestSolveCoarse:
    def test_full_mesh_matches_homogenized_full(self, lj_setup):
        law, grid, f = lj_setup
        mesh = uniform_mesh(grid, grid.N)
        cs = solve_coarse(law, mesh, ForceFunctional("exact_summation", f))
        full = solve_homogenized_full(law, grid, f, tol=1e-10)
        diff = LatticeFn(grid, cs.u.to_lattice().values - full.u.values)
        assert seminorm(diff, 1, np.inf) < 1e-9

    def test_quadratic_matches_fem_oracle(self):
        rng = np.random.default_rng(75)
        k1, k2 = 1.3, 0.6
        grid = LatticeGrid(64, 2)
        law = HomogenizedLaw(quadratic_family([k1, k2], [0.0, 0.0]))
        f = rand_zero_mean(rng, grid)
        mesh = Mesh1D(grid, np.array([8, 20, 34, 40, 56, 64]))
        F = ForceFunctional("exact_summation", f)
        cs = solve_coarse(law, mesh, F)
        # oracle: assemble the nodal stiffness with the harmonic-mean
        # coefficient and solve with the lattice-mean constraint
        hm = 2 * k1 * k2 / (k1 + k2)
        M = mesh.n_elements
        h = mesh.element_sizes()
        K = np.zeros((M, M))
        for j in range(M):
            jn = (j + 1) % M
            K[j, j] += hm / h[j]
            K[jn, jn] += hm / h[j]
            K[j, jn] -= hm / h[j]
            K[jn, j] -= hm / h[j]
        b = F.node_values(mesh)
        mw = mesh.mean_weights()
        KKT = np.zeros((M + 1, M + 1))
        KKT[:M, :M] = K
        KKT[:M, M] = mw
        KKT[M, :M] = mw
        U = np.linalg.solve(KKT, np.concatenate([b, [0.0]]))[:M]
        assert np.abs(cs.u.nodal_values - U).max() < 1e-11

    def test_strain_constant_inside_elements(self, lj_setup):
        law, grid, f = lj_setup
        mesh = uniform_mesh(grid, 16)
        cs = solve_coarse(law, mesh, ForceFunctional("exact_summation", f))
        u = cs.u.to_lattice()
        D = (np.roll(u.values, -1) - u.values) * grid.N
        assert np.abs((D - np.roll(D, 1))[~mesh.is_node()]).max() < 1e-12

    def test_zero_lattice_mean(self, lj_setup):
        law, grid, f = lj_setup
        cs = solve_coarse(law, uniform_mesh(grid, 8), ForceFunctional("node_lumped", f))
        assert abs(cs.u.lattice_mean()) < 1e-13


class TestCoarseNewtonStep:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reduced_solve(self, m, seed):
        # M from 2 to 12 crosses the dense cut-off n <= 4R + 2 = 6 of the
        # banded solver; sum(R) != 0 exercises the span(mw) component
        rng = np.random.default_rng(seed)
        mesh = rand_mesh(rng, LatticeGrid(64), m)
        h, mw = mesh.element_sizes(), mesh.mean_weights()
        d2 = rng.uniform(0.1, 10.0, m)
        R = rng.standard_normal(m) + rng.uniform(-1.0, 1.0)
        step = coarse_newton_step(d2, h, mw, R)
        ref = coarse_step_dense(d2, h, mw, R)
        assert np.abs(step - ref).max() <= 1e-9 * np.abs(ref).max()
        assert abs(mw @ step) <= 1e-12 * np.abs(ref).max()


class FlatLaw:
    """Stub law with zero stiffness: every coarse Jacobian is singular."""

    def eval_strains(self, z, warm=None):
        z = np.atleast_1d(z)
        zeros = np.zeros(z.size)
        return zeros, zeros, zeros, np.zeros((z.size, 2))


class TestSingularJacobian:
    # M <= 6 takes the dense path of the banded solver, M > 6 the banded
    # path and its sparse fallback (which returns NaN on a singular matrix)
    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 16])
    def test_raises_solver_failure(self, m):
        grid = LatticeGrid(96, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        with pytest.raises(SolverFailure, match="singular coarse Jacobian"):
            solve_coarse(FlatLaw(), uniform_mesh(grid, m), F)


class TestCorrector:
    def test_single_species_identity(self):
        rng = np.random.default_rng(76)
        law = HomogenizedLaw(lj_family([1.0], R=2))
        grid = LatticeGrid(32)
        u = LatticeFn(grid, 0.01 * rng.standard_normal(32))
        u = LatticeFn(grid, u.values - u.values.mean())
        assert np.allclose(corrector(law, u).values, u.values)

    def test_zero_mean_always(self, lj_setup):
        law, grid, f = lj_setup
        cs = solve_coarse(law, uniform_mesh(grid, 8), ForceFunctional("exact_summation", f))
        assert abs(corrector(law, cs.u).values.mean()) < 1e-13

    def test_solution_fields_match_cold_cell_solves(self, lj_setup):
        law, grid, f = lj_setup
        for m in (4, 32):
            cs = solve_coarse(law, uniform_mesh(grid, m), ForceFunctional("exact_summation", f))
            reused = corrector(law, cs).values
            cold = corrector(law, cs.u).values
            assert np.abs(reused - cold).max() <= 1e-13 * np.abs(cold).max()

    def test_rejects_other_types(self, lj_setup):
        law, _, _ = lj_setup
        with pytest.raises(TypeError):
            corrector(law, np.zeros(8))


class TestEquivalence:
    def test_quadratic_random_meshes(self):
        rng = np.random.default_rng(77)
        grid = LatticeGrid(64, 2)
        law = HomogenizedLaw(quadratic_family([1.0, 2.0], [0.05, -0.05]))
        f = rand_zero_mean(rng, grid)
        for _ in range(5):
            mesh = rand_mesh(rng, grid, int(rng.integers(3, 11)))
            for kind in ("exact_summation", "node_lumped"):
                rep = equivalence_check(law, mesh, ForceFunctional(kind, f))
                assert rep.max_diff <= 1e-9
                assert rep.max_nonnode_strain_jump <= 1e-9

    def test_degenerate_full_mesh(self):
        rng = np.random.default_rng(78)
        grid = LatticeGrid(32, 2)
        law = HomogenizedLaw(quadratic_family([1.0, 2.0], [0.0, 0.0]))
        f = rand_zero_mean(rng, grid)
        mesh = uniform_mesh(grid, 32)
        rep = equivalence_check(law, mesh, ForceFunctional("exact_summation", f))
        assert rep.max_diff <= 1e-10
        assert rep.max_nonnode_strain_jump == 0.0  # no non-node sites

    def test_lj_mesh(self, lj_setup):
        law, grid, f = lj_setup
        rep = equivalence_check(law, uniform_mesh(grid, 8),
                                ForceFunctional("exact_summation", f))
        assert rep.max_diff <= 1e-8
        assert rep.max_nonnode_strain_jump <= 1e-8
