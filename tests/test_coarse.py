from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    CoarseFn,
    CoarseSolution,
    DomainError,
    ForceFunctional,
    SolverFailure,
    StabilityError,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    Mesh1D,
    adapt_mesh,
    corrector,
    equivalence_check,
    indicator_terms,
    inner,
    interpolate,
    istar,
    lj_family,
    load_experiment_config,
    prolong,
    quadratic_family,
    seminorm,
    solve_coarse,
    uniform_mesh,
)
from hqc.coarse import coarse_newton_step
from hqc.lattice import primitive_dual_norm
from hqc.microhom import newton_cells
from hqc.potentials import PotentialFamily
from hqc.study import build_family, sin_force

from oracles import coarse_dual_lp, coarse_step_dense


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

    def test_site_maps_computed_once_and_read_only(self):
        mesh = rand_mesh(np.random.default_rng(63), LatticeGrid(40), 6)
        maps = mesh.site_maps()
        assert all(a is b for a, b in zip(maps, mesh.site_maps()))
        for arr in maps:
            with pytest.raises(ValueError):
                arr[0] = 0


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


class TestProlong:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 96),
        m=st.integers(2, 12),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refinement_reproduces_coarse_function(self, n, m, extra, seed):
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        coarse = rand_mesh(rng, grid, min(m, n))
        free = np.setdiff1d(np.arange(1, n + 1), coarse.nodes)
        added = rng.choice(free, size=min(extra, free.size), replace=False)
        fine = Mesh1D(grid, np.union1d(coarse.nodes, added))
        u = CoarseFn(coarse, rng.standard_normal(coarse.n_elements))
        uf, parent = prolong(u, fine)
        ref = u.to_lattice().values
        assert np.abs(uf.to_lattice().values - ref).max() <= 1e-14 * np.abs(ref).max()
        # every site of a fine element lies in that element's parent
        coarse_elem, _ = coarse.site_maps()
        fine_elem, _ = fine.site_maps()
        assert np.array_equal(coarse_elem, parent[fine_elem])


class TestIstar:
    @given(n=st.integers(2, 96), m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_two_add_at_passes(self, n, m, seed):
        # the accumulation istar replaced: all left shares, then all right ones
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        mesh = rand_mesh(rng, grid, min(m, n))
        w = rng.standard_normal(n)
        site_elem, site_offs = mesh.site_maps()
        left = mesh.nodes[site_elem] - 1
        right = mesh.nodes[(site_elem + 1) % mesh.n_elements] - 1
        lam = 1.0 - site_offs / mesh.site_counts()[site_elem]
        expected = np.zeros(n)
        np.add.at(expected, left, w * lam)
        np.add.at(expected, right, w * (1.0 - lam))
        assert np.array_equal(istar(mesh, LatticeFn(grid, w)).values, expected)

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
    @pytest.mark.parametrize("kind", ["exact_summation", "node_lumped"])
    @pytest.mark.parametrize("m", [16, 64])
    def test_nonzero_mean_force_is_projected(self, lj_setup, kind, m):
        # a constant force has no coarse equilibrium; both kinds drop it, on
        # a coarse mesh and on the all-node mesh
        law, _, _ = lj_setup
        grid = LatticeGrid(64, 2)
        f = sin_force(grid, 5.0, 1.0)
        mesh = uniform_mesh(grid, m)
        shifted = solve_coarse(law, mesh, ForceFunctional(kind, LatticeFn(grid, f.values + 0.3)))
        ref = solve_coarse(law, mesh, ForceFunctional(kind, f))
        assert shifted.residual_dual <= 1e-10
        assert np.abs(shifted.u.nodal_values - ref.u.nodal_values).max() <= 1e-12

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


class TestNestedStart:
    @staticmethod
    def solve_both(law, mesh, F, init):
        """Cold and nested solves on mesh; the nested one must agree."""
        cold = solve_coarse(law, mesh, F)
        nested = solve_coarse(law, mesh, F, init=init)
        U = cold.u.nodal_values
        assert np.abs(nested.u.nodal_values - U).max() <= 1e-10 * np.abs(U).max()
        assert np.abs(nested.chi - cold.chi).max() <= 1e-12 * np.abs(cold.chi).max()
        return cold, nested

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 128])
    def test_uniform_refinement(self, lj_setup, m):
        law, grid, f = lj_setup
        F = ForceFunctional("exact_summation", f)
        init = solve_coarse(law, uniform_mesh(grid, m), F)
        cold, nested = self.solve_both(law, uniform_mesh(grid, 2 * m), F, init)
        assert nested.iterations <= cold.iterations

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_adaptive_step(self, lj_setup, m):
        law, grid, f = lj_setup
        F = ForceFunctional("exact_summation", f)
        mesh = uniform_mesh(grid, m)
        init = solve_coarse(law, mesh, F)
        fine = adapt_mesh(mesh, indicator_terms(init.u, f, F), 0.5)
        assert fine.n_elements > m
        cold, nested = self.solve_both(law, fine, F, init)
        assert nested.iterations <= cold.iterations

    def test_non_nested_init(self, lj_setup):
        law, _, _ = lj_setup
        grid = LatticeGrid(240, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        init = solve_coarse(law, uniform_mesh(grid, 6), F)
        self.solve_both(law, uniform_mesh(grid, 8), F, init)

    def test_inadmissible_cell_field_starts_cold(self, lj_setup):
        law, grid, f = lj_setup
        F = ForceFunctional("exact_summation", f)
        cs = solve_coarse(law, uniform_mesh(grid, 8), F)
        # a nearest-neighbour bond of this field is z - 1.4 < -1 at every strain
        chi = np.tile([0.7, -0.7], (8, 1))
        with pytest.raises(DomainError):
            newton_cells(law.family, cs.u.strains(), chi, law.tol, law.max_iter)
        init = CoarseSolution(cs.u, cs.residual_dual, cs.iterations, chi)
        self.solve_both(law, uniform_mesh(grid, 16), F, init)


def graded_mesh(rng, m, ratio):
    """Mesh of m elements of 1 to ``ratio`` sites each, both extremes present."""
    counts = rng.integers(1, ratio + 1, m)
    counts[:2] = 1, ratio
    rng.shuffle(counts)
    return Mesh1D(LatticeGrid(int(counts.sum())), np.cumsum(counts))


def stiffnesses(rng, h, indefinite):
    """Element stiffnesses of magnitude in [0.1, 10]; indefinite ones take
    mixed signs, with sum(h / K) kept away from 0, the closed form's
    singular set."""
    K = rng.uniform(0.1, 10.0, h.size)
    if indefinite:
        signs = rng.choice([-1.0, 1.0], h.size)
        signs[:2] = 1.0, -1.0
        K *= signs
        if abs((h / K).sum()) < 0.1 * (h / np.abs(K)).sum():
            K[K < 0] *= 2.0  # halves the negative compliances
    return K


class TestCoarseNewtonStep:
    @staticmethod
    def check(mesh, K, R):
        h, mw = mesh.element_sizes(), mesh.mean_weights()
        dU, dz = coarse_newton_step(K, h, mw, np.cumsum(R))
        ref = coarse_step_dense(K, h, mw, R)
        scale = np.abs(ref).max()
        assert np.abs(dU - ref).max() <= 1e-9 * scale
        assert abs(mw @ dU) <= 1e-12 * scale
        # dz are the element strains of dU, which the cell step reads
        ref_dz = np.diff(ref, append=ref[:1]) / h
        assert np.abs(dz - ref_dz).max() <= 1e-9 * np.abs(ref_dz).max()

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 64),
        ratio=st.integers(1, 20),
        indefinite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reduced_solve(self, m, ratio, indefinite, seed):
        # M = 2 has both neighbours of a node in one element; sum(R) != 0
        # exercises the span(mw) component
        rng = np.random.default_rng(seed)
        R = rng.standard_normal(m) + rng.uniform(-1.0, 1.0)
        mesh = graded_mesh(rng, m, ratio)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.parametrize(
        "m, indefinite", [(1024, True), (4096, False)], ids=["M1024_indefinite", "M4096"]
    )
    def test_large_meshes(self, m, indefinite):
        rng = np.random.default_rng(m)
        R = rng.standard_normal(m) + 0.3
        mesh = graded_mesh(rng, m, 20)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.parametrize("indefinite", [False, True])
    def test_all_node_mesh(self, indefinite):
        # the full-lattice homogenized problem: M = N, every h = eps
        rng = np.random.default_rng(80)
        grid = LatticeGrid(1024)
        R = rng.standard_normal(grid.N) + 0.3
        mesh = uniform_mesh(grid, grid.N)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["zero_stiffness", "zero_compliance_sum"])
    def test_singular_raises(self, case):
        rng = np.random.default_rng(81)
        mesh = graded_mesh(rng, 8, 5)
        h, mw = mesh.element_sizes(), mesh.mean_weights()
        K = rng.uniform(0.1, 10.0, 8)
        if case == "zero_stiffness":
            K[3] = 0.0
        else:
            # K = h * (1, -1, 1, -1, ...): sum(h / K) is exactly 0
            K = h * np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        R = rng.standard_normal(8)
        with pytest.raises(SolverFailure, match="singular coarse Jacobian"):
            coarse_newton_step(K, h, mw, np.cumsum(R))


class TestCoarseDualNorm:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_lp_oracle(self, m, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(m)
        q -= q.mean()
        assert primitive_dual_norm(q) == pytest.approx(coarse_dual_lp(q), rel=1e-9)


class FlatFamily(PotentialFamily):
    """Bond law with phi = phi' = phi'' = 0, admissible everywhere."""

    def admissible(self, a):
        return np.ones(np.shape(a), dtype=bool)

    def _laws(self, a):
        return (lambda: np.zeros_like(a),) * 3


class TestSingularJacobian:
    # on p = 1 the condensed stiffness is <d2> = 0 on every element, which
    # the closed-form step rejects before it divides, for every M
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 16])
    def test_raises_solver_failure(self, m):
        grid = LatticeGrid(96)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        law = HomogenizedLaw(FlatFamily(R=1, p=1))
        with pytest.raises(SolverFailure, match="singular coarse Jacobian"):
            solve_coarse(law, uniform_mesh(grid, m), F)


class TestSingularCellHessian:
    @pytest.mark.parametrize("m", [2, 8])
    def test_raises_stability_error(self, m):
        # on p = 2 every reduced cell Hessian is 0, and the first evaluation
        # names the cell of smallest eigenvalue, its strain and the eigenvalue
        grid = LatticeGrid(96, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        law = HomogenizedLaw(FlatFamily(R=2, p=2))
        with pytest.raises(StabilityError, match=r"singular reduced cell Hessian: cell 0 "
                           r"has strain 0 and smallest Hessian eigenvalue -?0$"):
            solve_coarse(law, uniform_mesh(grid, m), F)


class TestStabilityCheck:
    # The shipped lj_1d chain on 4 nodes: past amplitude 150.57 the most
    # stretched element passes the inflection of the homogenized law, yet
    # Newton still converges, onto the unstable branch.
    @pytest.fixture(scope="class")
    def shipped(self):
        cfg = load_experiment_config(Path(__file__).parents[1] / "configs" / "lj_1d.cfg")
        law = HomogenizedLaw(build_family(cfg), tol=cfg.micro_tol)
        return cfg, LatticeGrid(cfg.N, cfg.p), law

    def solve(self, shipped, amplitude):
        cfg, grid, law = shipped
        F = ForceFunctional(cfg.functional_kind, sin_force(grid, amplitude, cfg.force_phase))
        return solve_coarse(law, uniform_mesh(grid, 4), F, tol=cfg.solver_tol)

    def test_stable_load_solves(self, shipped):
        cs = self.solve(shipped, 150.0)
        d2 = shipped[2].eval_strains(cs.u.strains())[2]
        assert d2.min() == pytest.approx(0.332, abs=0.01)

    def test_unstable_branch_raises(self, shipped):
        with pytest.raises(StabilityError, match=r"element 2 has strain 0\.1739.*W'' = -11\.4"):
            self.solve(shipped, 170.0)


class FailingOnceFamily(PotentialFamily):
    """Wraps a family; its second ``bonds(a, 1, 2)`` call, the first trial
    point of the first coarse Newton step, raises SolverFailure."""

    def __init__(self, family):
        super().__init__(family.R, family.p)
        self.family = family
        self.calls = 0

    def admissible(self, a):
        return self.family.admissible(a)

    def bonds(self, a, *orders):
        if orders == (1, 2):
            self.calls += 1
            if self.calls == 2:
                raise SolverFailure("cell evaluation failed")
        return self.family.bonds(a, *orders)


class TestCellFailureAtTrialPoint:
    def test_step_is_halved(self, lj_setup):
        law, grid, f = lj_setup
        mesh = uniform_mesh(grid, 16)
        F = ForceFunctional("exact_summation", f)
        cs = solve_coarse(HomogenizedLaw(FailingOnceFamily(law.family)), mesh, F)
        assert cs.trace[1][2] == 0.5
        assert cs.residual_dual <= 1e-10
        ref = solve_coarse(law, mesh, F)
        assert np.abs(cs.u.nodal_values - ref.u.nodal_values).max() <= 1e-10


class TestCorrector:
    def test_single_species_identity(self):
        rng = np.random.default_rng(76)
        law = HomogenizedLaw(lj_family([1.0], R=2))
        grid = LatticeGrid(32)
        u = LatticeFn(grid, 0.01 * rng.standard_normal(32))
        u = LatticeFn(grid, u.values - u.values.mean())
        uc = corrector(law, interpolate(uniform_mesh(grid, grid.N), u))
        assert np.allclose(uc.values, u.values)

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

    @pytest.mark.parametrize("kind", ["exact_summation", "node_lumped"])
    def test_lj_large_grid_default_settings(self, lj_setup, kind):
        # the all-node solve terminates on the dual norm, whose floor does
        # not grow with N, so the default tolerance holds at N = 4096
        law, _, _ = lj_setup
        grid = LatticeGrid(4096, 2)
        f = sin_force(grid, 50.0, 1.0)
        rep = equivalence_check(law, uniform_mesh(grid, 64), ForceFunctional(kind, f))
        assert rep.max_diff <= 1e-10
        assert rep.max_nonnode_strain_jump <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        half_n=st.integers(8, 64),
        m=st.integers(2, 12),
        lj=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_meshes(self, lj_setup, half_n, m, lj, seed):
        # the equivalence lemma on random meshes and rough random forces, for
        # the quadratic family and for the LJ chain at a small amplitude
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(2 * half_n, 2)
        if lj:
            law, amplitude = lj_setup[0], 2.0
        else:
            law, amplitude = HomogenizedLaw(quadratic_family([1.0, 2.0], [0.05, -0.05])), 50.0
        f = LatticeFn(grid, amplitude * rand_zero_mean(rng, grid).values)
        mesh = rand_mesh(rng, grid, m)
        for kind in ("exact_summation", "node_lumped"):
            rep = equivalence_check(law, mesh, ForceFunctional(kind, f))
            assert rep.max_diff <= 1e-10
            assert rep.max_nonnode_strain_jump <= 1e-10
