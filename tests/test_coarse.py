import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hqc import (
    CoarseFn,
    CoarseSolution,
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
    istar,
    lj_family,
    load_experiment_config,
    quadratic_family,
    seminorm,
    solve_coarse,
    solve_coarse_meshes,
    uniform_mesh,
)
import hqc.coarse
from hqc.coarse import _element_of, _istar_nodes, coarse_newton_step, element_reduce
from hqc.atomistic import NEWTON_TOL, AtomisticProblem
from hqc.lattice import primitive_dual_norm
from hqc.microhom import CELL_TOL, condense_cells
from hqc.potentials import PotentialFamily
from hqc.study import build_family, sin_force

from oracles import (
    coarse_dual_lp,
    coarse_step_dense,
    corrected_on_sites,
    element_max_rolled,
    energy_grad_hess,
    equilibrated_on_sites,
    interpolate,
    interpolation_matrix,
    istar_nodes_rolled,
    lattice_mean,
    site_elements,
)


def rand_mesh(rng, grid, m):
    nodes = np.sort(rng.choice(np.arange(1, grid.N + 1), size=m, replace=False))
    return Mesh1D(grid, nodes)


def one_site_mesh(rng, grid, m):
    """Random mesh with a 1-site element; its first node is random, so the
    last element mostly wraps past site N and has sites before node 0."""
    nodes = rng.choice(np.arange(1, grid.N + 1), size=m, replace=False)
    return Mesh1D(grid, np.union1d(nodes, nodes[0] % grid.N + 1))


def rand_distances(rng, p):
    """Lennard-Jones distances of p species in [1, 1.25]: near-equal ones
    give |chi| near 0, the shipped chain's 1 and 1.125 |chi| near 0.03."""
    return rng.uniform(1.0, 1.25, p)


def site_h(mesh):
    """h(x) = h_T at every site x of T, from the site loop."""
    elem = site_elements(mesh.nodes, mesh.grid.N)
    return np.bincount(elem)[elem] * mesh.grid.eps


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

    def test_mean_weights_are_exact_mean(self):
        rng = np.random.default_rng(62)
        grid = LatticeGrid(36)
        for m in (2, 4, 9):
            mesh = rand_mesh(rng, grid, m)
            U = rng.standard_normal(m)
            u = CoarseFn(mesh, U)
            assert lattice_mean(u) == pytest.approx(u.to_lattice().values.mean(), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 120), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_to_lattice_and_h_fn_match_site_oracles(self, n, m, seed):
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        mesh = one_site_mesh(rng, grid, min(m, n))
        U = rng.standard_normal(mesh.n_elements)
        v = np.zeros(n)
        v[mesh.nodes - 1] = U
        ref = interpolation_matrix(mesh.nodes, n) @ v
        assert np.abs(CoarseFn(mesh, U).to_lattice().values - ref).max() <= 1e-14 * np.abs(U).max()
        elem = site_elements(mesh.nodes, n)
        assert np.array_equal(mesh.element_sizes()[elem], site_h(mesh))


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


class TestElementOf:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 96),
        m=st.integers(2, 12),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refined_elements_lie_in_their_parent(self, n, m, extra, seed):
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        coarse = rand_mesh(rng, grid, min(m, n))
        free = np.setdiff1d(np.arange(1, n + 1), coarse.nodes)
        added = rng.choice(free, size=min(extra, free.size), replace=False)
        fine = Mesh1D(grid, np.union1d(coarse.nodes, added))
        parent = _element_of(coarse, fine.nodes)
        # every site of a fine element lies in the element of its first node
        assert np.array_equal(site_elements(coarse.nodes, n), parent[site_elements(fine.nodes, n)])


def node_load_bound(mesh, w):
    """Roundoff bound on the node values of istar(w): an element of n sites
    weights its sites by their indices i < 2 N and subtracts its first index
    times its sum, so its right share may lose about log10(N / n) digits.
    Bounded by 4 roundoffs of (N / n + n) times the element's sum of |w|,
    gathered at each node from its two elements; random meshes with N <= 512
    reach 1.5 of the 4, and the oracles' own roundoff is in the n term."""
    n = mesh.site_counts()
    per_element = (mesh.grid.N / n + n) * element_reduce(np.add, mesh, np.abs(w))
    return 4 * np.finfo(float).eps * (per_element + np.roll(per_element, 1))


class TestIstar:
    @given(n=st.integers(2, 300), m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_transpose(self, n, m, seed):
        # istar is the transpose of the interpolation matrix, within the
        # roundoff bound of TestSiteOrderReductions on its node values
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        mesh = rand_mesh(rng, grid, min(m, n))
        w = rng.standard_normal(n)
        A = interpolation_matrix(mesh.nodes, n)
        err = np.abs(istar(mesh, LatticeFn(grid, w)).values - A.T @ w)
        bound = np.zeros(n)
        bound[mesh.nodes - 1] = node_load_bound(mesh, w)
        assert (err <= bound).all()

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
            assert istar(mesh, w).values.mean() == pytest.approx(w.values.mean(), abs=1e-14)

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
                    lhs = W.values @ v.values / N
                    rhs = w.values @ interpolate(mesh, v).to_lattice().values / N
                    assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_dual_norm_stability(self):
        # |istar f|_{-1,inf} <= |f|_{-1,inf}
        rng = np.random.default_rng(69)
        grid = LatticeGrid(48)
        for _ in range(25):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 13)))
            f = rand_zero_mean(rng, grid)
            W = istar(mesh, f).values
            lhs = primitive_dual_norm(W - W.mean(), grid.eps)
            assert lhs <= primitive_dual_norm(f.values, grid.eps) + 1e-13

    def test_sup_norm_bound(self):
        # ||istar f||_inf <= (1/eps) ||h f||_inf
        rng = np.random.default_rng(70)
        grid = LatticeGrid(48)
        for _ in range(25):
            mesh = rand_mesh(rng, grid, int(rng.integers(2, 13)))
            f = rand_zero_mean(rng, grid)
            lhs = np.abs(istar(mesh, f).values).max()
            rhs = grid.N * np.abs(site_h(mesh) * f.values).max()
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
            lhs = f.values @ gap.values / grid.N
            bound = (
                np.abs((site_h(mesh) - grid.eps) * f.values).max()
                * seminorm(v, 1, np.inf)
            )
            assert lhs <= bound + 1e-12


@st.composite
def oracle_meshes(draw):
    """Meshes of N <= 512 sites, p = 1..3: 2-node meshes, the all-node mesh,
    and meshes with and without sites 1 and N as nodes."""
    p = draw(st.integers(1, 3))
    grid = LatticeGrid(p * draw(st.integers(2 if p == 1 else 1, 512 // p)), p)
    N = grid.N
    kind = draw(st.sampled_from(["two", "all", "some"]))
    if kind == "all":
        return Mesh1D(grid, np.arange(1, N + 1))
    ends = [site for site in (1, N) if draw(st.booleans())]
    m = 2 if kind == "two" else draw(st.integers(2, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner_sites = np.arange(2, N)  # neither site 1 nor site N
    extra = min(max(m - len(ends), 0), inner_sites.size)
    nodes = np.union1d(ends, rng.choice(inner_sites, size=extra, replace=False)).astype(int)
    assume(nodes.size >= 2)
    return Mesh1D(grid, nodes)


class TestSiteOrderReductions:
    """The node loads and the element maxima reduce the lattice in site
    order; the oracles roll it into element order first."""

    @given(mesh=oracle_meshes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_match_the_rolled_oracles(self, mesh, seed):
        w = np.random.default_rng(seed).standard_normal(mesh.grid.N)
        new, old = _istar_nodes(mesh, w), istar_nodes_rolled(mesh.nodes, w)
        assert (np.abs(new - old) <= node_load_bound(mesh, w)).all()
        if mesh.n_elements == mesh.grid.N:  # the all-node mesh: istar is the identity
            assert np.array_equal(new, w) and np.array_equal(old, w)
        # maxima have no roundoff: bit for bit, and so are those of |w|
        assert np.array_equal(element_reduce(np.maximum, mesh, w),
                              element_max_rolled(mesh.nodes, w))
        absmax = np.maximum(element_reduce(np.maximum, mesh, w),
                            -element_reduce(np.minimum, mesh, w))
        assert np.array_equal(absmax, element_max_rolled(mesh.nodes, np.abs(w)))

    @pytest.mark.parametrize("m", [16, 256])
    def test_node_loads_peak_at_65536_sites(self, m):
        # one lattice-sized temporary, the weights by site index formed in
        # place, plus per-element arrays
        grid = LatticeGrid(65536, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        mesh = uniform_mesh(grid, m)
        tracemalloc.start()
        try:
            F.node_values(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * grid.N + 64 * m


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
                assert W.values @ hat.values / grid.N == pytest.approx(b[j], abs=1e-13)


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
        assert abs(lattice_mean(cs.u)) < 1e-13


class TestNestedStart:
    @staticmethod
    def agree(cs, ref):
        """cs agrees with ref: nodal values to 1e-10 and cell fields to 1e-12
        of their largest entry in ref, or to NEWTON_TOL / 100 and CELL_TOL /
        10 where those are larger: a solve stops at a residual, so two
        solutions of a law whose |U| or |chi| is small differ by more than
        roundoff of it."""
        U = ref.u.nodal_values
        dU = np.abs(cs.u.nodal_values - U).max()
        assert dU <= max(1e-10 * np.abs(U).max(), 1e-2 * NEWTON_TOL)
        dchi = np.abs(cs.chi - ref.chi).max()
        assert dchi <= max(1e-12 * np.abs(ref.chi).max(), 0.1 * CELL_TOL)

    @classmethod
    def solve_both(cls, law, mesh, F, init):
        """Cold and nested solves on mesh; the nested one must agree."""
        cold = solve_coarse(law, mesh, F)
        nested = solve_coarse(law, mesh, F, init=init)
        cls.agree(nested, cold)
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
        # a nested start needs a refinement of init's mesh: a one-site mesh
        # on other nodes does not refine 3 (8 nodes on 6: TestStartEvaluations)
        law, _, _ = lj_setup
        grid = LatticeGrid(240, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        init = solve_coarse(law, Mesh1D(grid, np.array([10, 90, 170])), F)
        with pytest.raises(ValueError, match="the 4-node mesh does not refine the 3-node mesh"):
            solve_coarse(law, Mesh1D(grid, np.array([10, 90, 91, 171])), F, init=init)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 3),
        k=st.integers(4, 24),
        m=st.integers(2, 8),
        kind=st.sampled_from(["uniform", "adapt"]),
        shipped_spread=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_meshes(self, p, k, m, kind, shipped_spread, seed):
        # nested starts on uniform and adaptive refinements, one-site
        # elements included
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(2 * m * k * p, p)
        if shipped_spread:  # the shipped chain's distances are 1 and 1.125
            l = rng.uniform(1.0, 1.125, p)
            l[[np.argmin(l), np.argmax(l)]] = 1.0, 1.125
        else:
            l = rand_distances(rng, p)
        law = HomogenizedLaw(lj_family(l, R=2))
        F = ForceFunctional("exact_summation", sin_force(grid, 20.0, rng.uniform(0, 2 * np.pi)))
        old = uniform_mesh(grid, m) if kind == "uniform" else one_site_mesh(rng, grid, m)
        init = solve_coarse(law, old, F)
        if kind == "uniform":
            mesh = uniform_mesh(grid, 2 * m)
        else:
            mesh = adapt_mesh(old, indicator_terms(init.u, F.f, F), rng.uniform(0.3, 1.0))
        cold, nested = self.solve_both(law, mesh, F, init)
        if shipped_spread:
            # on refinements of the shipped spread a nested start costs no
            # step; on other families it can cost one, as the first mesh's
            # stopping residual, up to NEWTON_TOL, carries over
            assert nested.iterations <= cold.iterations


class TestSolveCoarseMeshes:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(1, 3),
        k=st.integers(1, 8),
        exponents=st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_a_solve_per_mesh(self, p, k, exponents, seed):
        # a uniform schedule in any order, 2 to 64 nodes
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(64 * k * p, p)
        law = HomogenizedLaw(lj_family(rand_distances(rng, p), R=2))
        F = ForceFunctional("exact_summation", sin_force(grid, 20.0, rng.uniform(0, 2 * np.pi)))
        meshes = [uniform_mesh(grid, 2**e) for e in exponents]
        for mesh, cs in zip(meshes, solve_coarse_meshes(law, meshes, F), strict=True):
            assert cs.u.mesh is mesh and cs.cells.stiffness.size == mesh.n_elements
            TestNestedStart.agree(cs, solve_coarse(law, mesh, F))
            assert cs.residual_dual <= NEWTON_TOL
            # iterations: the first step at which the mesh's own merit is converged
            merits = [res for _it, res, _t in cs.trace]
            assert merits[cs.iterations] <= NEWTON_TOL < min(merits[: cs.iterations], default=1)

    @pytest.mark.parametrize("schedule", [(4, 8), (8, 4)])
    def test_unstable_mesh_is_named(self, schedule):
        # at amplitude 170 the shipped chain converges onto the unstable
        # branch on 4 and on 8 nodes; the first mesh of the schedule fails
        # its check, as it does alone
        cfg = load_experiment_config(Path(__file__).parents[1] / "configs" / "lj_1d.cfg")
        grid = LatticeGrid(cfg.N, cfg.p)
        law = HomogenizedLaw(build_family(cfg))
        F = ForceFunctional(cfg.functional_kind, sin_force(grid, 170.0, cfg.force_phase))
        with pytest.raises(StabilityError) as alone:
            solve_coarse(law, uniform_mesh(grid, schedule[0]), F)
        assert str(alone.value).startswith(f"{schedule[0]}-node mesh: unstable coarse")
        with pytest.raises(StabilityError) as batch:
            solve_coarse_meshes(law, [uniform_mesh(grid, m) for m in schedule], F)
        assert str(batch.value) == str(alone.value)

    def test_stalled_mesh_is_named(self):
        # at amplitude 155 no mesh of the shipped chain past 8 nodes
        # converges; the failure names the mesh of largest merit
        cfg = load_experiment_config(Path(__file__).parents[1] / "configs" / "lj_1d.cfg")
        grid = LatticeGrid(cfg.N, cfg.p)
        law = HomogenizedLaw(build_family(cfg))
        F = ForceFunctional(cfg.functional_kind, sin_force(grid, 155.0, cfg.force_phase))
        meshes = [uniform_mesh(grid, m) for m in (64, 16, 4, 8)]
        with pytest.raises(SolverFailure, match=r"^64-node mesh: coarse Newton: residual "):
            solve_coarse_meshes(law, meshes, F)


class TestStartEvaluations:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return condense_cells(*args)

        monkeypatch.setattr(hqc.coarse, "condense_cells", counting)
        return calls

    def test_one_cell_evaluation_per_trial(self, counted):
        # the shipped chain: each solve, cold or nested, evaluates its trial
        # points and nothing else; no step is halved
        cfg = load_experiment_config(Path(__file__).parents[1] / "configs" / "lj_1d.cfg")
        grid = LatticeGrid(cfg.N, cfg.p)
        law = HomogenizedLaw(build_family(cfg))
        F = ForceFunctional(cfg.functional_kind, sin_force(grid, cfg.force_amplitude,
                                                         cfg.force_phase))
        cs = None
        for m in cfg.mesh_schedule:
            counted.clear()
            cs = solve_coarse(law, uniform_mesh(grid, m), F, init=cs)
            assert all(t == 1.0 for _it, _res, t in cs.trace[1:])
            assert len(counted) == len(cs.trace) - 1

    def test_non_nested_start_is_evaluated(self, lj_setup, counted):
        # 8 nodes do not refine 6: refused before any cell is condensed
        law, _, _ = lj_setup
        grid = LatticeGrid(240, 2)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        init = solve_coarse(law, uniform_mesh(grid, 6), F)
        counted.clear()
        with pytest.raises(ValueError, match="the 8-node mesh does not refine the 6-node mesh"):
            solve_coarse(law, uniform_mesh(grid, 8), F, init=init)
        assert counted == []


class TestSolveCoarseContract:
    def test_init_on_another_grid(self, lj_setup):
        law, grid, f = lj_setup
        F = ForceFunctional("exact_summation", f)
        init = solve_coarse(law, uniform_mesh(grid, 8), F)
        fine = LatticeGrid(2 * grid.N, 2)
        F2 = ForceFunctional("exact_summation", sin_force(fine, 50.0, 1.0))
        with pytest.raises(ValueError, match=r"init is on LatticeGrid\(N=256, p=2\), the mesh "
                           r"on LatticeGrid\(N=512, p=2\)"):
            solve_coarse(law, uniform_mesh(fine, 16), F2, init=init)

    def test_species_count_of_the_law(self, lj_setup):
        law, _, _ = lj_setup
        grid = LatticeGrid(96, 3)
        F = ForceFunctional("exact_summation", sin_force(grid, 50.0, 1.0))
        with pytest.raises(ValueError, match="the mesh has p = 3 species, the law p = 2"):
            solve_coarse(law, uniform_mesh(grid, 8), F)


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
        # R, the nodal residual, sums to zero; its primitive is a constant
        # minus the stress ws
        h, mw = mesh.element_sizes(), mesh.mean_weights()
        R = R - R.mean()
        dz = coarse_newton_step(K, h, -np.cumsum(R))
        ref = coarse_step_dense(K, h, mw, R)
        # dz are the element strains of the nodal step, which the cell step reads
        ref_dz = np.diff(ref, append=ref[:1]) / h
        assert np.abs(dz - ref_dz).max() <= 1e-9 * np.abs(ref_dz).max()
        assert abs(h @ dz) <= 1e-12 * (h @ np.abs(ref_dz))

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 64),
        ratio=st.integers(1, 20),
        indefinite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reduced_solve(self, m, ratio, indefinite, seed):
        # M = 2 has both neighbours of a node in one element
        rng = np.random.default_rng(seed)
        R = rng.standard_normal(m)
        mesh = graded_mesh(rng, m, ratio)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.parametrize(
        "m, indefinite", [(1024, True), (4096, False)], ids=["M1024_indefinite", "M4096"]
    )
    def test_large_meshes(self, m, indefinite):
        rng = np.random.default_rng(m)
        R = rng.standard_normal(m)
        mesh = graded_mesh(rng, m, 20)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.parametrize("indefinite", [False, True])
    def test_all_node_mesh(self, indefinite):
        # the full-lattice homogenized problem: M = N, every h = eps
        rng = np.random.default_rng(80)
        grid = LatticeGrid(1024)
        R = rng.standard_normal(grid.N)
        mesh = uniform_mesh(grid, grid.N)
        self.check(mesh, stiffnesses(rng, mesh.element_sizes(), indefinite), R)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["zero_stiffness", "zero_compliance_sum"])
    def test_singular_raises(self, case):
        rng = np.random.default_rng(81)
        mesh = graded_mesh(rng, 8, 5)
        h = mesh.element_sizes()
        K = rng.uniform(0.1, 10.0, 8)
        if case == "zero_stiffness":
            K[3] = 0.0
        else:
            # K = h * (1, -1, 1, -1, ...): sum(h / K) is exactly 0
            K = h * np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        with pytest.raises(SolverFailure, match="singular coarse Jacobian"):
            coarse_newton_step(K, h, rng.standard_normal(8))


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

    def _laws(self, x):
        return (lambda: np.zeros_like(x),) * 3


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
        law = HomogenizedLaw(build_family(cfg))
        return cfg, LatticeGrid(cfg.N, cfg.p), law

    def solve(self, shipped, amplitude):
        cfg, grid, law = shipped
        F = ForceFunctional(cfg.functional_kind, sin_force(grid, amplitude, cfg.force_phase))
        return solve_coarse(law, uniform_mesh(grid, 4), F)

    def test_stable_load_solves(self, shipped):
        cs = self.solve(shipped, 150.0)
        d2 = shipped[2].eval_strains(cs.u.strains())[2]
        assert d2.min() == pytest.approx(0.332, abs=0.01)

    def test_unstable_branch_raises(self, shipped):
        with pytest.raises(StabilityError, match=r"element 2 has strain 0\.1739.*W'' = -11\.4"):
            self.solve(shipped, 170.0)


class FailingOnceFamily(PotentialFamily):
    """Wraps a family; once ``armed``, its next ``bonds(a, 1, 2)`` call
    raises SolverFailure."""

    def __init__(self, family):
        super().__init__(family.R, family.p)
        self.family = family
        self.armed = False

    def admissible(self, a):
        return self.family.admissible(a)

    def bonds(self, a, *orders):
        if orders == (1, 2) and self.armed:
            self.armed = False
            raise SolverFailure("cell evaluation failed")
        return self.family.bonds(a, *orders)


class TestCellFailureAtTrialPoint:
    def test_step_is_halved(self, lj_setup):
        # the cold start evaluates no cell, so the first call after the
        # strain-0 cell is the first trial point of the first Newton step
        law, grid, f = lj_setup
        mesh = uniform_mesh(grid, 16)
        F = ForceFunctional("exact_summation", f)
        failing = FailingOnceFamily(law.family)
        failing_law = HomogenizedLaw(failing)
        failing_law.ground_cell  # solved before the failure is armed
        failing.armed = True
        cs = solve_coarse(failing_law, mesh, F)
        assert not failing.armed
        assert cs.trace[1][2] == 0.5
        assert cs.residual_dual <= 1e-10
        ref = solve_coarse(law, mesh, F)
        assert np.abs(cs.u.nodal_values - ref.u.nodal_values).max() <= 1e-10


class TestCorrector:
    def test_single_species_identity(self):
        rng = np.random.default_rng(76)
        grid = LatticeGrid(32)
        u = LatticeFn(grid, 0.01 * rng.standard_normal(32))
        u = LatticeFn(grid, u.values - u.values.mean())
        cs = CoarseSolution(CoarseFn(uniform_mesh(grid, grid.N), u.values), 0.0, 0,
                            np.zeros((32, 1)), trace=(), cells=None)
        assert np.allclose(corrector(cs).values, u.values)

    def test_zero_mean_always(self, lj_setup):
        law, grid, f = lj_setup
        cs = solve_coarse(law, uniform_mesh(grid, 8), ForceFunctional("exact_summation", f))
        assert abs(corrector(cs).values.mean()) < 1e-13

    def test_solution_fields_match_cold_cell_solves(self, lj_setup):
        law, grid, f = lj_setup
        for m in (4, 32):
            cs = solve_coarse(law, uniform_mesh(grid, m), ForceFunctional("exact_summation", f))
            cold = law.eval_strains(cs.u.strains())[3]
            assert np.abs(cs.chi - cold).max() <= 1e-13 * np.abs(cold).max()

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(1, 3),
        cells=st.integers(1, 40),
        m=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_site_loop(self, p, cells, m, seed):
        # the oracle does the same arithmetic per site, so the fields are equal
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(max(p * cells, 2), p)
        mesh = one_site_mesh(rng, grid, min(m, grid.N))
        u = CoarseFn(mesh, 0.01 * rng.standard_normal(mesh.n_elements))
        chi = rng.standard_normal((mesh.n_elements, p))
        cs = CoarseSolution(u, 0.0, 0, chi, trace=(), cells=None)
        ref = corrected_on_sites(mesh.nodes, u.nodal_values, chi, grid.N, p)
        assert np.array_equal(corrector(cs).values, ref)
        # into a buffer: the same field, in the buffer, whatever it held
        buf = np.full(grid.N, np.nan)
        assert corrector(cs, out=buf).values is buf
        assert np.array_equal(buf, ref)


def atomistic_residual(family, f, u):
    """(-1, inf) dual norm of the atomistic residual functional dE(u) - f."""
    prob = AtomisticProblem(f.grid, family, f)
    g = energy_grad_hess(prob, u)[1]
    return primitive_dual_norm(g.values - prob.force.values, f.grid.eps)


def nested_solves(law, f, schedule):
    """The coarse solutions of a nested schedule, as a study solves it."""
    F = ForceFunctional("exact_summation", f)
    cs = None
    for m in schedule:
        cs = solve_coarse(law, uniform_mesh(f.grid, m), F, init=cs)
    return cs


class TestEquilibratedCorrector:
    @pytest.mark.parametrize("l, R", [([1.0], 2), ([1.0, 1.125], 3), ([1.0, 1.1, 1.05], 2)])
    def test_matches_site_loop(self, l, R):
        rng = np.random.default_rng(len(l) + R)
        law = HomogenizedLaw(lj_family(l, R))
        grid = LatticeGrid(60 * len(l), len(l))
        f = sin_force(grid, 20.0, 1.0)
        F = ForceFunctional("exact_summation", f)
        for mesh in (uniform_mesh(grid, 6), rand_mesh(rng, grid, 7), one_site_mesh(rng, grid, 9)):
            cs = solve_coarse(law, mesh, F)
            ref = equilibrated_on_sites(mesh.nodes, cs.u.nodal_values, cs.chi,
                                        cs.cells.stiffness, cs.cells.sensitivity, f.values, grid.p)
            start = corrector(cs, f).values
            assert np.abs(start - ref).max() <= 1e-14 * np.abs(ref).max()
            assert abs(start.mean()) <= 1e-16

    def test_keeps_nodal_values(self):
        # one species has no cell field, so the start differs from the
        # corrected solution at the nodes only by the zero-mean constant
        law = HomogenizedLaw(lj_family([1.0], R=3))
        grid = LatticeGrid(1024)
        f = sin_force(grid, 20.0, 1.0)
        F = ForceFunctional("exact_summation", f)
        coarse = nested_solves(law, f, (8, 32))
        adapted = adapt_mesh(coarse.u.mesh, indicator_terms(coarse.u, f, F), 0.5)
        for cs in (coarse, solve_coarse(law, adapted, F, init=coarse)):
            mesh, uc = cs.u.mesh, corrector(cs)
            start = corrector(cs, f)
            assert np.abs(start.values - uc.values).max() >= 1e-9  # it moved
            d = interpolate(mesh, start).nodal_values - interpolate(mesh, uc).nodal_values
            assert np.ptp(d) <= 1e-15 * np.abs(uc.values).max()

    @pytest.mark.parametrize(
        "l, R, N", [([1.0, 1.125], 3, 65536), ([1.0, 1.1, 1.05], 2, 49152)], ids=["p2R3", "p3R2"]
    )
    def test_residual_100_times_smaller(self, l, R, N):
        # the lj_1d chain on the benchmark's meshes 16, 64, 256 reads 436x
        # smaller at N = 65536, and 320x on the three-species chain
        law = HomogenizedLaw(lj_family(l, R))
        f = sin_force(LatticeGrid(N, len(l)), 50.0, 1.0)
        cs = nested_solves(law, f, (16, 64, 256))
        corrected = atomistic_residual(law.family, f, corrector(cs))
        start = atomistic_residual(law.family, f, corrector(cs, f))
        assert start <= corrected / 100


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
