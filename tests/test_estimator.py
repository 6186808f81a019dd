import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    CoarseFn,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    Mesh1D,
    adapt_mesh,
    corrector,
    estimate_constants,
    ground_microstructure,
    indicator_terms,
    lj_family,
    quadratic_family,
    seminorm,
    solve_coarse,
    uniform_mesh,
)
from hqc.atomistic import AtomisticProblem, solve_atomistic
from hqc.study import microstructure_start, sin_force

from oracles import bulk_refined_nodes, calibrate_constant, coarse_dual_lp, site_elements


@pytest.fixture(scope="module")
def lj_setup():
    lj = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(lj)
    grid = LatticeGrid(512, 2)
    f = sin_force(grid, 50.0, 1.0)
    return lj, law, grid, f


class TestIndicatorTerms:
    def test_affine_solution_has_no_jumps(self):
        grid = LatticeGrid(16)
        mesh = uniform_mesh(grid, 4)
        u = CoarseFn(mesh, np.zeros(4))  # globally constant: single strain
        f = LatticeFn(grid, np.zeros(16))
        rep = indicator_terms(u, f, ForceFunctional("exact_summation", f))
        assert rep.jump_term == 0.0
        assert rep.total == 0.0

    def test_full_mesh_kills_force_term(self, lj_setup):
        _, law, grid, f = lj_setup
        mesh = uniform_mesh(grid, grid.N)
        F = ForceFunctional("exact_summation", f)
        cs = solve_coarse(law, mesh, F)
        rep = indicator_terms(cs.u, f, F)
        assert rep.force_term == 0.0
        assert rep.quadrature_term == 0.0

    def test_exact_summation_quadrature_vanishes(self, lj_setup):
        _, law, grid, f = lj_setup
        mesh = uniform_mesh(grid, 8)
        F = ForceFunctional("exact_summation", f)
        cs = solve_coarse(law, mesh, F)
        assert indicator_terms(cs.u, f, F).quadrature_term == 0.0

    def test_total_combines_terms(self, lj_setup):
        _, law, grid, f = lj_setup
        mesh = uniform_mesh(grid, 8)
        F = ForceFunctional("node_lumped", f)
        cs = solve_coarse(law, mesh, F)
        rep = indicator_terms(cs.u, f, F, calibration_constant=2.0, c0_inv=0.25)
        assert rep.total == pytest.approx(
            2.0 * rep.jump_term + 0.25 * rep.force_term + rep.quadrature_term, rel=1e-14
        )
        assert min(rep.jump_term, rep.force_term, rep.quadrature_term) >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 700),
        m=st.integers(2, 40),
        log_scale=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_force_term_matches_site_formula(self, n, m, log_scale, seed):
        # max over sites of |(h(x) - eps) f(x)|, exactly: the per-element
        # maximum of |f| rounds the same, as (h_T - eps) >= 0 is constant on T
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        mesh = Mesh1D(grid, np.sort(rng.choice(np.arange(1, n + 1), min(m, n), replace=False)))
        f = LatticeFn(grid, 10.0**log_scale * rng.standard_normal(n))
        elem = site_elements(mesh.nodes, n)
        h = np.bincount(elem)[elem] * grid.eps
        u = CoarseFn(mesh, rng.standard_normal(mesh.n_elements))
        rep = indicator_terms(u, f, ForceFunctional("exact_summation", f))
        assert rep.force_term == np.abs((h - grid.eps) * f.values).max()

    def test_quadrature_term_matches_lp_oracle(self):
        rng = np.random.default_rng(81)
        grid = LatticeGrid(64, 2)
        fv = rng.standard_normal(64)
        f = LatticeFn(grid, fv - fv.mean())
        for m in (3, 5, 8):
            nodes = np.sort(rng.choice(np.arange(1, 65), size=m, replace=False))
            mesh = Mesh1D(grid, nodes)
            F = ForceFunctional("node_lumped", f)
            u = CoarseFn(mesh, np.zeros(m))
            rep = indicator_terms(u, f, F)
            assert rep.quadrature_term == pytest.approx(
                coarse_dual_lp(F.quadrature_gap(mesh)), abs=1e-10
            )


class TestEstimateConstants:
    def test_quadratic_closed_forms(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            k1, k2 = rng.uniform(0.2, 4.0, size=2)
            fam = quadratic_family([k1, k2], [0.0, 0.0])
            micro = ground_microstructure(HomogenizedLaw(fam))
            c11, c0 = estimate_constants(fam, micro)
            assert c11 == pytest.approx(max(k1, k2), rel=1e-13)
            assert c0 == pytest.approx(0.5 * min(k1, k2), rel=1e-13)

    def test_single_species_harmonic(self):
        fam = quadratic_family([1.0], [0.0])
        c11, c0 = estimate_constants(fam, ground_microstructure(HomogenizedLaw(fam)))
        assert (c11, c0) == (1.0, 0.5)

    def test_lj_positive_finite(self, lj_setup):
        lj, _, _, _ = lj_setup
        c11, c0 = estimate_constants(lj, ground_microstructure(HomogenizedLaw(lj)))
        assert 0 < c0 < c11 < np.inf


class TestAdaptMesh:
    def _report(self, mesh, per_element):
        from hqc.estimator import ErrorReport

        jump = float(np.max(per_element))
        return ErrorReport(jump, 0.0, 0.0, 1.0, 1.0, jump, np.asarray(per_element, float))

    def test_equal_indicators_full_theta_splits_everything(self):
        grid = LatticeGrid(32)
        mesh = uniform_mesh(grid, 4)
        out = adapt_mesh(mesh, self._report(mesh, np.ones(4)), theta=1.0)
        assert out.n_elements == 8

    def test_dominant_indicator_splits_one(self):
        grid = LatticeGrid(32)
        mesh = uniform_mesh(grid, 4)
        out = adapt_mesh(mesh, self._report(mesh, [10.0, 1.0, 1.0, 1.0]), theta=0.5)
        assert out.n_elements == 5
        assert 12 in out.nodes  # element [8, 16) bisected at its midpoint

    def test_refinement_is_superset(self):
        rng = np.random.default_rng(83)
        grid = LatticeGrid(64)
        mesh = uniform_mesh(grid, 4)
        for _ in range(4):
            eta = rng.uniform(0.1, 1.0, size=mesh.n_elements)
            out = adapt_mesh(mesh, self._report(mesh, eta), theta=0.6)
            assert set(mesh.nodes).issubset(set(out.nodes))
            assert out.h_max <= mesh.h_max + 1e-15
            mesh = out

    def test_unit_elements_never_split(self):
        grid = LatticeGrid(8)
        mesh = uniform_mesh(grid, 8)
        out = adapt_mesh(mesh, self._report(mesh, np.ones(8)), theta=1.0)
        assert out.n_elements == 8

    def test_odd_counts_split_toward_lower_index(self):
        grid = LatticeGrid(16)
        mesh = Mesh1D(grid, np.array([5, 10]))  # both elements have 5 and 11 sites
        out = adapt_mesh(mesh, self._report(mesh, [1.0, 0.0]), theta=0.9)
        assert list(out.nodes) == [5, 7, 10]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 200),
        m=st.integers(2, 40),
        theta=st.floats(0.0, 1.0, exclude_min=True),
        levels=st.integers(1, 4),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_element_loop(self, n, m, theta, levels, zeros, seed):
        # few indicator levels give ties; the first node is random, so the
        # last element mostly wraps past site N, and its midpoint may too
        rng = np.random.default_rng(seed)
        grid = LatticeGrid(n)
        nodes = np.sort(rng.choice(np.arange(1, n + 1), size=min(m, n), replace=False))
        mesh = Mesh1D(grid, nodes)
        eta = rng.integers(0 if zeros else 1, levels + 1, nodes.size) * rng.uniform(0.1, 2.0)
        out = adapt_mesh(mesh, self._report(mesh, eta), theta)
        assert np.array_equal(out.nodes, bulk_refined_nodes(nodes, n, eta, theta))

    def test_jump_term_decreases_under_adaptation(self, lj_setup):
        _, law, grid, f = lj_setup
        F = ForceFunctional("exact_summation", f)
        mesh = uniform_mesh(grid, 4)
        jumps = []
        for _ in range(5):
            cs = solve_coarse(law, mesh, F)
            rep = indicator_terms(cs.u, f, F)
            jumps.append(rep.jump_term)
            mesh = adapt_mesh(mesh, rep, theta=0.5)
        assert all(b <= a + 1e-12 for a, b in zip(jumps, jumps[1:]))
        assert jumps[-1] < jumps[0]


class TestEstimatorDecay:
    def test_total_first_order_on_dyadic_meshes(self, lj_setup):
        lj, law, grid, f = lj_setup
        from hqc import nn_dominance_margin

        micro = ground_microstructure(HomogenizedLaw(lj))
        c0_inv = 1.0 / nn_dominance_margin(lj, micro)
        F = ForceFunctional("exact_summation", f)
        hs, totals = [], []
        for m in (4, 8, 16, 32, 64, 128):
            mesh = uniform_mesh(grid, m)
            cs = solve_coarse(law, mesh, F)
            rep = indicator_terms(cs.u, f, F, c0_inv=c0_inv)
            hs.append(mesh.h_max)
            totals.append(rep.total)
        slope = np.polyfit(np.log(hs), np.log(totals), 1)[0]
        assert slope >= 0.85

    def test_calibrated_total_bounds_error(self, lj_setup):
        lj, law, grid, f = lj_setup
        micro = ground_microstructure(HomogenizedLaw(lj))
        prob = AtomisticProblem(grid, lj, f)
        ref = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
        F = ForceFunctional("exact_summation", f)
        reports, errors = [], []
        for m in (4, 8, 16, 32, 64):
            mesh = uniform_mesh(grid, m)
            cs = solve_coarse(law, mesh, F)
            uc = corrector(cs)
            errors.append(seminorm(LatticeFn(grid, uc.values - ref.u.values), 1, np.inf))
            reports.append(indicator_terms(cs.u, f, F))
        cal = calibrate_constant(reports[0], errors[0])
        from hqc.estimator import assemble_total

        for rep, err in zip(reports[1:], errors[1:]):
            total = assemble_total(rep.jump_term, rep.force_term, rep.quadrature_term, cal, 1.0)
            assert total >= err
