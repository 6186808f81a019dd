from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    AtomisticProblem,
    DomainError,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    corrector,
    ground_microstructure,
    lj_family,
    quadratic_family,
    seminorm,
    solve_atomistic,
    solve_coarse,
    uniform_mesh,
)
import tracemalloc

from hqc import atomistic, linsolve
from hqc.atomistic import DAMPING_MAX, ETA_0, ETA_MAX, damped_newton, forcing_term
from hqc.exceptions import SolverFailure
from hqc.lattice import primitive_dual_norm
from hqc.study import microstructure_start, sin_force

from oracles import energy_grad_hess, shell_terms, springs_to_dense


@pytest.fixture(scope="module")
def lj():
    return lj_family([1.0, 9.0 / 8.0], R=3)


@pytest.fixture(scope="module")
def micro(lj):
    return ground_microstructure(HomogenizedLaw(lj))


def zero_force(grid):
    return LatticeFn(grid, np.zeros(grid.N))


class TestEnergyGradHess:
    def test_harmonic_chain_at_rest(self):
        grid = LatticeGrid(8)
        prob = AtomisticProblem(grid, quadratic_family([1.0], [0.0]), zero_force(grid))
        E, g, d2 = energy_grad_hess(prob, zero_force(grid))
        assert E == 0.0
        assert np.abs(g.values).max() == 0.0
        # discrete Laplacian stencil scaled by 1/eps^2
        A = springs_to_dense(d2)
        N = 8
        expected = N * N * (2 * np.eye(N) - np.roll(np.eye(N), 1, 1) - np.roll(np.eye(N), -1, 1))
        assert np.allclose(A, expected)

    def test_relaxed_microstructure_has_zero_gradient(self, lj, micro):
        grid = LatticeGrid(64, 2)
        prob = AtomisticProblem(grid, lj, zero_force(grid))
        u = microstructure_start(grid, micro)
        _, g, _ = energy_grad_hess(prob, u)
        assert np.abs(g.values).max() <= 1e-12

    def test_gradient_matches_energy_differences(self, lj):
        rng = np.random.default_rng(51)
        grid = LatticeGrid(16, 2)
        prob = AtomisticProblem(grid, lj, zero_force(grid))
        u0 = 0.002 * rng.standard_normal(16)
        E0, g0, _ = energy_grad_hess(prob, LatticeFn(grid, u0))
        step = 1e-7
        for i in range(16):
            e = np.zeros(16)
            e[i] = step
            Ep = energy_grad_hess(prob, LatticeFn(grid, u0 + e))[0]
            Em = energy_grad_hess(prob, LatticeFn(grid, u0 - e))[0]
            # <g, v> convention: dE/du_i = g_i / N
            fd = (Ep - Em) / (2 * step)
            assert fd == pytest.approx(g0.values[i] / 16, rel=1e-6, abs=1e-8)

    def test_hessian_matches_gradient_differences(self, lj):
        rng = np.random.default_rng(52)
        grid = LatticeGrid(12, 2)
        prob = AtomisticProblem(grid, lj, zero_force(grid))
        u0 = 0.001 * rng.standard_normal(12)
        _, _, d2 = energy_grad_hess(prob, LatticeFn(grid, u0))
        A = springs_to_dense(d2)
        step = 1e-7
        for i in range(12):
            e = np.zeros(12)
            e[i] = step
            gp = energy_grad_hess(prob, LatticeFn(grid, u0 + e))[1].values
            gm = energy_grad_hess(prob, LatticeFn(grid, u0 - e))[1].values
            assert np.abs((gp - gm) / (2 * step) - A[:, i]).max() <= 1e-5 * np.abs(A).max()

    def test_domain_error_names_site_and_shell(self, lj):
        grid = LatticeGrid(8, 2)
        prob = AtomisticProblem(grid, lj, zero_force(grid))
        bad = np.zeros(8)
        bad[2] = -0.5  # strain at site 3 for r=1 is about -4
        with pytest.raises(DomainError, match=r"site \d+, shell r=\d"):
            energy_grad_hess(prob, LatticeFn(grid, bad))

    @staticmethod
    def blocked_chain(l, R):
        """A problem whose chain _stress_d2 evaluates in three blocks, the
        first wrapping past site 1 and the last ragged."""
        family = lj_family(l, R)
        size = max(1, atomistic.EVAL_BLOCK // (R * family.p)) * family.p
        grid = LatticeGrid(2 * size + 5 * family.p, family.p)
        return AtomisticProblem(grid, family, zero_force(grid))

    @pytest.mark.parametrize("l, R", [([1.0, 9.0 / 8.0], 3), ([1.0, 1.1, 1.05], 2)])
    def test_blocks_match_one_full_evaluation(self, l, R):
        # bit for bit: the three blocks, the first wrapping past site 1 and
        # the last ragged, against one block over the whole chain
        prob = self.blocked_chain(l, R)
        N = prob.grid.N
        z = np.random.default_rng(R).uniform(-0.05, 0.05, N)
        stress, springs = atomistic._stress_d2(prob, z)
        with mock.patch.object(atomistic, "EVAL_BLOCK", R * N):
            whole_stress, whole_springs = atomistic._stress_d2(prob, z)
        assert np.array_equal(stress, whole_stress)
        assert np.array_equal(springs, whole_springs)

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 3), R=st.integers(1, 4), lj=st.booleans(),
           per_block=st.integers(1, 4), blocks=st.integers(1, 3), extra=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_shell_laws(self, p, R, lj, per_block, blocks, extra, seed):
        # blocks of per_block cells, the first wrapping past site 1 for
        # R >= 2 and the last ragged unless per_block divides extra, against
        # the closed-form law of each bond, summed site by site
        rng = np.random.default_rng(seed)
        if lj:
            family = lj_family(rng.uniform(0.9, 1.25, size=p), R)
        else:
            family = quadratic_family(rng.uniform(0.5, 3.0, size=p),
                                      rng.uniform(-0.2, 0.2, size=p), R)
        N = p * (per_block * blocks + extra)
        grid = LatticeGrid(N, p)
        prob = AtomisticProblem(grid, family, zero_force(grid))
        z = rng.uniform(-0.1, 0.1, N)
        with mock.patch.object(atomistic, "EVAL_BLOCK", per_block * R * p):
            stress, springs = atomistic._stress_d2(prob, z)
        sites = np.arange(N)
        sigma, sigma_scale = np.zeros(N), np.zeros(N)
        for r in range(1, R + 1):
            a = sum(np.roll(z, -j) for j in range(r)) / r  # D_{x,r} u of bond x
            terms = np.array(shell_terms(family, 1, r, a, sites)) / r
            for j in range(r):  # the bond x = y - j holds site y
                sigma += np.roll(terms.sum(axis=0), j)
                sigma_scale += np.roll(np.abs(terms).max(axis=0), j)
            terms = np.array(shell_terms(family, 2, r, a, sites)) / (r * r)
            scale = np.abs(terms).max(axis=0)
            assert np.all(np.abs(springs[r - 1] - terms.sum(axis=0)) <= 1e-12 * scale)
        assert np.all(np.abs(stress - sigma) <= 1e-12 * sigma_scale)

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_domain_error_names_the_site_in_any_block(self, block):
        prob = self.blocked_chain([1.0, 9.0 / 8.0], 3)
        N = prob.grid.N
        site = [1, N // 2, N - 2][block]
        z = np.zeros(N)
        z[site] = -1.5  # g = -0.5 in the shell-1 bond of 0-based site `site`
        message = rf"^inadmissible bond at site {site + 1}, shell r=1$"
        with pytest.raises(DomainError, match=message):
            atomistic._stress_d2(prob, z)

    def test_force_projection_reported(self, caplog):
        grid = LatticeGrid(8)
        with caplog.at_level("INFO", logger="hqc.atomistic"):
            prob = AtomisticProblem(
                grid, quadratic_family([1.0], [0.0]), LatticeFn(grid, np.ones(8))
            )
        assert caplog.messages == ["projecting force to zero mean (subtracted constant 1.000e+00)"]
        assert abs(prob.force.values.mean()) < 1e-15


def abs_norm(x):
    """Stub evaluation for a scalar iterate: terminate and trace on |x|."""
    return x, None, abs(x)


class TestDampedNewton:
    def test_max_iter_reached(self):
        # each full step only halves |x|
        with pytest.raises(SolverFailure, match="stub Newton: .* after 3 iterations") as err:
            damped_newton(abs_norm, lambda x, _s: -0.5 * x, 1.0, 1e-12, 3, "stub")
        assert [row[0] for row in err.value.trace] == [0, 1, 2, 3]

    def test_no_decrease_stalls(self):
        # an ascent direction: every trial, however damped, raises |x|
        with pytest.raises(SolverFailure, match="stub Newton stalled") as err:
            damped_newton(abs_norm, lambda x, _s: x, 1.0, 1e-12, 60, "stub")
        assert err.value.trace == [(0, 1.0, 0.0)]

    @pytest.mark.parametrize("exc", [DomainError, SolverFailure])
    def test_failing_trials_reraise_their_class(self, exc):
        def evaluate(x):
            if x != 1.0:  # every trial; the start is 1
                raise exc("inadmissible trial")
            return x, "state", abs(x)

        with pytest.raises(exc, match="stub Newton step not recoverable by damping") as err:
            damped_newton(evaluate, lambda x, _s: -x, 1.0, 1e-12, 60, "stub")
        assert isinstance(err.value.__cause__, exc)
        if exc is SolverFailure:
            assert err.value.trace == [(0, 1.0, 0.0)]

    def test_early_trial_failure_then_stall_reports_stall(self):
        # only the full-length trial fails; every halving evaluates but
        # raises |x|, so the solve stalled and the old error is not re-raised
        trials = []

        def evaluate(x):
            if x != 1.0:  # every trial; the start is 1
                trials.append(x)
                if len(trials) == 1:
                    raise SolverFailure("cell failure at the full step")
            return x, "state", abs(x)

        with pytest.raises(SolverFailure, match="stub Newton stalled") as err:
            damped_newton(evaluate, lambda x, _s: x, 1.0, 1e-12, 60, "stub")
        assert err.value.__cause__ is None
        assert len(trials) == DAMPING_MAX + 1

    def test_inadmissible_start_names_the_solver(self):
        def evaluate(_x):
            raise DomainError("g <= 0")

        with pytest.raises(DomainError, match="^stub Newton: inadmissible start: g <= 0$"):
            damped_newton(evaluate, lambda x, _s: -x, 1.0, 1e-12, 60, "stub")

    @pytest.mark.parametrize("start", [np.nan, np.inf])
    def test_non_finite_start_raises(self, start):
        # a nan norm fails every comparison, so it must not end the loop as converged
        with pytest.raises(SolverFailure, match=r"^stub Newton: residual (nan|inf) at the start$"):
            damped_newton(abs_norm, lambda x, _s: -x, start, 1e-12, 60, "stub")

    def test_step_failure_is_not_damped(self):
        failure = SolverFailure("singular Jacobian")

        def step(_x, _s):
            raise failure

        with pytest.raises(SolverFailure) as err:
            damped_newton(abs_norm, step, 1.0, 1e-12, 60, "stub")
        assert err.value is failure


class TestSolveAtomistic:
    def test_harmonic_chain_matches_direct_solve(self):
        rng = np.random.default_rng(53)
        grid = LatticeGrid(32)
        fam = quadratic_family([1.0], [0.0])
        fv = rng.standard_normal(32)
        fv -= fv.mean()
        prob = AtomisticProblem(grid, fam, LatticeFn(grid, fv))
        sol = solve_atomistic(prob)
        _, _, d2 = energy_grad_hess(prob, zero_force(grid))
        A = springs_to_dense(d2)
        u_ref = np.linalg.lstsq(A, fv, rcond=None)[0]
        u_ref -= u_ref.mean()
        assert np.abs(sol.u.values - u_ref).max() < 1e-12

    def test_unloaded_chain_relaxes_to_microstructure(self, lj, micro):
        grid = LatticeGrid(64, 2)
        prob = AtomisticProblem(grid, lj, zero_force(grid))
        sol = solve_atomistic(prob)  # u_init = 0
        expected = microstructure_start(grid, micro)
        assert np.abs(sol.u.values - expected.values).max() < 1e-12
        assert sol.residual_dual <= 1e-10

    def test_terminal_quadratic_convergence(self, lj, micro, monkeypatch):
        grid = LatticeGrid(1024, 2)
        f = sin_force(grid, 50.0, 1.0)
        prob = AtomisticProblem(grid, lj, f)
        monkeypatch.setattr(atomistic, "NEWTON_TOL", 1e-12)
        sol = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
        assert sol.residual_dual <= 1e-12
        rs = np.array([r for _, r, _ in sol.trace])
        rs = rs / rs[0]
        ratios = [
            np.log(rs[k + 1]) / np.log(rs[k])
            for k in range(len(rs) - 1)
            if 1e-13 < rs[k + 1] and rs[k] < 1e-2
        ]
        assert ratios and max(ratios) >= 1.8

    def test_shipped_chain_never_leaves_the_cg_path(self, lj, micro):
        # every Newton Jacobian of the reference solve, at the sizes of lj_1d
        # and lj_1d_fine, is positive definite on the zero-sum strains, and
        # its nearest-neighbour chain preconditions CG to at most 10
        # iterations, each one spring product; with the forcing term a cold
        # solve takes at most 16 in all (26 at full accuracy)
        product = mock.Mock(wraps=linsolve.spring_matvec)
        iters = []

        def counted(s, rhs, **kw):
            before = product.call_count
            x = linsolve.solve_cyclic_banded(s, rhs, **kw)
            iters.append(product.call_count - before)
            return x

        fallback = AssertionError("sparse KKT fallback")
        for N in (4096, 65536):
            grid = LatticeGrid(N, 2)
            prob = AtomisticProblem(grid, lj, sin_force(grid, 50.0, 1.0))
            iters.clear()
            with (
                mock.patch("hqc.linsolve._solve_kkt_sparse", side_effect=fallback),
                mock.patch("hqc.linsolve.spring_matvec", product),
                mock.patch("hqc.atomistic.solve_cyclic_banded", counted),
            ):
                sol = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
            assert sol.residual_dual <= 1e-10
            assert iters and 0 < min(iters) and max(iters) <= 10
            assert sum(iters) <= 16

    def test_converges_at_524288_sites(self, lj, micro):
        # no evaluation sums over the chain, so the residual reaches the
        # roundoff of the stresses (about 1e-13) at every N; strains taken
        # as differences of displacements lose digits in proportion to N
        # and stall above 1e-10 at this size
        grid = LatticeGrid(524288, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, 50.0, 1.0))
        sol = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
        assert sol.residual_dual <= 1e-10

    def test_zero_mean_iterates(self, lj, micro):
        grid = LatticeGrid(128, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, 20.0, 1.0))
        sol = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
        assert abs(sol.u.values.mean()) <= 1e-13

    def test_translation_invariance(self, lj, micro):
        grid = LatticeGrid(64, 2)
        f = sin_force(grid, 10.0, 1.0)
        sol = solve_atomistic(
            AtomisticProblem(grid, lj, f), u_init=microstructure_start(grid, micro)
        )
        shift = 6  # a multiple of p keeps the species pattern aligned
        f_shift = f.with_values(np.roll(f.values, -shift))
        sol2 = solve_atomistic(
            AtomisticProblem(grid, lj, f_shift),
            u_init=microstructure_start(grid, micro),
        )
        assert np.abs(sol2.u.values - np.roll(sol.u.values, -shift)).max() < 1e-9

    def test_accepts_general_zero_mean_rhs(self, lj, micro):
        rng = np.random.default_rng(54)
        grid = LatticeGrid(64, 2)
        rhs = rng.standard_normal(64)
        rhs -= rhs.mean()
        prob = AtomisticProblem(grid, lj, LatticeFn(grid, rhs))
        sol = solve_atomistic(prob, u_init=microstructure_start(grid, micro))
        _, g, _ = energy_grad_hess(prob, sol.u)
        rho = g.values - rhs
        assert primitive_dual_norm(rho - rho.mean(), grid.eps) <= 1e-10

    def test_nonconvergence_raises_with_trace(self, lj, monkeypatch):
        grid = LatticeGrid(64, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, 50.0, 1.0))
        monkeypatch.setattr(atomistic, "MAX_ITER", 1)
        with pytest.raises(SolverFailure, match="after 1 iterations") as err:
            solve_atomistic(prob)
        assert len(err.value.trace) >= 1

    def test_curvature_bound_stable_under_force_scaling(self, lj, micro):
        # |u0|_{2,inf} / ||f||_inf varies by < 10% across small amplitudes
        grid = LatticeGrid(256, 2)
        law = HomogenizedLaw(lj)
        ratios = []
        for amp in (0.5, 1.0, 2.0):
            F = ForceFunctional("exact_summation", sin_force(grid, amp, 1.0))
            sol = solve_coarse(law, uniform_mesh(grid, grid.N), F)
            ratios.append(seminorm(sol.u.to_lattice(), 2, np.inf) / seminorm(F.f, 0, np.inf))
        assert max(ratios) / min(ratios) < 1.1


class TestInexactNewton:
    """Each Newton step solves CG to the forcing term on the springs of
    its evaluation, with one CG work block per solve."""

    def test_forcing_term(self):
        tol = 1e-10
        assert forcing_term(1.0, None, tol) == ETA_0
        assert forcing_term(1e-3, 1e-2, tol) == pytest.approx(0.9e-2)
        assert forcing_term(1.0, 1.5, tol) == ETA_MAX
        # no oversolving near tol, within the cap
        assert forcing_term(1e-8, 1e-4, tol) == pytest.approx(0.5e-2)
        assert forcing_term(2e-10, 1e-4, tol) == ETA_MAX
        assert forcing_term(1e-6, 1e30, 0.0) == linsolve.CG_RTOL

    @pytest.mark.parametrize("amplitude, phase", [(50.0, 1.0), (50.0, 2.3), (90.0, 1.0)])
    def test_forcing_term_keeps_newton_steps_and_solution(self, lj, micro, amplitude, phase):
        grid = LatticeGrid(4096, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, amplitude, phase))
        u0 = microstructure_start(grid, micro)
        sol = solve_atomistic(prob, u_init=u0)
        with mock.patch("hqc.atomistic.forcing_term", return_value=linsolve.CG_RTOL):
            full = solve_atomistic(prob, u_init=u0)
        assert sol.iterations == full.iterations
        assert sol.residual_dual <= 1e-10
        diff = LatticeFn(grid, sol.u.values - full.u.values)
        assert seminorm(diff, 1, np.inf) <= 1e-9 * seminorm(full.u, 1, np.inf)

    def test_one_cg_solve_per_newton_step(self, lj):
        # amplitude 70 from u = 0 has a stable equilibrium and takes damped
        # steps, so some trials are rejected and evaluated without a solve
        grid = LatticeGrid(1024, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, 70.0, 1.0))
        solve = mock.Mock(wraps=linsolve.solve_cyclic_banded)
        evals = mock.Mock(wraps=atomistic._stress_d2)
        with mock.patch.object(atomistic, "solve_cyclic_banded", solve), mock.patch.object(
            atomistic, "_stress_d2", evals
        ):
            sol = solve_atomistic(prob)
        assert any(t < 1.0 for _, _, t in sol.trace[1:])
        assert solve.call_count == sol.iterations < evals.call_count - 1
        assert len({id(c.kwargs["work"]) for c in solve.call_args_list}) == 1

    def test_memory_peak_at_65536_sites(self, lj, micro):
        # the peak of traced allocations, in vectors of N doubles, is 15.02
        # with one stress, one spring stack, one force primitive and one CG
        # work block of 6 rows per solve and the bond law evaluated by
        # blocks; a Hessian band built for every step took 22.05; the bound
        # leaves about one vector of margin
        N = 65536
        grid = LatticeGrid(N, 2)
        prob = AtomisticProblem(grid, lj, sin_force(grid, 50.0, 1.0))
        u0 = microstructure_start(grid, micro)
        tracemalloc.start()
        try:
            solve_atomistic(prob, u_init=u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * N) <= 16.0

    @pytest.mark.parametrize("phase", [1.0, 2.3])
    def test_outcomes_of_cold_solves(self, lj, micro, phase):
        grid = LatticeGrid(1024, 2)
        u0 = microstructure_start(grid, micro)
        for amplitude in (10.0, 50.0, 90.0):
            prob = AtomisticProblem(grid, lj, sin_force(grid, amplitude, phase))
            assert solve_atomistic(prob, u_init=u0).residual_dual <= 1e-10
        with pytest.raises(SolverFailure):
            solve_atomistic(AtomisticProblem(grid, lj, sin_force(grid, 100.0, phase)), u_init=u0)


class TestSolveHomogenizedFull:
    """The homogenized problem on the full lattice: ``solve_coarse`` on the
    mesh whose nodes are all N sites."""

    def test_single_species_coincides_with_atomistic(self):
        # R = 1, p = 1: the homogenized law is the bond law itself
        fam = lj_family([1.0], R=1)
        grid = LatticeGrid(64)
        f = sin_force(grid, 5.0, 1.0)
        atom = solve_atomistic(AtomisticProblem(grid, fam, f))
        hom = solve_coarse(
            HomogenizedLaw(fam), uniform_mesh(grid, grid.N), ForceFunctional("exact_summation", f)
        )
        diff = LatticeFn(grid, atom.u.values - hom.u.to_lattice().values)
        assert seminorm(diff, 1, np.inf) < 1e-9

    def test_quadratic_constant_coefficient_solve(self):
        rng = np.random.default_rng(55)
        k1, k2 = 1.0, 2.0
        grid = LatticeGrid(64, 2)
        law = HomogenizedLaw(quadratic_family([k1, k2], [0.0, 0.0]))
        fv = rng.standard_normal(64)
        fv -= fv.mean()
        F = ForceFunctional("exact_summation", LatticeFn(grid, fv))
        sol = solve_coarse(law, uniform_mesh(grid, grid.N), F)
        # oracle: cyclic Laplacian with the harmonic-mean coefficient
        hm = 2 * k1 * k2 / (k1 + k2)
        N = 64
        A = hm * N * N * (2 * np.eye(N) - np.roll(np.eye(N), 1, 1) - np.roll(np.eye(N), -1, 1))
        u_ref = np.linalg.lstsq(A, fv, rcond=None)[0]
        u_ref -= u_ref.mean()
        assert np.abs(sol.u.to_lattice().values - u_ref).max() < 1e-12

    def test_strong_form_residual(self, lj):
        grid = LatticeGrid(1024, 2)
        law = HomogenizedLaw(lj)
        f = sin_force(grid, 50.0, 1.0)
        # the strong form, recomputed outside the solver, is an independent
        # check of a solve that terminates on the dual norm
        sol = solve_coarse(law, uniform_mesh(grid, grid.N), ForceFunctional("exact_summation", f))
        _, dphi0, _, _ = law.eval_strains(sol.u.strains())
        rho = (np.roll(dphi0, 1) - dphi0) / grid.eps - f.values
        assert np.abs(rho).max() <= 1e-9

    def test_unloaded_corrector_solves_atomistic(self, lj, micro):
        # f = 0: u0 = 0 and the corrected field is the relaxed microstructure
        grid = LatticeGrid(128, 2)
        law = HomogenizedLaw(lj)
        F = ForceFunctional("exact_summation", zero_force(grid))
        sol = solve_coarse(law, uniform_mesh(grid, grid.N), F)
        assert np.abs(sol.u.nodal_values).max() < 1e-12
        uc = corrector(sol)
        assert np.abs(uc.values - microstructure_start(grid, micro).values).max() < 1e-12
