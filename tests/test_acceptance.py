"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from hqc import (
    AtomisticProblem,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    SpringModel2D,
    build_config,
    diff_r,
    equivalence_check,
    exp_sin_force,
    fit_slope,
    ground_microstructure,
    homogenize2d,
    indicator_terms,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
    run_study,
    seminorm,
    solve2d,
    solve_atomistic,
    solve_coarse,
    uniform_mesh,
)
from hqc.config import parse_config_text
from hqc.coarse import Mesh1D, corrector
from hqc.exceptions import StabilityError
from hqc.lattice import primitive_dual_norm
from hqc.study import microstructure_start, sin_force

from oracles import (
    average_r,
    corrector_matrix,
    dual_norm_lp,
    dual_seminorm_neg1,
    energy_grad_hess,
    interpolate,
    law_eval,
    project_zero_mean,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def family_51():
    fam = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(fam)
    return fam, law, ground_microstructure(law)


@pytest.fixture(scope="module")
def study_51(tmp_path_factory):
    """Criterion-1 configuration: N = 4096, dyadic meshes with 4..1024 nodes."""
    cfg = build_config(
        parse_config_text(
            """
            problem.kind = 1d
            grid.N = 4096
            potential.kind = lj
            potential.R = 3
            potential.l = 1, 1.125
            force.preset = sin_1d
            force.amplitude = 50
            force.phase = 1
            force.functional = exact_summation
            mesh.schedule = 4, 8, 16, 32, 64, 128, 256, 512, 1024
            """
        )
    )
    t0 = time.perf_counter()
    rows = run_study(cfg, out_dir=tmp_path_factory.mktemp("study51"))
    return rows, time.perf_counter() - t0


def test_criterion_1_first_order_convergence(study_51):
    rows, elapsed = study_51
    slope = fit_slope(rows, "err_1inf")
    report(
        "criterion 1",
        0.85 <= slope <= 1.15 and elapsed < 300.0,
        f"err_1inf slope {slope:.3f} in [0.85, 1.15], study time {elapsed:.1f}s < 300s",
    )


def test_criterion_2_homogenization_error_halves(family_51):
    fam, law, micro = family_51
    errs = {}
    for N in (512, 1024, 2048, 4096):
        grid = LatticeGrid(N, 2)
        f = sin_force(grid, 50.0, 1.0)
        ref = solve_atomistic(
            AtomisticProblem(grid, fam, f), u_init=microstructure_start(grid, micro)
        )
        hom = solve_coarse(law, uniform_mesh(grid, N), ForceFunctional("exact_summation", f))
        uc = corrector(hom)
        errs[N] = seminorm(LatticeFn(grid, uc.values - ref.u.values), 1, np.inf)
    ratios = [errs[N] / errs[2 * N] for N in (512, 1024, 2048)]
    report(
        "criterion 2",
        all(1.6 <= r <= 2.4 for r in ratios),
        "full-mesh error ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " within 2.0 +- 0.4",
    )


def test_criterion_3_micro_law_oracle(family_51):
    _, law, _ = family_51
    rng = np.random.default_rng(301)
    step = 1e-6
    worst1 = worst2 = 0.0
    for _ in range(50):
        z = rng.uniform(-0.08, 0.12)
        _, dphi0, d2phi0 = law_eval(law, z)
        fd1 = (law_eval(law, z + step)[0] - law_eval(law, z - step)[0]) / (2 * step)
        fd2 = (law_eval(law, z + step)[1] - law_eval(law, z - step)[1]) / (2 * step)
        worst1 = max(worst1, abs(fd1 - dphi0) / abs(dphi0))
        worst2 = max(worst2, abs(fd2 - d2phi0) / abs(d2phi0))
    worst_hm = 0.0
    for _ in range(20):
        k1, k2 = rng.uniform(0.2, 5.0, size=2)
        qlaw = HomogenizedLaw(quadratic_family([k1, k2], [0.0, 0.0]))
        d2phi0 = law_eval(qlaw, rng.uniform(-0.5, 0.5))[2]
        worst_hm = max(worst_hm, abs(d2phi0 - 2 * k1 * k2 / (k1 + k2)))
    report(
        "criterion 3",
        worst1 < 1e-6 and worst2 < 1e-6 and worst_hm < 1e-10,
        f"finite-difference rel err {max(worst1, worst2):.2e} < 1e-6, "
        f"harmonic-mean gap {worst_hm:.2e} < 1e-10",
    )


def test_criterion_4_equivalence_lemma(family_51):
    fam, _, _ = family_51
    law = HomogenizedLaw(fam)
    grid = LatticeGrid(256, 2)
    f = sin_force(grid, 50.0, 1.0)
    rep = equivalence_check(law, uniform_mesh(grid, 8), ForceFunctional("exact_summation", f))
    worst = rep.max_diff

    rng = np.random.default_rng(401)
    qgrid = LatticeGrid(64, 2)
    qlaw = HomogenizedLaw(quadratic_family([1.0, 2.0], [0.05, -0.05]))
    fv = rng.standard_normal(64)
    qf = LatticeFn(qgrid, fv - fv.mean())
    for _ in range(5):
        nodes = np.sort(rng.choice(np.arange(1, 65), size=int(rng.integers(3, 11)), replace=False))
        rep = equivalence_check(qlaw, Mesh1D(qgrid, nodes), ForceFunctional("exact_summation", qf))
        worst = max(worst, rep.max_diff)
    report("criterion 4", worst <= 1e-8, f"coarse vs full-space max difference {worst:.2e} <= 1e-8")


def test_criterion_5_a_posteriori_behavior(study_51, family_51):
    rows, _ = study_51
    fam, law, micro = family_51
    quad_zero = all(row.eta_quad == 0.0 for row in rows)

    # fully refined mesh: the force indicator vanishes identically
    grid = LatticeGrid(4096, 2)
    f = sin_force(grid, 50.0, 1.0)
    full_mesh = uniform_mesh(grid, 4096)
    u0h = interpolate(full_mesh, LatticeFn(grid, np.zeros(4096)))
    rep = indicator_terms(u0h, f, ForceFunctional("exact_summation", f))
    force_zero = rep.force_term == 0.0

    # calibrate the jump prefactor on the coarsest mesh, then the total must
    # bound the true error on every finer mesh of the same study
    c0_inv = 1.0 / nn_dominance_margin(fam, micro)
    cal = rows[0].err_1inf / rows[0].eta_jump
    bounded = all(
        cal * row.eta_jump + c0_inv * row.eta_force + row.eta_quad >= row.err_1inf
        for row in rows[1:]
    )
    report(
        "criterion 5",
        quad_zero and force_zero and bounded,
        f"eta_quad == 0 on all rows: {quad_zero}; full-mesh eta_force == 0: {force_zero}; "
        f"calibrated total bounds err_1inf on finer meshes: {bounded}",
    )


def test_criterion_6_dual_norm_oracle():
    rng = np.random.default_rng(601)
    worst = 0.0
    bound_ok = True
    for _ in range(200):
        N = int(rng.integers(3, 17))
        vals = rng.standard_normal(N)
        vals -= vals.mean()
        u = LatticeFn(LatticeGrid(N), vals)
        closed = dual_seminorm_neg1(u)
        worst = max(worst, abs(closed - dual_norm_lp(vals)))
        # the gradient-pairing functional v -> <u, D v> dominates ||u||_inf / 2
        rep = LatticeFn(u.grid, -np.roll(diff_r(u, 1).values, 1))
        if dual_seminorm_neg1(rep) < 0.5 * np.abs(vals).max() - 1e-12:
            bound_ok = False
    report(
        "criterion 6",
        worst <= 1e-10 and bound_ok,
        f"closed form vs LP gap {worst:.2e} <= 1e-10 on 200 samples; "
        f"sup-norm lower bound holds: {bound_ok}",
    )


def test_criterion_7_structural_properties(family_51):
    fam, law, micro = family_51
    # Assumption-2 fixed point: the unloaded chain relaxes to the scaled
    # ground microstructure, whose equilibrium residual is tiny
    grid = LatticeGrid(1024, 2)
    prob = AtomisticProblem(grid, fam, LatticeFn(grid, np.zeros(1024)))
    sol = solve_atomistic(prob)
    expected = microstructure_start(grid, micro)
    _, g, _ = energy_grad_hess(prob, expected)
    fixed_point = (
        primitive_dual_norm(g.values - g.values.mean(), grid.eps) <= 1e-10
        and np.abs(sol.u.values - expected.values).max() <= 1e-10
    )

    # Lemma 3.4 bound over random valid microstructures, p in 2..6
    rng = np.random.default_rng(701)
    done = 0
    bound_ok = True
    while done < 50:
        p = int(rng.integers(2, 7))
        qfam = quadratic_family(rng.uniform(0.5, 3.0, size=p), rng.uniform(-0.2, 0.2, size=p))
        try:
            m = ground_microstructure(HomogenizedLaw(qfam))
        except StabilityError:
            continue
        if np.abs(m).max() > 0.5 * (p - 1) + 1e-12:
            bound_ok = False
        done += 1

    # operator facts on random functions
    ops_ok = True
    for _ in range(25):
        N = int(rng.integers(8, 65))
        g = LatticeGrid(N)
        u = project_zero_mean(LatticeFn(g, rng.standard_normal(N)))
        for r in range(1, 9):
            lhs = diff_r(u, r).values
            rhs = average_r(diff_r(u, 1), r).values
            if np.abs(lhs - rhs).max() > 1e-13 * max(1.0, np.abs(lhs).max()):
                ops_ok = False
            for q in (1, 2, np.inf):
                if seminorm(u.with_values(rhs), 0, q) > seminorm(u, 1, q) + 1e-12:
                    ops_ok = False
                gap = u.with_values(lhs - diff_r(u, 1).values)
                if seminorm(gap, 0, q) > 0.5 * (r - 1) / N * seminorm(u, 2, q) + 1e-12:
                    ops_ok = False
    report(
        "criterion 7",
        fixed_point and bound_ok and ops_ok,
        f"unloaded fixed point: {fixed_point}; microstructure sup bound (50 samples): "
        f"{bound_ok}; averaging/derivative operator facts: {ops_ok}",
    )


def test_criterion_8_two_dimensional():
    t0 = time.perf_counter()
    model = SpringModel2D(1.0, 2.0, 0.25)
    hom = homogenize2d(model)
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cell_gap = max(
        float(np.abs(hom.chi_unit[b] - sign * (-1.0 / 12.0)).max()) for b in range(2)
    )
    matrix_gap = float(np.abs(corrector_matrix(hom) - (-1.0 / 12.0) * np.eye(2)).max())

    N = 256
    f = exp_sin_force(N, N)
    ref, _ = solve2d(model, f, "atomistic")
    hs, errs = [], []
    for t in (4, 8, 16, 32, 64):
        _, info = solve2d(model, f, ("coarse", t), reference=ref)
        hs.append(1.0 / t)
        errs.append(info["err_1inf"])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8",
        cell_gap <= 1e-12 and matrix_gap <= 1e-12 and slope >= 0.85 and elapsed < 600.0,
        f"cell corrector gap {cell_gap:.2e} <= 1e-12, coarse+corrector slope "
        f"{slope:.3f} >= 0.85, time {elapsed:.1f}s < 600s",
    )
