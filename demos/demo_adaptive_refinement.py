"""Indicator-driven adaptive refinement versus uniform meshes.

Run:

  python demos/demo_adaptive_refinement.py

Starting from 4 nodes, elements carrying the bulk of the strain-jump
indicator are bisected at the atom nearest their midpoint.  With a
localized force the adaptive meshes concentrate nodes where the coarse
strain actually varies.
"""

import numpy as np

from hqc import (
    AtomisticProblem,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    adapt_mesh,
    corrector,
    ground_microstructure,
    indicator_terms,
    lj_family,
    nn_dominance_margin,
    seminorm,
    solve_atomistic,
    solve_coarse,
    uniform_mesh,
)
from hqc.study import microstructure_start


def main() -> None:
    family = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(family)
    micro = ground_microstructure(family)
    grid = LatticeGrid(1024, 2)

    # a force with a sharp bump: most of the solution curvature sits near x = 0.5
    x = grid.sites()
    fv = 40.0 * np.exp(-120.0 * (x - 0.5) ** 2) * np.sin(6 * np.pi * x)
    f = LatticeFn(grid, fv - fv.mean())
    F = ForceFunctional("exact_summation", f)
    ref = solve_atomistic(
        AtomisticProblem(grid, family, f), u_init=microstructure_start(grid, micro)
    )
    c0_inv = 1.0 / nn_dominance_margin(family, micro)

    print(f"{'step':>4} {'nodes':>6} {'h_max':>9} {'jump':>11} {'total':>11} {'err_1inf':>11}")
    mesh = uniform_mesh(grid, 4)
    for step in range(8):
        cs = solve_coarse(law, mesh, F)
        uc = corrector(law, cs)
        err = seminorm(LatticeFn(grid, uc.values - ref.u.values), 1, np.inf)
        rep = indicator_terms(cs.u, mesh, f, F, c0_inv=c0_inv)
        print(f"{step:>4} {mesh.n_elements:>6} {mesh.h_max:>9.5f} "
              f"{rep.jump_term:>11.4e} {rep.total:>11.4e} {err:>11.4e}")
        mesh = adapt_mesh(mesh, rep, theta=0.6)

    gaps = np.diff(np.sort(mesh.nodes))
    print(f"\nfinal mesh: {mesh.n_elements} nodes, element sizes from "
          f"{gaps.min()} to {gaps.max()} atoms (refinement is concentrated)")


if __name__ == "__main__":
    main()
