"""Corrector reconstruction and the coarse/full-space equivalence.

Run:

  python demos/demo_reconstruction.py

Shows (i) how the corrector restores the atomistic-scale strain
oscillation that the smooth homogenized solution misses, and (ii) that the
coarse-grained problem is the full-lattice homogenized problem with the
node-distributed force.  The full-lattice problem is the coarse solve on
the mesh whose nodes are all N sites.  Exits with status 1 when the
equivalence does not hold to 1e-10.
"""

import sys

import numpy as np

from hqc import (
    AtomisticProblem,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    corrector,
    diff_r,
    equivalence_check,
    ground_microstructure,
    lj_family,
    seminorm,
    solve_atomistic,
    solve_coarse,
    uniform_mesh,
)
from hqc.study import microstructure_start, sin_force


def main() -> int:
    family = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(family)
    chi_star = ground_microstructure(law)
    grid = LatticeGrid(512, 2)
    f = sin_force(grid, 50.0, 1.0)

    ref = solve_atomistic(
        AtomisticProblem(grid, family, f), u_init=microstructure_start(grid, chi_star)
    )
    hom = solve_coarse(law, uniform_mesh(grid, grid.N), ForceFunctional("exact_summation", f))
    hom_u = hom.u.to_lattice()
    uc = corrector(hom)

    print("strain D u on ten consecutive atoms (oscillation = microstructure):")
    Dref = diff_r(ref.u, 1).values[:10]
    Dhom = diff_r(hom_u, 1).values[:10]
    Dcor = diff_r(LatticeFn(grid, uc.values), 1).values[:10]
    print("  atomistic :", np.array2string(Dref, precision=4))
    print("  homogenized:", np.array2string(Dhom, precision=4))
    print("  corrected :", np.array2string(Dcor, precision=4))

    e_hom = seminorm(LatticeFn(grid, hom_u.values - ref.u.values), 1, np.inf)
    e_cor = seminorm(LatticeFn(grid, uc.values - ref.u.values), 1, np.inf)
    print(f"\nstrain error without corrector: {e_hom:.3e}")
    print(f"strain error with corrector   : {e_cor:.3e}  "
          f"(x{e_hom / e_cor:.0f} smaller)")

    mesh = uniform_mesh(grid, 16)
    rep = equivalence_check(law, mesh, ForceFunctional("exact_summation", f))
    print(f"\ncoarse solve vs full-space solve with the node-distributed force:")
    print(f"  max difference          : {rep.max_diff:.2e}")
    print(f"  strain jump off the mesh: {rep.max_nonnode_strain_jump:.2e}")
    ok = rep.max_diff <= 1e-10 and rep.max_nonnode_strain_jump <= 1e-10
    if ok:
        print("  (both vanish: the coarse problem is exactly the constrained full problem)")
    else:
        print("  FAIL: the difference or the off-mesh strain jump exceeds 1e-10")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
