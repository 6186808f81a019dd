"""Two-dimensional spring lattice: homogenize, solve coarse, correct.

Run:

  python demos/demo_springs_2d.py

The axis springs alternate between two stiffnesses in a checkerboard
pattern; the (2,2) cell problem yields the staggered corrector
(-1)^(j1+j2) (k1-k2)/(4(k1+k2)) I and the effective quadratic form used by
the P1 coarse solver.  Errors against the exact atomistic solve (one FFT
solve, no iteration) decay with first order in the mesh size.
"""

import numpy as np

from hqc import SpringModel2D, chi_analytic, exp_sin_force, homogenize2d, solve2d


def main() -> None:
    model = SpringModel2D(k1=1.0, k2=2.0, k3=0.25)
    hom = homogenize2d(model)
    print("cell corrector coefficient (numeric):", hom.corrector_scale)
    print("closed form (k1-k2)/(4(k1+k2))      :", chi_analytic(model))
    print("staggered-pattern deviation:", hom.pattern_deviation)
    print("effective quadratic form per component:\n", hom.Q)

    N = 64
    f = exp_sin_force(N, N)
    ref, _ = solve2d(model, f, "atomistic")
    print(f"\natomistic reference on {N}x{N}: exact FFT solve")

    print(f"{'t':>4} {'h':>9} {'err_1inf':>12} {'err_0inf':>12}")
    hs, errs = [], []
    for t in (4, 8, 16, 32):
        _, rinfo = solve2d(model, f, ("coarse", t), reference=ref)
        hs.append(1.0 / t)
        errs.append(rinfo["err_1inf"])
        print(f"{t:>4} {1 / t:>9.4f} {rinfo['err_1inf']:>12.4e} {rinfo['err_0inf']:>12.4e}")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    print(f"\ngradient-error slope: {slope:.3f} (first order, as in 1D)")


if __name__ == "__main__":
    main()
