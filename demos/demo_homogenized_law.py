"""Build a two-species Lennard-Jones chain and inspect its homogenized law.

Run:

  python demos/demo_homogenized_law.py

The cell problem is solved on the fly for a sweep of macroscopic strains;
the tabulated effective density phi0 and its derivatives land in
out/demo_law/micro.csv.
"""

from pathlib import Path

import numpy as np

from hqc import (
    HomogenizedLaw,
    estimate_constants,
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
)


def main() -> None:
    family = lj_family([1.0, 9.0 / 8.0], R=3)
    law = HomogenizedLaw(family)
    chi_star = ground_microstructure(law)
    print("ground microstructure chi_*:", chi_star)
    print("micro deformation increments 1 + D chi_*:", 1.0 + np.roll(chi_star, -1) - chi_star)

    margin = nn_dominance_margin(family, chi_star)
    print(f"nearest-neighbor dominance margin: {margin:.4f} (> 0: stable)")

    c11, c0 = estimate_constants(family, chi_star)
    print(f"sampled curvature surrogate C11 = {c11:.2f}, coercivity lower bound c0 = {c0:.2f}")

    zs = np.linspace(-0.06, 0.06, 13)
    table = law.tabulate(zs)
    print(f"\n{'z':>10} {'phi0':>12} {'dphi0':>12} {'d2phi0':>12}")
    for z, p0, p1, p2 in table:
        print(f"{z:>10.4f} {p0:>12.6f} {p1:>12.4f} {p2:>12.2f}")

    # the corrector field chi(z) varies smoothly with the strain; one
    # batched evaluation solves the cell problem at every strain
    print("\ncell corrector chi(z) per species:")
    zc = np.array([-0.04, 0.0, 0.04])
    chi = law.eval_strains(zc)[3]
    for z, row in zip(zc, chi):
        print(f"  z = {z:+.2f}: chi = {row}")

    out = Path("out/demo_law")
    out.mkdir(parents=True, exist_ok=True)
    lines = ["z,phi0,dphi0,d2phi0"]
    lines += [",".join(repr(float(v)) for v in row) for row in table]
    (out / "micro.csv").write_text("\n".join(lines) + "\n")
    print(f"\nwrote {out / 'micro.csv'}")


if __name__ == "__main__":
    main()
