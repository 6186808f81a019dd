"""A posteriori error indicators and adaptive refinement.

For a converged coarse solution the computable indicator terms are

    jump_term       = max over nodes of |D u(xi) - D u(xi - eps)|
    force_term      = ||(h - eps) f||_inf            (h(x) = h_T on T)
    quadrature_term = dual norm over zero-mean coarse functions of
                      v_h -> <F^h, v_h>_h - <f, v_h>_L

and the reported total is

    total = calibration_constant * jump_term + c0_inv * force_term
            + quadrature_term.

The analytic prefactor of the jump term is unknown, so the estimator keeps
the raw terms and a calibration constant (default 1) that can be fitted
once against a reference error; c0_inv is a configured stand-in for the
inverse coercivity constant, with a computable lower bound available from
``estimate_constants``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coarse import CoarseFn, ForceFunctional, Mesh1D, element_reduce
from .lattice import LatticeFn, primitive_dual_norm
from .potentials import PotentialFamily


@dataclass(frozen=True)
class ErrorReport:
    jump_term: float
    force_term: float
    quadrature_term: float
    calibration_constant: float
    c0_inv: float
    total: float
    #: per-element jump indicator (max of the two endpoint jumps)
    per_element_jumps: np.ndarray = field(repr=False)

    CSV_HEADER = "h_max,jump_term,force_term,quadrature_term,total"

    def csv_row(self, h_max: float) -> str:
        return ",".join(
            repr(float(v))
            for v in (h_max, self.jump_term, self.force_term, self.quadrature_term, self.total)
        )


def assemble_total(jump, force, quad, calibration_constant, c0_inv):
    return calibration_constant * jump + c0_inv * force + quad


def indicator_terms(
    u0h: CoarseFn,
    f: LatticeFn,
    F: ForceFunctional,
    calibration_constant: float = 1.0,
    c0_inv: float = 1.0,
) -> ErrorReport:
    """Evaluate the three indicator terms for a converged coarse solution on its mesh."""
    mesh = u0h.mesh
    z = u0h.strains()
    node_jumps = np.abs(z - np.roll(z, 1))  # jump at node j: elements j-1 | j
    jump = float(node_jumps.max())
    per_element = np.maximum(node_jumps, np.roll(node_jumps, -1))
    # h - eps >= 0 is constant on an element, so |(h - eps) f| peaks where |f| does
    f_max = np.maximum(element_reduce(np.maximum, mesh, f.values),
                       -element_reduce(np.minimum, mesh, f.values))
    force = float(((mesh.element_sizes() - mesh.grid.eps) * f_max).max())
    quad = primitive_dual_norm(F.quadrature_gap(mesh))
    total = assemble_total(jump, force, quad, calibration_constant, c0_inv)
    return ErrorReport(jump, force, quad, calibration_constant, c0_inv, total, per_element)


def estimate_constants(family: PotentialFamily, chi_star: np.ndarray):
    """Sampled surrogate (C11, c0_lower) for the analytic constants.

    C11 = max_y sum_r r * max_z |d2 phi_r| with the curvature sampled at
    z + D_{y,r} chi_* for 101 equispaced macro strains z in [-0.1, 0.1]
    (only admissible samples contribute); c0_lower is the nearest-neighbor
    dominance margin.
    """
    from .microhom import _cell_maps
    from .potentials import nn_dominance_margin

    R, p = family.R, family.p
    d = (chi_star @ _cell_maps(p, R).DT).reshape(R, p)
    args = np.linspace(-0.1, 0.1, 101)[:, None, None] + d
    ok = family.admissible(args)
    empty = ~ok.any(axis=0)
    if empty.any():
        r, j = np.argwhere(empty)[0]
        raise ValueError(f"no admissible sample for shell r={r + 1}, species {j}")
    # inadmissible samples are evaluated at their column's first admissible one
    first = args[ok.argmax(axis=0), np.arange(R)[:, None], np.arange(p)]
    d2 = family.bonds(np.where(ok, args, first), 2)
    worst = np.abs(d2).max(axis=0, where=ok, initial=0.0)
    per_y = np.zeros(p)
    for r, worst_r in enumerate(worst, 1):
        per_y += r * worst_r
    c11 = float(per_y.max())
    return c11, nn_dominance_margin(family, chi_star)


def adapt_mesh(mesh: Mesh1D, report: ErrorReport, theta: float) -> Mesh1D:
    """Bulk marking: bisect the smallest set of splittable elements whose
    jump indicators carry a theta-fraction of the total, at the atom site
    nearest the element midpoint (odd site counts split toward the lower
    index).  Unit-size elements are never split."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    eta = np.asarray(report.per_element_jumps, dtype=float)
    counts = mesh.site_counts()
    splittable = counts >= 2
    total = eta[splittable].sum()
    if total <= 0.0 or not splittable.any():
        return mesh
    order = np.argsort(-eta)
    order = order[splittable[order]]
    # a left-to-right cumulative sum; eta >= 0, so the first element that
    # reaches the bulk is the count of those short of it
    short = np.cumsum(eta[order]) < theta * total - 1e-15 * total
    marked = np.zeros(eta.size, dtype=bool)
    marked[order[: np.count_nonzero(short) + 1]] = True
    # every element's left node, then its midpoint if marked: ascending,
    # but for the wrapping last element's midpoint past site N (>> 1 halves,
    # as in solve_coarse)
    nodes = np.column_stack([mesh.nodes, mesh.nodes + (counts >> 1)])
    nodes = nodes[np.column_stack([np.ones_like(marked), marked])]
    if nodes[-1] > mesh.grid.N:
        nodes = np.roll(nodes, 1)
        nodes[0] -= mesh.grid.N
    return Mesh1D(mesh.grid, nodes)
