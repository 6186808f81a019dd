"""Cell problems and the on-the-fly homogenized law.

For a macroscopic strain z the zero-mean micro field chi(z) on the
p-site cell makes the cell energy

    e(z, chi) = sum_r < phi_r(z + D_{y,r} chi) >_P,      <.>_P = (1/p) sum_y,

stationary over zero-mean perturbations.  The homogenized energy density
and its derivatives follow as

    phi0(z)   = sum_r < phi_r(z + D_{y,r} chi(z)) >_P
    dphi0(z)  = sum_r < phi_r'(z + D_{y,r} chi(z)) >_P
    d2phi0(z) = sum_r < phi_r''(...) * (1 + D_{y,r} chi'(z)) >_P

where the strain sensitivity chi'(z) solves the cell system linearized at
chi(z); the corrector term drops from dphi0 because chi(z) is stationary.

The cell kernel stacks the shells.  A batch of m cells holds its bond
arguments in one (m, R p) array z + chi D^T, column (r - 1) p + y being
z + D_{y,r} chi, with the (R p) x p difference matrix D; its (m, R, p)
view is the stacked layout of :class:`~hqc.potentials.PotentialFamily`,
so one ``family.bonds`` call gives the bond derivatives d1, d2 of a whole
batch, and the cell gradient is d1 D / p.  The zero-mean constraint is
enforced by eliminating the last micro value, chi = E c, which keeps the
reduced cell Hessian symmetric positive definite whenever
nearest-neighbor dominance holds: with G = D E the reduced gradient is
g = d1 G / p and the reduced Hessian H = G^T diag(d2) G / p, one batched
matrix product.  D, E and G depend only on (p, R).

Static condensation.  Linearized in the strain and the reduced field, a
cell's stress <d1> changes by <d2> dz + b . dc and g by b dz + H dc, with
b = d2 G / p.  The cell Newton equation gives dc = -H^-1 (g + b dz), so
the stress changes by shift + K dz with shift = -b . H^-1 g and
K = <d2> - b . H^-1 b, which at a converged cell (g = 0) is d2phi0.
``condense_cells`` takes all of it from one ``bonds(a, 1, 2)`` call and
one batched solve of H against [b, g]: it is the cell part of each step
of :func:`hqc.coarse.solve_coarse`, whose Newton unknowns are the nodal
values and the cell fields together, and the d2phi0 of
``HomogenizedLaw.eval_strains``.  A singular H raises StabilityError
naming the cell, its strain and the smallest eigenvalue of H.  Cells are
checked for stability (H positive definite: one batched Cholesky
factorization, a sign test for p = 2) only at converged fields, by
:func:`require_stable_cells`: an indefinite H on the way to equilibrium
is not an instability of the equilibrium.

``newton_cells`` solves a batch of cell problems at fixed strains by one
:func:`hqc.atomistic.damped_newton` iteration over the whole batch: each
evaluation is one ``bonds(a, 1)`` call for every row, its norm the
largest row residual, and each step one ``bonds(a, 2)`` call and one
batched reduced solve, so all rows share one step length and one
iteration count.  An inadmissible trial raises DomainError from
``bonds``, which the driver halves like a residual increase.  A study
solves single cells only (the ground state and the cold start of
``solve_coarse``); batches come from ``HomogenizedLaw.eval_strains``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atomistic import damped_newton
from .exceptions import StabilityError
from .potentials import PotentialFamily


@dataclass(frozen=True)
class _CellMaps:
    """Shell-stacked linear maps of a p-site cell with R shells."""

    layout: tuple  # (R, p): trailing axes of a batch's bond arguments
    DT: np.ndarray  # (p, R p) micro field -> bond differences
    Dp: np.ndarray  # (R p, p) D / p: stacked d1 -> cell gradient
    E: np.ndarray  # (p, p - 1) reduced -> zero-sum field
    Gp: np.ndarray  # (R p, p - 1) G / p
    GT: np.ndarray  # (p - 1, R p)


@functools.lru_cache(maxsize=None)
def _cell_maps(p: int, R: int) -> _CellMaps:
    y = np.arange(p)
    r = np.arange(1, R + 1)
    nbr = (y + r[:, None]) % p  # (R, p): the shell-r neighbour of site y
    eye = np.eye(p)
    D = ((eye[nbr] - eye) / r[:, None, None]).reshape(R * p, p)
    E = np.vstack([np.eye(p - 1), -np.ones((1, p - 1))])
    G = D @ E
    return _CellMaps((R, p), D.T.copy(), D / p, E, G / p, G.T.copy())


def _flat(b):
    """(m, R p) view of stacked (m, R, p) bond values."""
    return b.reshape(len(b), b.shape[1] * b.shape[2])


def _bond_args(maps, z, chi):
    """Stacked (m, R, p) bond arguments of the fields chi (m, p) at strains z."""
    return (z[:, None] + chi @ maps.DT).reshape(z.size, *maps.layout)


def _reduced_hessian(maps, d2):
    """(m, p-1, p-1) reduced cell Hessians G^T diag(d2) G / p."""
    return (maps.GT * d2[:, None, :]) @ maps.Gp


def _cell_instability(kind, H, z):
    """StabilityError naming the cell of smallest Hessian eigenvalue."""
    lam = np.linalg.eigvalsh(H)[:, 0]
    j = int(np.argmin(lam))
    return StabilityError(
        f"{kind} reduced cell Hessian: cell {j} has strain {z[j]:.6g} "
        f"and smallest Hessian eigenvalue {lam[j]:.6g}"
    )


def _reduced_solve(H, rhs, z):
    """x with H x = rhs (m, p-1, k) per row, H the reduced Hessians of the
    cells at strains z."""
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:
        raise _cell_instability("singular", H, z) from exc


@dataclass(frozen=True)
class CondensedCells:
    """Cells linearized in (z, chi) and condensed onto z: the Newton step
    dchi = relax + sensitivity dz changes each stress by shift + stiffness dz."""

    stress: np.ndarray  # (m,) <d1>: dphi0 at converged cells
    residual: np.ndarray  # (m,) max |cell gradient|, as in newton_cells
    stiffness: np.ndarray  # (m,) K = <d2> - b . H^-1 b: d2phi0 at converged cells
    shift: np.ndarray  # (m,) -b . H^-1 g
    relax: np.ndarray  # (m, p) -E H^-1 g
    sensitivity: np.ndarray  # (m, p) -E H^-1 b: chi'(z) at converged cells
    hessian: np.ndarray  # (m, p-1, p-1) reduced cell Hessians H


def condense_cells(family, z, chi) -> CondensedCells:
    """The cells with fields chi (m, p) at strains z (m,), condensed; raises
    DomainError where a bond is inadmissible."""
    maps = _cell_maps(family.p, family.R)
    d1, d2 = (_flat(b) for b in family.bonds(_bond_args(maps, z, chi), 1, 2))
    grad = d1 @ maps.Dp
    b = d2 @ maps.Gp
    H = _reduced_hessian(maps, d2)
    x = _reduced_solve(H, np.stack([b, grad @ maps.E], axis=-1), z)
    hb, hg = x[..., 0], x[..., 1]
    return CondensedCells(
        stress=d1.sum(axis=1) / family.p,
        residual=np.abs(grad).max(axis=1),
        stiffness=d2.sum(axis=1) / family.p - (b * hb).sum(axis=1),
        shift=-(b * hg).sum(axis=1),
        relax=-hg @ maps.E.T,
        sensitivity=-hb @ maps.E.T,
        hessian=H,
    )


def require_stable_cells(cells: CondensedCells, z) -> None:
    """Raise StabilityError unless every reduced cell Hessian is positive
    definite; ``cells`` are condensed at converged fields and strains z."""
    try:
        np.linalg.cholesky(cells.hessian)
    except np.linalg.LinAlgError as exc:
        raise _cell_instability("indefinite", cells.hessian, z) from exc


def warm_start(family, z, warm):
    """Starting fields (m, p) of the cells at strains z: the rows of warm,
    except that a row inadmissible at its strain starts from the zero field."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    maps = _cell_maps(family.p, family.R)
    chi0 = np.array(warm, dtype=float).reshape(z.size, family.p)
    chi0[~family.admissible(_bond_args(maps, z, chi0)).all(axis=(1, 2))] = 0.0
    return chi0


def newton_cells(family, z, chi0, tol, max_iter):
    """Damped Newton on a batch of cell problems: one :func:`damped_newton`
    iteration over all rows, with one step length and the largest row
    residual as its norm.

    z: (m,) strains; chi0: (m, p) zero-mean starting fields.  Returns
    (chi, residual, iterations) arrays; every row reports the batch's
    iteration count.  Raises DomainError on an inadmissible start or a
    trial step that damping cannot keep admissible, SolverFailure on
    nonconvergence, StabilityError on a singular cell Hessian.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    maps = _cell_maps(family.p, family.R)

    def evaluate(chi):
        a = _bond_args(maps, z, chi)
        g = _flat(family.bonds(a, 1)) @ maps.Dp
        res = np.abs(g).max(axis=1)
        return chi, (a, g, res), res.max(initial=0.0)

    def step(_chi, state):
        a, g, _res = state
        d2 = _flat(family.bonds(a, 2))
        c = _reduced_solve(_reduced_hessian(maps, d2), -(g @ maps.E)[..., None], z)
        return c[..., 0] @ maps.E.T

    if z.size == 1:
        name = f"cell at strain {z[0]:.6g}"
    else:
        name = f"cells at strains {z.min(initial=np.inf):.6g} to {z.max(initial=-np.inf):.6g}"
    chi0 = np.array(chi0, dtype=float).reshape(z.size, family.p)
    chi, (_a, _g, res), trace = damped_newton(evaluate, step, chi0, tol, max_iter, name)
    return chi - chi.mean(axis=1, keepdims=True), res, np.full(z.size, trace[-1][0])


@dataclass
class HomogenizedLaw:
    """Potential family plus the micro-solver settings of its cell problems.

    Every evaluation solves its cell problems afresh, from the zero field.
    """

    family: PotentialFamily
    tol: float = 1e-12
    max_iter: int = 60

    def eval_strains(self, z):
        """Vectorized law evaluation at a batch of strains.

        Returns (phi0, dphi0, d2phi0, chi) with chi of shape (m, p).  A
        converged cell that is not a minimum (a saddle of the cell energy)
        raises StabilityError.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        family = self.family
        chi, _res, _iters = newton_cells(
            family, z, np.zeros((z.size, family.p)), self.tol, self.max_iter
        )
        cells = condense_cells(family, z, chi)
        require_stable_cells(cells, z)
        phi = family.bonds(_bond_args(_cell_maps(family.p, family.R), z, chi), 0)
        return _flat(phi).sum(axis=1) / family.p, cells.stress, cells.stiffness, chi

    def eval(self, z: float):
        """(phi0, dphi0, d2phi0) at one strain, from a cold cell solve."""
        phi0, dphi0, d2phi0, _chi = self.eval_strains(float(z))
        return float(phi0[0]), float(dphi0[0]), float(d2phi0[0])

    def tabulate(self, z_grid):
        """Array of rows (z, phi0, dphi0, d2phi0) over a strain grid."""
        z = np.asarray(z_grid, dtype=float)
        phi0, dphi0, d2phi0, _chi = self.eval_strains(z)
        return np.column_stack([z, phi0, dphi0, d2phi0])
