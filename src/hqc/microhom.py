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
g = d1 G / p and the reduced Hessian H = G^T diag(d2) G / p, one matrix
product of d2 with the row outer products of G.  D, E and G depend only
on (p, R).

Each batch factors its reduced Hessians once, by an unpivoted LDL^T
vectorised over the cells (a loop over the p - 1 columns; for p = 2 a
solve is one division), and that factorization serves every consumer.
A zero or non-finite pivot raises StabilityError naming the cell of
smallest Hessian eigenvalue, its strain and that eigenvalue.  For p = 2
that is exactly a singular H; for p >= 3 an indefinite H can also meet a
zero pivot, and raises the same error.

Static condensation.  Linearized in the strain and the reduced field, a
cell's stress <d1> changes by <d2> dz + b . dc and g by b dz + H dc, with
b = d2 G / p.  The cell Newton equation gives dc = -H^-1 (g + b dz), so
the stress changes by shift + K dz with shift = -b . H^-1 g and
K = <d2> - b . H^-1 b, which at a converged cell (g = 0) is d2phi0.
``condense_cells`` takes all of it from one ``bonds(a, 1, 2)`` call and
one factorization of H, solved against [b, g]: it is the cell part of
each step of :func:`hqc.coarse.solve_coarse`, whose Newton unknowns are
the nodal values and the cell fields together, and the d2phi0 of
``HomogenizedLaw.eval_strains``.  Cells are checked for stability (H
positive definite: by Sylvester's criterion, every pivot positive) only
at converged fields, by :func:`require_stable_cells` on the pivots that
``condense_cells`` carries: an indefinite H on the way to equilibrium is
not an instability of the equilibrium.

``newton_cells`` solves a batch of cell problems at fixed strains by one
:func:`hqc.atomistic.damped_newton` iteration over the whole batch: each
evaluation is one ``condense_cells``, its norm the largest row residual
and its step the cells' ``relax``, so all rows share one step length and
one iteration count, and the cells condensed at the last evaluation are
returned with the fields.  An inadmissible trial raises DomainError from
``bonds``, which ``damped_newton`` halves like a residual increase.  A
study solves one cell only, at strain 0, once: ``HomogenizedLaw.ground_cell``
serves both the ground microstructure and the cold start of
``solve_coarse``; batches come from ``HomogenizedLaw.eval_strains``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atomistic import MAX_ITER, damped_newton
from .exceptions import StabilityError
from .potentials import PotentialFamily

#: largest cell gradient entry at which a cell problem is solved
CELL_TOL = 1e-12


@dataclass(frozen=True)
class _CellMaps:
    """Shell-stacked linear maps of a p-site cell with R shells."""

    layout: tuple  # (R, p): trailing axes of a batch's bond arguments
    DT: np.ndarray  # (p, R p) micro field -> bond differences
    Dp: np.ndarray  # (R p, p) D / p: stacked d1 -> cell gradient
    E: np.ndarray  # (p, p - 1) reduced -> zero-sum field
    Gp: np.ndarray  # (R p, p - 1) G / p
    GGp: np.ndarray  # (R p, (p - 1)^2) row outer products of G, / p


@functools.lru_cache(maxsize=None)
def _cell_maps(p: int, R: int) -> _CellMaps:
    y = np.arange(p)
    r = np.arange(1, R + 1)
    nbr = (y + r[:, None]) % p  # (R, p): the shell-r neighbour of site y
    eye = np.eye(p)
    D = ((eye[nbr] - eye) / r[:, None, None]).reshape(R * p, p)
    E = np.vstack([np.eye(p - 1), -np.ones((1, p - 1))])
    G = D @ E
    GG = (G[:, :, None] * G[:, None, :]).reshape(R * p, (p - 1) ** 2)
    return _CellMaps((R, p), D.T.copy(), D / p, E, G / p, GG / p)


def _flat(b):
    """(m, R p) view of stacked (m, R, p) bond values."""
    return b.reshape(len(b), b.shape[1] * b.shape[2])


def _by_columns(ufunc, x):
    """``ufunc`` reduced over each row of the (m, k) array x by a left-to-
    right pass over its k columns: for add and k < 8 bit for bit numpy's
    x.sum(axis=1), whose per-row reduction loop costs more than the k - 1
    column passes on rows this short."""
    if x.shape[1] == 0:  # p = 1 leaves no reduced field
        return ufunc.reduce(x, axis=1)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def _bond_args(maps, z, chi):
    """Stacked (m, R, p) bond arguments of the fields chi (m, p) at strains z."""
    return (z[:, None] + chi @ maps.DT).reshape(z.size, *maps.layout)


def _reduced_hessian(maps, d2):
    """(m, p-1, p-1) reduced cell Hessians G^T diag(d2) G / p."""
    q = maps.Gp.shape[1]
    return (d2 @ maps.GGp).reshape(len(d2), q, q)


def _cell_instability(kind, H, z):
    """StabilityError naming the cell of smallest Hessian eigenvalue, or
    the first cell whose H is not finite (eigenvalue nan)."""
    finite = np.isfinite(H).all(axis=(1, 2))
    lam = np.full(len(H), np.nan)
    lam[finite] = np.linalg.eigvalsh(H[finite])[:, 0]
    j = int(np.argmin(lam))  # argmin returns the first nan
    return StabilityError(
        f"{kind} reduced cell Hessian: cell {j} has strain {z[j]:.6g} "
        f"and smallest Hessian eigenvalue {lam[j]:.6g}"
    )


def _ldl(H, z):
    """Unpivoted LDL^T of the reduced Hessians H (m, q, q) of the cells at
    strains z, vectorised over the cells: (L, d) with L unit lower
    triangular and d (m, q) the pivots.  Column j takes one batched product
    over the k < j block; for q = 1, d = H and a solve is one division.  A
    zero or non-finite pivot raises StabilityError."""
    m, q, _ = H.shape
    L = np.empty_like(H)  # only its strict lower triangle is written and read
    d = np.empty((m, q))
    for j in range(q):
        c = H[:, j:, j]
        if j:
            c = c - (L[:, j:, :j] @ (L[:, j, :j] * d[:, :j])[..., None])[..., 0]
        d[:, j] = c[:, 0]
        # a zero or non-finite pivot
        if np.count_nonzero(d[:, j]) < m or np.count_nonzero(np.isfinite(d[:, j])) < m:
            raise _cell_instability("singular", H, z)
        L[:, j + 1 :, j] = c[:, 1:] / c[:, :1]
    return L, d


def _ldl_solve(L, d, rhs):
    """x with L diag(d) L^T x = rhs, rhs (m, q, k): forward substitution, one
    division by the pivots, back substitution."""
    q = d.shape[1]
    x = rhs.copy()
    for j in range(1, q):
        x[:, j] -= (L[:, j : j + 1, :j] @ x[:, :j])[:, 0]
    x /= d[..., None]
    for j in range(q - 2, -1, -1):
        x[:, j] -= (L[:, None, j + 1 :, j] @ x[:, j + 1 :])[:, 0]
    return x


def _reduced_solve(H, rhs, z):
    """(x, d): x with H x = rhs (m, p-1, k) per row and the pivots d of H,
    the reduced Hessians of the cells at strains z."""
    L, d = _ldl(H, z)
    return _ldl_solve(L, d, rhs), d


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
    pivots: np.ndarray  # (m, p-1) LDL^T pivots of H

    def rows(self, index) -> CondensedCells:
        """The cells ``index`` selects, as a new batch."""
        return CondensedCells(**{name: v[index] for name, v in vars(self).items()})


def condense_cells(family, z, chi) -> CondensedCells:
    """The cells with fields chi (m, p) at strains z (m,), condensed by one
    LDL^T factorization of their reduced Hessians, whose pivots it keeps;
    raises DomainError where a bond is inadmissible and StabilityError on
    a zero or non-finite pivot."""
    maps = _cell_maps(family.p, family.R)
    d1, d2 = (_flat(b) for b in family.bonds(_bond_args(maps, z, chi), 1, 2))
    grad = d1 @ maps.Dp
    b = d2 @ maps.Gp
    H = _reduced_hessian(maps, d2)
    x, pivots = _reduced_solve(H, np.stack([b, grad @ maps.E], axis=-1), z)
    hb, hg = x[..., 0], x[..., 1]
    return CondensedCells(
        stress=_by_columns(np.add, d1) / family.p,
        residual=_by_columns(np.maximum, np.abs(grad)),
        stiffness=_by_columns(np.add, d2) / family.p - _by_columns(np.add, b * hb),
        shift=-_by_columns(np.add, b * hg),
        relax=-hg @ maps.E.T,
        sensitivity=-hb @ maps.E.T,
        hessian=H,
        pivots=pivots,
    )


def require_stable_cells(cells: CondensedCells, z) -> None:
    """Raise StabilityError unless every reduced cell Hessian is positive
    definite, that is (Sylvester's criterion) unless every pivot is
    positive; ``cells`` are condensed at converged fields and strains z."""
    if not (cells.pivots > 0).all():
        raise _cell_instability("indefinite", cells.hessian, z)


def newton_cells(family, z, chi0):
    """Damped Newton on a batch of cell problems: one :func:`damped_newton`
    iteration over all rows, each evaluation one :func:`condense_cells`,
    its norm the largest row residual and its step ``relax``, with one step
    length for all rows, until that norm is at most ``CELL_TOL``, in at most
    :data:`~hqc.atomistic.MAX_ITER` steps.

    z: (m,) strains; chi0: (m, p) zero-mean starting fields.  Returns
    (chi, cells, iterations): the fields, the cells condensed at them and
    the iteration count, which every row reports.  Raises DomainError on an
    inadmissible start or a trial step that damping cannot keep
    admissible, SolverFailure on nonconvergence, StabilityError on a
    singular cell Hessian.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))

    def evaluate(chi):
        cells = condense_cells(family, z, chi)
        return chi, cells, cells.residual.max(initial=0.0)

    if z.size == 1:
        name = f"cell at strain {z[0]:.6g}"
    else:
        name = f"cells at strains {z.min(initial=np.inf):.6g} to {z.max(initial=-np.inf):.6g}"
    chi0 = np.array(chi0, dtype=float).reshape(z.size, family.p)
    chi, cells, trace = damped_newton(
        evaluate, lambda _chi, cells: cells.relax, chi0, CELL_TOL, MAX_ITER, name
    )
    return chi - chi.mean(axis=1, keepdims=True), cells, np.full(z.size, trace[-1][0])


@dataclass
class HomogenizedLaw:
    """The homogenized law of a potential family.

    Every evaluation solves its cell problems afresh, from the zero field;
    the cell at strain 0 is solved once, on first use of ``ground_cell``.
    """

    family: PotentialFamily

    @functools.cached_property
    def ground_cell(self) -> tuple[np.ndarray, CondensedCells]:
        """(chi, cells): the (1, p) field of the cell problem at strain 0,
        solved from the zero field, and the cell condensed at it; the ground
        microstructure validates them, and a cold coarse solve starts every
        element from them."""
        chi, cells, _iters = newton_cells(self.family, np.zeros(1), np.zeros((1, self.family.p)))
        for a in (chi, *vars(cells).values()):
            a.flags.writeable = False  # every caller shares them
        return chi, cells

    def eval_strains(self, z):
        """Vectorized law evaluation at a batch of strains.

        Returns (phi0, dphi0, d2phi0, chi) with chi of shape (m, p).  A
        converged cell that is not a minimum (a saddle of the cell energy)
        raises StabilityError.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        family = self.family
        chi, cells, _iters = newton_cells(family, z, np.zeros((z.size, family.p)))
        require_stable_cells(cells, z)
        phi = family.bonds(_bond_args(_cell_maps(family.p, family.R), z, chi), 0)
        return _by_columns(np.add, _flat(phi)) / family.p, cells.stress, cells.stiffness, chi

    def tabulate(self, z_grid):
        """Array of rows (z, phi0, dphi0, d2phi0) over a strain grid."""
        z = np.asarray(z_grid, dtype=float)
        phi0, dphi0, d2phi0, _chi = self.eval_strains(z)
        return np.column_stack([z, phi0, dphi0, d2phi0])
