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
arguments in one (m, R p) array whose column (r - 1) p + y is
z + D_{y,r} chi, computed as z + chi D^T with the (R p) x p difference
matrix D; its (m, R, p) view is the stacked layout of
:class:`~hqc.potentials.PotentialFamily`, so the bond derivatives d1, d2
of a whole batch come from one ``family.bonds`` call each, and the cell
gradient is d1 D / p.
The zero-mean constraint is enforced by eliminating the last micro value,
chi = E c, which keeps the reduced cell Hessian symmetric positive
definite whenever nearest-neighbor dominance holds: with G = D E the
reduced gradient is d1 G / p and the reduced Hessian G^T diag(d2) G / p,
one batched matrix product.  D, E and G depend only on (p, R).

``newton_cells`` solves a batch of cell problems, one per strain.  Every
iterate carries its bond arguments, gradient and residual, and an
accepted trial hands over its own, so each iterate's gradient is
evaluated once.  Newton steps are damped by residual backtracking
(halving) and, once the tolerance is met, polished with a few more full
steps so that results are independent of the starting guess down to the
attainable floor; this is what makes warm-started and cold evaluations
agree to ~1e-14 relative.  ``HomogenizedLaw.eval_strains`` evaluates phi0
and its derivatives from one such batch; d2phi0 = <d2> + b . c, where
b = d2 G / p is the strain derivative of the reduced gradient and the
reduced sensitivity c solves H c = -b.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SolverFailure, StabilityError
from .potentials import PotentialFamily

_POLISH_ROUNDS = 6


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
    return b.reshape(len(b), -1)


def _evaluate(family, maps, z, chi):
    """Iterate state (chi, bond arguments (m, R, p), cell gradient,
    residual) of the fields chi (m, p) at strains z, and which rows are
    admissible; an inadmissible row has gradient 0 and residual inf."""
    a = (z[:, None] + chi @ maps.DT).reshape(z.size, *maps.layout)
    ok = family.admissible(a).all(axis=(1, 2))
    g = np.zeros_like(chi)
    res = np.full(z.size, np.inf)
    if ok.any():
        rows = slice(None) if ok.all() else ok
        g[rows] = _flat(family.bonds(a[rows], 1)) @ maps.Dp
        res[rows] = np.abs(g[rows]).max(axis=1)
    return (chi, a, g, res), ok


def _reduced_hessian(maps, d2):
    """(m, p-1, p-1) reduced cell Hessians G^T diag(d2) G / p."""
    return (maps.GT * d2[:, None, :]) @ maps.Gp


def _reduced_solve(maps, d2, rhs, what):
    """Reduced c with H c = rhs per row, H the reduced Hessian of d2."""
    try:
        return np.linalg.solve(_reduced_hessian(maps, d2), rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"singular {what}") from exc


def _newton_direction(family, maps, a, g):
    """Full-field Newton step of cells with bond arguments a, gradient g."""
    d2 = _flat(family.bonds(a, 2))
    c = _reduced_solve(maps, d2, -g @ maps.E, "cell Hessian in micro Newton step")
    return c @ maps.E.T


def _accept(state, iters, trial, rows, accept):
    """Hand the accepted trials' state over to their rows of the iterate."""
    done = rows[accept]
    for cur, new in zip(state, trial):
        cur[done] = new[accept]
    iters[done] += 1


def cold_start(family, z):
    """Cold starting fields (m, p) of the cells at strains z: the zero field."""
    return np.zeros((np.size(z), family.p))


def warm_start(family, z, warm):
    """Starting fields (m, p) of the cells at strains z: the rows of warm,
    except that a row inadmissible at its strain takes its cold start."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    maps = _cell_maps(family.p, family.R)
    chi0 = np.array(warm, dtype=float).reshape(z.size, family.p)
    a = (z[:, None] + chi0 @ maps.DT).reshape(z.size, *maps.layout)
    bad = ~family.admissible(a).all(axis=(1, 2))
    chi0[bad] = cold_start(family, z[bad])
    return chi0


def newton_cells(family, z, chi0, tol, max_iter, damping_max):
    """Damped Newton on a batch of cell problems.

    z: (m,) strains; chi0: (m, p) zero-mean starting fields.  Returns
    (chi, residual, iterations) arrays.  Raises DomainError when a trial
    step cannot be kept admissible by damping, SolverFailure on
    nonconvergence, StabilityError on a singular cell Hessian.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = z.size
    p = family.p
    maps = _cell_maps(p, family.R)
    iters = np.zeros(m, dtype=int)
    state, ok = _evaluate(family, maps, z, np.array(chi0, dtype=float).reshape(m, p).copy())
    chi, a, g, res = state
    if p == 1:
        if not ok.all():
            raise DomainError("inadmissible strain in single-species cell")
        return chi, np.zeros(m), iters
    if not ok.all():
        raise DomainError("inadmissible micro starting guess")

    it = 0
    while True:
        active = res > tol
        if not active.any():
            break
        if it >= max_iter:
            raise SolverFailure(
                f"cell Newton did not converge in {max_iter} iterations "
                f"(worst residual {res.max():.3e})"
            )
        it += 1
        rows = np.flatnonzero(active)
        step = _newton_direction(family, maps, a[rows], g[rows])
        # every row still pending has been halved equally often
        t = 1.0
        pending = np.arange(rows.size)
        ok = np.ones(rows.size, dtype=bool)
        for _ in range(damping_max + 1):
            if not pending.size:
                break
            idx = rows[pending]
            trial, ok = _evaluate(family, maps, z[idx], chi[idx] + t * step[pending])
            accept = trial[3] < res[idx]
            _accept(state, iters, trial, idx, accept)
            pending, ok = pending[~accept], ok[~accept]
            t *= 0.5
        if pending.size:
            stuck = rows[pending]
            if not ok.all():
                raise DomainError(
                    f"micro step at strain z={z[stuck[~ok][0]]:.6g} left the admissible "
                    f"domain and damping could not recover"
                )
            raise SolverFailure(f"micro damping stalled at strain z={z[stuck[0]]:.6g}")

    # polish: extra full steps while they sharply reduce the residual, so the
    # converged field does not depend on the starting guess
    every = np.arange(m)
    for _ in range(_POLISH_ROUNDS):
        try:
            step = _newton_direction(family, maps, a, g)
        except StabilityError:
            break
        trial, _ok = _evaluate(family, maps, z, chi + step)
        accept = trial[3] < 0.5 * res
        if not accept.any():
            break
        _accept(state, iters, trial, every, accept)

    chi -= chi.mean(axis=1, keepdims=True)
    return chi, res, iters


@dataclass
class HomogenizedLaw:
    """Potential family plus the micro-solver settings of its cell problems.

    Every evaluation solves its cell problems afresh, from ``warm`` when
    given and otherwise from zero; converged values do not depend on the
    start (see module docstring).
    """

    family: PotentialFamily
    tol: float = 1e-12
    max_iter: int = 60
    damping_max: int = 30

    def eval_strains(self, z, warm: np.ndarray | None = None):
        """Vectorized law evaluation at a batch of strains.

        Returns (phi0, dphi0, d2phi0, chi) with chi of shape (m, p); pass
        chi back as ``warm`` when re-evaluating at nearby strains (e.g. in
        an outer Newton loop).
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        m = z.size
        family = self.family
        p = family.p
        maps = _cell_maps(p, family.R)
        if warm is not None:
            chi0 = np.asarray(warm, dtype=float).reshape(m, p).copy()
        else:
            chi0 = cold_start(family, z)
        chi, _res, _iters = newton_cells(
            family, z, chi0, self.tol, self.max_iter, self.damping_max
        )
        a = (z[:, None] + chi @ maps.DT).reshape(m, *maps.layout)
        phi, d1, d2 = (_flat(b) for b in family.bonds(a, 0, 1, 2))
        phi0 = phi.sum(axis=1) / p
        dphi0 = d1.sum(axis=1) / p
        d2phi0 = d2.sum(axis=1) / p
        if p > 1:
            # b: strain derivative of the reduced gradient; c: reduced sensitivity
            b = d2 @ maps.Gp
            c = _reduced_solve(maps, d2, -b, "linearized cell Hessian")
            d2phi0 += (b * c).sum(axis=1)
        return phi0, dphi0, d2phi0, chi

    def eval(self, z: float):
        """(phi0, dphi0, d2phi0) at one strain, from a cold cell solve."""
        phi0, dphi0, d2phi0, _chi = self.eval_strains(float(z))
        return float(phi0[0]), float(dphi0[0]), float(d2phi0[0])

    def tabulate(self, z_grid):
        """Array of rows (z, phi0, dphi0, d2phi0) over a strain grid."""
        z = np.asarray(z_grid, dtype=float)
        phi0, dphi0, d2phi0, _chi = self.eval_strains(z)
        return np.column_stack([z, phi0, dphi0, d2phi0])
