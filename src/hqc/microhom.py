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

``newton_cells`` solves a batch of cell problems, one per strain, in
vectorized form; ``HomogenizedLaw.eval_strains`` evaluates phi0 and its
derivatives from one such batch.  The zero-mean constraint is enforced by
eliminating the last micro value, which keeps the reduced cell Hessian
symmetric positive definite whenever nearest-neighbor dominance holds.
Newton steps are damped by residual backtracking (halving) and, once the
tolerance is met, polished with a few more full steps so that results are
independent of the starting guess down to the attainable floor; this is
what makes warm-started and cold evaluations agree to ~1e-14 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SolverFailure, StabilityError
from .potentials import PotentialFamily, ramp_guess

_POLISH_ROUNDS = 6


def _bond_arguments(family, z, chi):
    """args[r] (m, p): strain z plus the r-step micro difference."""
    return {
        r: z[:, None] + (np.roll(chi, -r, axis=1) - chi) / r
        for r in range(1, family.R + 1)
    }


def _admissible_rows(family, args, y):
    ok = np.ones(args[1].shape[0], dtype=bool)
    for r, a in args.items():
        ok &= np.asarray(family.admissible(r, a, y)).all(axis=1)
    return ok


def _cell_gradient(family, args, y):
    p = y.size
    g = np.zeros_like(args[1])
    for r, a in args.items():
        w = family.d1(r, a, y) / r
        g += (np.roll(w, r, axis=1) - w) / p
    return g


def _cell_hessian(family, args, y):
    m, p = args[1].shape
    H = np.zeros((m, p, p))
    for r, a in args.items():
        v = family.d2(r, a, y) / (r * r * p)
        for j in range(p):
            jr = (j + r) % p
            vj = v[:, j]
            H[:, jr, jr] += vj
            H[:, j, j] += vj
            H[:, jr, j] -= vj
            H[:, j, jr] -= vj
    return H


def _reduce_vec(g):
    return g[:, :-1] - g[:, -1:]


def _reduce_mat(H):
    return H[:, :-1, :-1] - H[:, :-1, -1:] - H[:, -1:, :-1] + H[:, -1:, -1:]


def _expand(c):
    return np.concatenate([c, -c.sum(axis=1, keepdims=True)], axis=1)


def _newton_step(family, args, y, g_rows, rows):
    H = _reduce_mat(_cell_hessian(family, {r: a[rows] for r, a in args.items()}, y))
    try:
        c = np.linalg.solve(H, -_reduce_vec(g_rows)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise StabilityError("singular cell Hessian in micro Newton step") from exc
    return _expand(c)


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
    y = np.arange(p)
    chi = np.array(chi0, dtype=float).reshape(m, p).copy()
    iters = np.zeros(m, dtype=int)
    if p == 1:
        args = _bond_arguments(family, z, chi)
        if not _admissible_rows(family, args, y).all():
            raise DomainError("inadmissible strain in single-species cell")
        return chi, np.zeros(m), iters

    args = _bond_arguments(family, z, chi)
    if not _admissible_rows(family, args, y).all():
        raise DomainError("inadmissible micro starting guess")
    res = np.abs(_cell_gradient(family, args, y)).max(axis=1)

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
        rows = np.where(active)[0]
        g = _cell_gradient(family, {r: a[rows] for r, a in args.items()}, y)
        step = np.zeros_like(chi)
        step[rows] = _newton_step(family, args, y, g, rows)

        t = np.where(active, 1.0, 0.0)
        pending = active.copy()
        last_ok = np.ones(m, dtype=bool)
        for _ in range(damping_max + 1):
            if not pending.any():
                break
            trial = chi + t[:, None] * step
            targs = _bond_arguments(family, z, trial)
            ok = _admissible_rows(family, targs, y)
            last_ok = ok
            tres = np.full(m, np.inf)
            good = pending & ok
            if good.any():
                tg = _cell_gradient(family, {r: a[good] for r, a in targs.items()}, y)
                tres[good] = np.abs(tg).max(axis=1)
            accept = pending & (tres < res)
            if accept.any():
                chi[accept] = trial[accept]
                res[accept] = tres[accept]
                iters[accept] += 1
                pending &= ~accept
            t[pending] *= 0.5
        if pending.any():
            if not last_ok[pending].all():
                bad = np.where(pending & ~last_ok)[0][0]
                raise DomainError(
                    f"micro step at strain z={z[bad]:.6g} left the admissible "
                    f"domain and damping could not recover"
                )
            raise SolverFailure(
                f"micro damping stalled at strain z={z[np.where(pending)[0][0]]:.6g}"
            )
        args = _bond_arguments(family, z, chi)
        res = np.abs(_cell_gradient(family, args, y)).max(axis=1)

    # polish: extra full steps while they sharply reduce the residual, so the
    # converged field does not depend on the starting guess
    for _ in range(_POLISH_ROUNDS):
        rows = np.arange(m)
        g = _cell_gradient(family, args, y)
        try:
            step = _newton_step(family, args, y, g, rows)
        except StabilityError:
            break
        trial = chi + step
        targs = _bond_arguments(family, z, trial)
        ok = _admissible_rows(family, targs, y)
        tres = np.full(m, np.inf)
        if ok.any():
            tg = _cell_gradient(family, {r: a[ok] for r, a in targs.items()}, y)
            tres[ok] = np.abs(tg).max(axis=1)
        accept = tres < 0.5 * res
        if not accept.any():
            break
        chi[accept] = trial[accept]
        res[accept] = tres[accept]
        iters[accept] += 1
        args = _bond_arguments(family, z, chi)

    chi -= chi.mean(axis=1, keepdims=True)
    return chi, res, iters


@dataclass
class HomogenizedLaw:
    """Potential family plus the micro-solver settings of its cell problems.

    Every evaluation solves its cell problems afresh, from ``warm`` when
    given and otherwise from zero (or the equilibrium-spacing ramp when
    zero is inadmissible); converged values do not depend on the start
    (see module docstring).
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
        p = self.family.p
        if warm is not None:
            chi0 = np.asarray(warm, dtype=float).reshape(m, p).copy()
        else:
            chi0 = np.zeros((m, p))
            if p > 1:
                bad = ~_admissible_rows(
                    self.family, _bond_arguments(self.family, z, chi0), np.arange(p)
                )
                if bad.any():
                    chi0[bad] = ramp_guess(self.family)
        chi, _res, _iters = newton_cells(
            self.family, z, chi0, self.tol, self.max_iter, self.damping_max
        )
        y = np.arange(p)
        args = _bond_arguments(self.family, z, chi)
        phi0 = np.zeros(m)
        dphi0 = np.zeros(m)
        d2 = {}
        for r, a in args.items():
            phi0 += self.family.eval(r, a, y).mean(axis=1)
            dphi0 += self.family.d1(r, a, y).mean(axis=1)
            d2[r] = self.family.d2(r, a, y)
        if p > 1:
            b = np.zeros((m, p))
            for r, v in d2.items():
                b += (np.roll(v, r, axis=1) - v) / (r * p)
            H = _reduce_mat(_cell_hessian(self.family, args, y))
            try:
                c = np.linalg.solve(H, -_reduce_vec(b)[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise StabilityError("singular linearized cell Hessian") from exc
            dchi = _expand(c)
        else:
            dchi = np.zeros((m, 1))
        d2phi0 = np.zeros(m)
        for r, v in d2.items():
            d2phi0 += (v * (1.0 + (np.roll(dchi, -r, axis=1) - dchi) / r)).mean(axis=1)
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
