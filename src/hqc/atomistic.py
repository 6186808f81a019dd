"""Full-lattice equilibrium solvers.

``solve_atomistic`` finds the zero-mean displacement u with

    <dE(u), v> = <f, v>   for all zero-mean v,

where E(u) = < sum_r phi_r(D_r u; .) > is the multilattice energy, by a
damped Newton iteration with cyclic banded Jacobians of halfwidth R.
Each Jacobian annihilates the constants, and each Newton step is the
zero-mean solution of its banded system: conjugate gradients
preconditioned by the Jacobian's nearest-neighbour spring chain, in numpy
alone, with a sparse scipy solve as the fallback for a Jacobian that is
not positive definite on the zero-mean space (:mod:`hqc.linsolve`).
Termination is measured in the (-1, inf) dual seminorm of the residual
functional, matching the error topology of the coarse-graining analysis.

``damped_newton`` is the residual-backtracking Newton loop of three
solvers: ``solve_atomistic``, :func:`hqc.coarse.solve_coarse` and the
batched cell solve :func:`hqc.microhom.newton_cells`; each supplies only
its residual evaluation, termination norm and Newton step.  The homogenized problem on the full lattice is
``solve_coarse`` on the mesh whose nodes are all N sites.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, SolverFailure
from .lattice import LatticeFn, LatticeGrid, primitive_dual_norm
from .linsolve import solve_cyclic_banded
from .potentials import PotentialFamily

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AtomisticProblem:
    """Grid, interaction family, and a zero-mean external force.

    A force with nonzero mean is projected at construction; the subtracted
    constant is recorded in ``subtracted_mean`` and logged.
    """

    grid: LatticeGrid
    family: PotentialFamily
    force: LatticeFn
    subtracted_mean: float = 0.0

    def __post_init__(self):
        if self.grid.p != self.family.p:
            raise ValueError("grid period and family period differ")
        m = self.force.values.mean()
        if abs(m) > 1e-12:
            log.info("projecting force to zero mean (subtracted constant %.3e)", m)
            object.__setattr__(self, "force", self.force.with_values(self.force.values - m))
            object.__setattr__(self, "subtracted_mean", float(m))


@dataclass(frozen=True)
class EquilibriumSolution:
    u: LatticeFn
    residual_dual: float
    iterations: int
    #: rows (iteration, residual_dual, step_damping)
    trace: tuple = field(default=(), repr=False)


def _grad_hess(prob: AtomisticProblem, u_vals, energy=False):
    """(energy or None, gradient values, cyclic banded Hessian) at u; the
    bond law's phi is evaluated only when the energy is asked for.

    The law is evaluated once over the (R, N) stack of the strains
    D_{x,r} u, viewed in the stacked (N/p, R, p) layout of
    :class:`~hqc.potentials.PotentialFamily`.
    """
    grid, family = prob.grid, prob.family
    eps = grid.eps
    N, R, p = grid.N, family.R, family.p
    # row r of the window view is u(x + r eps)
    ahead = np.lib.stride_tricks.sliding_window_view(np.concatenate([u_vals, u_vals[:R]]), N)
    Z = ahead[1:] - u_vals
    Z /= np.arange(1, R + 1)[:, None] * eps
    cells = Z.reshape(R, N // p, p).transpose(1, 0, 2)
    bad = ~family.admissible(cells)
    if bad.any():
        shell, site = np.argwhere(bad.transpose(1, 0, 2).reshape(R, N))[0]
        raise DomainError(f"inadmissible bond at site {site + 1}, shell r={shell + 1}")
    orders = (0, 1, 2) if energy else (1, 2)
    stacks = [b.transpose(1, 0, 2).reshape(R, N) for b in family.bonds(cells, *orders)]
    E = float(stacks.pop(0).mean(axis=1).sum()) if energy else None
    del Z, cells  # lowers the transient memory peak at large N
    d1, d2 = stacks
    g = np.zeros(N)
    diags = np.zeros((2 * R + 1, N))
    for r, w, d in zip(range(1, R + 1), d1, d2):
        g += (np.roll(w, r) - w) / (r * eps)
        d = d / (r * eps) ** 2
        d_shift = np.roll(d, r)  # value d(x - r eps)
        diags[R] += d + d_shift
        diags[R + r] += -d
        diags[R - r] += -d_shift
    return E, g, diags


def energy_grad_hess(prob: AtomisticProblem, u: LatticeFn):
    """Energy, gradient (as a LatticeFn), and cyclic banded Hessian.

    The gradient g represents the first variation through <g, v>_L; the
    Hessian is returned as cyclic diagonals of shape (2R+1, N) with
    halfwidth R (see :mod:`hqc.linsolve`).
    """
    E, g, diags = _grad_hess(prob, u.values, energy=True)
    return E, u.with_values(g), diags


#: step halvings ``damped_newton`` tries before giving up on a Newton step
DAMPING_MAX = 30


def damped_newton(evaluate, step, x, tol, max_iter, name):
    """Newton iteration with residual backtracking, shared by three solvers:
    :func:`solve_atomistic`, :func:`hqc.coarse.solve_coarse` and
    :func:`hqc.microhom.newton_cells`.

    ``evaluate(x)`` returns ``(x, state, norm)``: the possibly projected
    iterate, whatever ``step`` needs and the residual norm, which decides
    termination and is recorded in the trace.  ``step(x, state)`` returns
    the Newton direction.  A DomainError from evaluating the start is
    re-raised as ``"{name} Newton: inadmissible start: ..."``.
    A trial point is accepted when its norm drops below the current one;
    otherwise, or when evaluating it raises DomainError or SolverFailure,
    the step is halved, at most ``DAMPING_MAX`` times.  When no halving is
    accepted, an error from the final (smallest) trial is re-raised as its
    own class; if that trial evaluated, the solve has stalled.  Returns
    ``(x, state, trace)`` with trace rows (iteration, norm, step_damping);
    every SolverFailure raised here carries the trace so far.
    """
    try:
        x, state, res = evaluate(x)
    except DomainError as exc:
        raise DomainError(f"{name} Newton: inadmissible start: {exc}") from exc
    trace = [(0, res, 0.0)]
    it = 0
    while res > tol:
        if it >= max_iter:
            raise SolverFailure(
                f"{name} Newton: residual {res:.3e} after {max_iter} iterations", trace
            )
        it += 1
        direction = step(x, state)
        t = 1.0
        last_error = None
        for _ in range(DAMPING_MAX + 1):
            try:
                trial = evaluate(x + t * direction)
            except (DomainError, SolverFailure) as exc:
                last_error = exc
                t *= 0.5
                continue
            last_error = None
            if trial[2] < res:
                x, state, res = trial
                break
            t *= 0.5
        else:
            unrecoverable = f"{name} Newton step not recoverable by damping: {last_error}"
            if isinstance(last_error, DomainError):
                raise DomainError(unrecoverable) from last_error
            if last_error is not None:
                raise SolverFailure(unrecoverable, trace) from last_error
            raise SolverFailure(f"{name} Newton stalled at residual {res:.3e}", trace)
        trace.append((it, res, t))
    return x, state, trace


def solve_atomistic(
    prob: AtomisticProblem,
    u_init: LatticeFn | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> EquilibriumSolution:
    """Damped Newton on the zero-mean space for the problem's force, from
    ``u_init`` (zero by default) projected to zero mean.

    Each step is the zero-mean solution of the cyclic banded Newton system
    by preconditioned CG, or by the sparse fallback when the Jacobian is
    not positive definite on the zero-mean space
    (:func:`hqc.linsolve.solve_cyclic_banded`); backtracking halves the
    step on residual increase or on a domain error (:func:`damped_newton`).
    """
    grid = prob.grid
    f = prob.force.values
    f = f - f.mean()  # construction projects only a mean above 1e-12

    def evaluate(u_vals):
        u_vals = u_vals - u_vals.mean()
        _, g, diags = _grad_hess(prob, u_vals)
        rho = g - f
        return u_vals, (rho, diags), primitive_dual_norm(rho - rho.mean(), grid.eps)

    def step(_u, state):
        rho, diags = state
        return solve_cyclic_banded(diags, -rho)

    u0 = np.zeros(grid.N) if u_init is None else u_init.values
    u, _, trace = damped_newton(evaluate, step, u0, tol, max_iter, "atomistic")
    it, res, _ = trace[-1]
    return EquilibriumSolution(LatticeFn(grid, u), res, it, tuple(trace))
