"""Full-lattice equilibrium solvers.

``solve_atomistic`` finds the zero-mean displacement u with

    <dE(u), v> = <f, v>   for all zero-mean v,

where E(u) = < sum_r phi_r(D_r u; .) > is the multilattice energy, by a
damped Newton iteration.  Its Jacobian is a sum of springs,
sum_r D_r^T diag(phi_r'') D_r over the bonds of range r <= R, so an
evaluation returns the gradient and the (R, N) spring stack of bond
curvatures, and each Newton step is the zero-mean solution of those
springs (:mod:`hqc.linsolve`): conjugate gradients preconditioned by their
nearest-neighbour chain, in numpy alone, with a sparse scipy solve as the
fallback for a Jacobian that is not positive definite on the zero-mean
space.  CG stops at the relative tolerance of a forcing term (Eisenstat &
Walker), which tightens as the Newton residual falls.
Termination is measured in the (-1, inf) dual seminorm of the residual
functional, matching the error topology of the coarse-graining analysis.

``damped_newton`` is the residual-backtracking Newton loop of three
solvers: ``solve_atomistic``, :func:`hqc.coarse.solve_coarse` and the
batched cell solve :func:`hqc.microhom.newton_cells`; each supplies only
its residual evaluation, termination norm and Newton step.  The
homogenized problem on the full lattice is ``solve_coarse`` on the mesh
whose nodes are all N sites.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, SolverFailure
from .lattice import LatticeFn, LatticeGrid, primitive_dual_norm
from .linsolve import CG_RTOL, cg_work, solve_cyclic_banded
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


#: bond arguments per block of ``_grad_d2``, whose temporaries then stay
#: small enough (64 KiB each) for malloc to reuse their pages
EVAL_BLOCK = 8192


def _strains(u_vals, start: int, stop: int, R: int, eps: float) -> np.ndarray:
    """(R, stop - start) stack of the strains D_{x,r} u = (u(x + r eps) - u(x))
    / (r eps) of the sites start <= x < stop, indices taken cyclically."""
    n = stop - start
    uw = np.take(u_vals, np.arange(start, stop + R), mode="wrap")
    # row r of the window view is u(x + r eps)
    Z = np.lib.stride_tricks.sliding_window_view(uw, n)[1:] - uw[:n]
    Z /= np.arange(1, R + 1)[:, None] * eps
    return Z


def _grad_d2(prob: AtomisticProblem, u_vals, energy=False, out=None):
    """(energy or None, gradient values, bond curvatures) at u: d2[r - 1, x]
    is the Hessian weight of bond (x, x + r), phi_r''(D_{x,r} u) / (r eps)^2,
    so d2 is the spring stack of the Hessian (:mod:`hqc.linsolve`); the bond
    law's phi is evaluated only when the energy is asked for.  The gradient
    and d2 are written into ``out`` = (g, d2) when it is given.

    The law is evaluated over blocks of whole cells of the strain stack,
    viewed in the stacked (cells, R, p) layout of
    :class:`~hqc.potentials.PotentialFamily`.  A block also evaluates the
    ceil(R / p) cells before it, whose bond forces reach its sites.
    """
    grid, family = prob.grid, prob.family
    eps = grid.eps
    N, R, p = grid.N, family.R, family.p
    scale = np.arange(1, R + 1)[:, None] * eps
    ghost = -(-R // p) * p
    size = max(1, EVAL_BLOCK // (R * p)) * p
    orders = (0, 1, 2) if energy else (1, 2)
    E = 0.0 if energy else None
    g, d2 = (np.empty(N), np.empty((R, N))) if out is None else out
    for a in range(0, N, size):
        b = min(a + size, N)
        n = b - a + ghost
        cells = _strains(u_vals, a - ghost, b, R, eps).reshape(R, n // p, p).transpose(1, 0, 2)
        if not family.admissible(cells).all():
            Z = _strains(u_vals, 0, N, R, eps).reshape(R, N // p, p).transpose(1, 0, 2)
            bad = ~family.admissible(Z).transpose(1, 0, 2).reshape(R, N)
            shell, site = np.argwhere(bad)[0]
            raise DomainError(f"inadmissible bond at site {site + 1}, shell r={shell + 1}")
        stacks = [s.transpose(1, 0, 2).reshape(R, n) for s in family.bonds(cells, *orders)]
        if energy:
            E += float(stacks.pop(0)[:, ghost:].sum()) / N
        w, c = stacks  # bond forces phi_r' and curvatures phi_r''
        w /= scale
        # g(x) = sum_r (w_r(x - r eps) - w_r(x)) / (r eps) over the block's sites
        gb = np.subtract(w[0, ghost - 1 : n - 1], w[0, ghost:], out=g[a:b])
        for r in range(2, R + 1):
            gb += w[r - 1, ghost - r : n - r]
            gb -= w[r - 1, ghost:]
        np.divide(c[:, ghost:], scale * scale, out=d2[:, a:b])
    return E, g, d2


def energy_grad_hess(prob: AtomisticProblem, u: LatticeFn):
    """Energy, gradient (as a LatticeFn), and Hessian springs.

    The gradient g represents the first variation through <g, v>_L; the
    Hessian is returned as its (R, N) spring stack d2, the stiffness of
    bond (x, x + r) in d2[r - 1, x] (see :mod:`hqc.linsolve`).
    """
    E, g, d2 = _grad_d2(prob, u.values, energy=True)
    return E, u.with_values(g), d2


#: step halvings ``damped_newton`` tries before giving up on a Newton step
DAMPING_MAX = 30


def damped_newton(evaluate, step, x, tol, max_iter, name):
    """Newton iteration with residual backtracking, shared by three solvers:
    :func:`solve_atomistic`, :func:`hqc.coarse.solve_coarse` and
    :func:`hqc.microhom.newton_cells`.

    ``evaluate(x)`` returns ``(x, state, norm)``: the possibly projected
    iterate, whatever ``step`` needs and the residual norm, which decides
    termination and is recorded in the trace.  ``step(x, state)`` returns
    the Newton direction.  A state is read only by the call of ``step``
    that follows its evaluation, before the next evaluation, and the one
    returned is the last evaluated, so evaluations may reuse the buffers of
    earlier states.  A DomainError from evaluating the start is
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


#: CG tolerance of the first atomistic Newton step, and the cap of every one
ETA_0, ETA_MAX = 1e-3, 1e-2


def forcing_term(res: float, res_prev: float | None, tol: float) -> float:
    """CG tolerance of the atomistic Newton step at residual ``res``, after a
    step from residual ``res_prev`` (None for the first step).

    Eisenstat & Walker's choice 2 (SIAM J. Sci. Comput. 17(1), 1996),
    0.9 (res / res_prev)^2, starting at ETA_0 and capped at ETA_MAX; their
    safeguard 0.9 eta_prev^2 acts only above 0.1, which the cap excludes.
    It is kept at least 0.5 tol / res, so that a step that brings the
    residual below tol is not solved further (Kelley, Iterative Methods for
    Linear and Nonlinear Equations, SIAM 1995, 6.3), and at least CG_RTOL.
    """
    eta = ETA_0 if res_prev is None else 0.9 * (res / res_prev) ** 2
    return max(min(ETA_MAX, max(eta, 0.5 * tol / res)), CG_RTOL)


def solve_atomistic(
    prob: AtomisticProblem,
    u_init: LatticeFn | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> EquilibriumSolution:
    """Damped Newton on the zero-mean space for the problem's force, from
    ``u_init`` (zero by default) projected to zero mean.

    Each step is the zero-mean solution of the Newton system, whose
    Jacobian is the springs of the bond curvatures that the evaluation
    wrote, by preconditioned CG to the relative tolerance
    :func:`forcing_term`, or by the sparse fallback when the Jacobian is
    not positive definite on the zero-mean space
    (:func:`hqc.linsolve.solve_cyclic_banded`).  The gradient, the
    curvatures and the CG vectors are allocated once per solve.
    Backtracking halves the step on residual increase or on a domain error
    (:func:`damped_newton`).
    """
    grid = prob.grid
    f = prob.force.values
    f = f - f.mean()  # construction projects only a mean above 1e-12
    # a state is read only by the step that follows it, before the next
    # evaluation (damped_newton), so every evaluation writes into one
    # gradient and one curvature buffer
    R, N = prob.family.R, grid.N
    evaluated = (np.empty(N), np.empty((R, N)))
    work = cg_work(evaluated[1])
    res_prev = None

    def evaluate(u_vals):
        u_vals = u_vals - u_vals.mean()
        _, rho, d2 = _grad_d2(prob, u_vals, out=evaluated)
        rho -= f
        rho -= rho.mean()
        res = primitive_dual_norm(rho, grid.eps)
        return u_vals, (rho, d2, res), res

    def step(_u, state):
        nonlocal res_prev
        rho, d2, res = state
        eta = forcing_term(res, res_prev, tol)
        res_prev = res
        return solve_cyclic_banded(d2, -rho, rtol=eta, work=work)

    u0 = np.zeros(grid.N) if u_init is None else u_init.values
    u, _, trace = damped_newton(evaluate, step, u0, tol, max_iter, "atomistic")
    it, res, _ = trace[-1]
    return EquilibriumSolution(LatticeFn(grid, u), res, it, tuple(trace))
