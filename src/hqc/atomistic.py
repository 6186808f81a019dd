"""Full-lattice equilibrium solvers.

``solve_atomistic`` finds the zero-mean displacement u with

    <dE(u), v> = <f, v>   for all zero-mean v,

where E(u) = < sum_r phi_r(D_r u; .) > is the multilattice energy, by a
damped Newton iteration on the nearest-neighbour strains z = D_1 u, with
sum(z) = 0; u = eps cumsum(z) is formed only for the output.  A shell-r
bond argument D_{x,r} u is the window mean (1/r) sum_{j<r} z(x + j eps), so
the equations are in stress form, as in :func:`hqc.coarse.solve_coarse`:
w = sigma + eps cumsum(f) is one constant at equilibrium, for the stress
sigma(y) = sum_r (1/r) sum_{j<r} phi_r'(y - j eps), and the residual norm
(max w - min w) / 2 is the (-1, inf) dual seminorm of the residual
functional, the error topology of the coarse-graining analysis.  No
evaluation sums over the chain, so the residual reaches the roundoff of
the stresses at every N.  Each Newton step solves the springs phi_r'' / r^2
on those windows (:mod:`hqc.linsolve`) by conjugate gradients, to the
relative tolerance of a forcing term (Eisenstat & Walker), which tightens
as the Newton residual falls.

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
from .lattice import LatticeFn, LatticeGrid
from .linsolve import CG_RTOL, cg_work, solve_cyclic_banded
from .potentials import PotentialFamily

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AtomisticProblem:
    """Grid, interaction family, and a zero-mean external force.

    A force with nonzero mean is projected at construction, and the
    subtracted constant logged.
    """

    grid: LatticeGrid
    family: PotentialFamily
    force: LatticeFn

    def __post_init__(self):
        if self.grid.p != self.family.p:
            raise ValueError("grid period and family period differ")
        m = self.force.values.mean()
        if abs(m) > 1e-12:
            log.info("projecting force to zero mean (subtracted constant %.3e)", m)
            object.__setattr__(self, "force", self.force.with_values(self.force.values - m))


@dataclass(frozen=True)
class EquilibriumSolution:
    u: LatticeFn
    residual_dual: float
    iterations: int
    #: rows (iteration, residual_dual, step_damping)
    trace: tuple = field(default=(), repr=False)


#: bond arguments per block of ``_stress_d2``: the law's temporaries, (R, n)
#: arrays of 64 KiB, then stay small enough for malloc to reuse their pages
#: (blocks of 12288 were no faster at N = 65536 and raised a study's peak
#: RSS by 0.5 MB)
EVAL_BLOCK = 8192


def _window_sums(z, start: int, stop: int, R: int) -> np.ndarray:
    """(R, stop - start) stack of the window sums sum_{j<r} z(x + j) =
    r D_{x,r} u of the sites start <= x < stop, indices taken cyclically."""
    n = stop - start
    if 0 <= start and stop + R - 1 <= z.size:
        zw = z[start : stop + R - 1]
    else:  # the block wraps past an end of the chain
        zw = np.take(z, np.arange(start, stop + R - 1), mode="wrap")
    Z = np.empty((R, n))
    Z[0] = zw[:n]
    for r in range(1, R):
        np.add(Z[r - 1], zw[r : r + n], out=Z[r])
    return Z


def _stress_d2(prob: AtomisticProblem, z, out=None):
    """(stress, springs) at the strains z: the stress
    sigma(y) = sum_r (1/r) sum_{j<r} phi_r'(y - j), the derivative of N E in
    z(y), and the springs s[r - 1, x] = phi_r''(D_{x,r} u) / r^2 on the
    window sums of z (:mod:`hqc.linsolve`), written into ``out`` =
    (sigma, s) when it is given.  The law is evaluated at the window sums
    r D_{x,r} u with the shell factors r (:mod:`hqc.potentials`), so that
    it returns the bond stresses phi_r' / r and the springs themselves.  It
    is evaluated over blocks of whole cells, in the stacked (cells, R, p)
    view of each block's (R, n) stack, each block with the
    ceil((R - 1) / p) cells before it, whose bonds span its sites.  A
    DomainError from the law is re-raised naming the first inadmissible
    site and shell of the chain.
    """
    family = prob.family
    N, R, p = prob.grid.N, family.R, family.p
    shells = np.arange(1.0, R + 1)[:, None]
    ghost = -(-(R - 1) // p) * p
    size = max(1, EVAL_BLOCK // (R * p)) * p
    sigma, s = (np.empty(N), np.empty((R, N))) if out is None else out
    for a in range(0, N, size):
        b = min(a + size, N)
        n = b - a + ghost
        cells = _window_sums(z, a - ghost, b, R).reshape(R, n // p, p).transpose(1, 0, 2)
        try:
            bonds = family.bonds(cells, 1, 2, shells=shells)
        except DomainError as exc:
            Z = (_window_sums(z, 0, N, R) / shells).reshape(R, N // p, p).transpose(1, 0, 2)
            bad = ~family.admissible(Z).transpose(1, 0, 2).reshape(R, N)
            shell, site = np.argwhere(bad)[0]
            raise DomainError(f"inadmissible bond at site {site + 1}, shell r={shell + 1}") from exc
        # bond stresses phi_r' / r and springs phi_r'' / r^2
        w, c = (st.transpose(1, 0, 2).reshape(R, n) for st in bonds)
        # sigma(y) = sum_j t_j(y - j) with t_j = sum_{r>j} w_r, over the block's sites
        for r in range(R - 1, 0, -1):
            w[r - 1] += w[r]
        sb = sigma[a:b]
        np.copyto(sb, w[0, ghost:])
        for j in range(1, R):
            sb += w[j, ghost - j : n - j]
        np.copyto(s[:, a:b], c[:, ghost:])
    return sigma, s


#: step halvings ``damped_newton`` tries before giving up on a Newton step
DAMPING_MAX = 30
#: residual tolerance of the atomistic and coarse Newton solves, in the
#: (-1, inf) dual seminorm
NEWTON_TOL = 1e-10
#: Newton steps of every ``damped_newton`` solve before it gives up
MAX_ITER = 60


def damped_newton(evaluate, step, x, tol, max_iter, name, start=None):
    """Newton iteration with residual backtracking, shared by three solvers:
    :func:`solve_atomistic`, :func:`hqc.coarse.solve_coarse` and
    :func:`hqc.microhom.newton_cells`.

    ``evaluate(x)`` returns ``(x, state, norm)``: the possibly projected
    iterate, whatever ``step`` needs and the residual norm, which decides
    termination and is recorded in the trace.  ``step(x, state)`` returns
    the Newton direction.  A state is read only by the call of ``step``
    that follows its evaluation, before the next evaluation, and the one
    returned is the last evaluated, so evaluations may reuse the buffers of
    earlier states.  ``start``, if given, is the ``(state, norm)`` that
    ``evaluate`` would return at x, which is then not evaluated.  A
    DomainError from evaluating the start is re-raised as
    ``"{name} Newton: inadmissible start: ..."``, and a start whose norm is
    not finite raises SolverFailure.
    A trial point is accepted when its norm drops below the current one;
    otherwise, or when evaluating it raises DomainError or SolverFailure,
    the step is halved, at most ``DAMPING_MAX`` times.  When no halving is
    accepted, an error from the final (smallest) trial is re-raised as its
    own class; if that trial evaluated, the solve has stalled.  Returns
    ``(x, state, trace)`` with trace rows (iteration, norm, step_damping);
    every SolverFailure raised here carries the trace so far.
    """
    if start is not None:
        state, res = start
    else:
        try:
            x, state, res = evaluate(x)
        except DomainError as exc:
            raise DomainError(f"{name} Newton: inadmissible start: {exc}") from exc
    trace = [(0, res, 0.0)]
    if not np.isfinite(res):  # a nan norm would pass as converged
        raise SolverFailure(f"{name} Newton: residual {res:.3e} at the start", trace)
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


def solve_atomistic(prob: AtomisticProblem, u_init: LatticeFn | None = None) -> EquilibriumSolution:
    """Damped Newton on the zero-sum strains z for the problem's force,
    from the strains of ``u_init`` (zero by default), to residual
    :data:`NEWTON_TOL` in at most :data:`MAX_ITER` steps; returns the
    zero-mean u = eps cumsum(z).

    Each step is the zero-sum dz with J dz = c - w for the springs J and
    the stress plus force primitive w that the evaluation wrote, by
    :func:`hqc.linsolve.solve_cyclic_banded` to the relative tolerance
    :func:`forcing_term`.  The buffers of both, and the CG vectors, are
    allocated once per solve.  Backtracking halves the step on residual
    increase or on a domain error (:func:`damped_newton`).
    """
    grid = prob.grid
    eps, R, N = grid.eps, prob.family.R, grid.N
    f = prob.force.values
    P = eps * np.cumsum(f - f.mean())  # construction projects only a mean above 1e-12
    # a state is read only by the step that follows it, before the next
    # evaluation (damped_newton), so every evaluation writes into one stress
    # and one spring buffer, and the step negates the stress in place
    evaluated = (np.empty(N), np.empty((R, N)))
    work = cg_work(evaluated[1])
    res_prev = None

    def evaluate(z):
        z -= z.mean()  # every iterate is a new array (damped_newton)
        w, s = _stress_d2(prob, z, out=evaluated)
        w += P
        res = 0.5 * float(w.max() - w.min())
        return z, (w, s, res), res

    def step(_z, state):
        nonlocal res_prev
        w, s, res = state
        eta = forcing_term(res, res_prev, NEWTON_TOL)
        res_prev = res
        return solve_cyclic_banded(s, np.negative(w, out=w), rtol=eta, work=work)

    z0 = np.zeros(N) if u_init is None else np.diff(u_init.values, append=u_init.values[:1]) / eps
    del u_init  # its strains are all the solve reads; a start built for the call is freed
    z, _, trace = damped_newton(evaluate, step, z0, NEWTON_TOL, MAX_ITER, "atomistic")
    u = eps * np.roll(np.cumsum(z), 1)  # u(x) = eps times the sum of z below x
    u -= u.mean()
    it, res, _ = trace[-1]
    return EquilibriumSolution(LatticeFn(grid, u), res, it, tuple(trace))
