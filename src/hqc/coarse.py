"""Coarse-grained (piecewise affine) spaces and solves.

A mesh is a set of atom sites chosen as nodes; element T = [xi, eta)
collects the sites from one node up to (excluding) the next, with the last
element wrapping around the period.  Coarse functions are affine in each
element, which is equivalent to D u(xi - eps) = D u(xi) at every non-node
site.

``istar`` is the adjoint of the nodal interpolant under the mean-scaled
pairing: <istar(w), v> = <w, interpolate(v)> for all v.  Its action
distributes interior values of w to the two element endpoints with
barycentric weights, so a unit value at an interior site xi of [a, b)
contributes (b - xi)/(b - a) at a and the rest at b.

The coarse equilibrium residual lives on the nodes; its dual norm over
zero-mean coarse test functions with |v|_{1,1} = 1 has the same primitive
closed form as on the full lattice, now over nodal cumulative sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, SolverFailure
from .lattice import LatticeFn, LatticeGrid
from .atomistic import EquilibriumSolution, solve_homogenized_full
from .linsolve import solve_cyclic_banded
from .microhom import HomogenizedLaw


@dataclass(frozen=True)
class Mesh1D:
    """Atom-aligned periodic triangulation given by 1-based node site labels."""

    grid: LatticeGrid
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=int)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a mesh needs at least 2 nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("node labels must be strictly increasing")
        if nodes[0] < 1 or nodes[-1] > self.grid.N:
            raise ValueError("node labels must lie in 1..N")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_elements(self) -> int:
        return self.nodes.size

    def site_counts(self) -> np.ndarray:
        """Number of sites per element (element j starts at node j)."""
        n = np.diff(self.nodes)
        wrap = self.grid.N - self.nodes[-1] + self.nodes[0]
        return np.concatenate([n, [wrap]])

    def element_sizes(self) -> np.ndarray:
        return self.site_counts() * self.grid.eps

    @property
    def h_max(self) -> float:
        return float(self.element_sizes().max())

    def mean_weights(self) -> np.ndarray:
        """Per-node weights of the lattice mean of a coarse function."""
        h = self.element_sizes()
        return 0.5 * (h + np.roll(h, 1))

    def site_maps(self):
        """(element index, offset within element) for every 0-based site."""
        counts = self.site_counts()
        N = self.grid.N
        order = (self.nodes[0] - 1 + np.arange(N)) % N
        elem_in_order = np.repeat(np.arange(self.n_elements), counts)
        starts = np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        offs_in_order = np.arange(N) - starts
        site_elem = np.empty(N, dtype=int)
        site_offs = np.empty(N, dtype=int)
        site_elem[order] = elem_in_order
        site_offs[order] = offs_in_order
        return site_elem, site_offs

    def h_fn(self) -> LatticeFn:
        """Element-size function h(x) = h_T for x in T."""
        site_elem, _ = self.site_maps()
        return LatticeFn(self.grid, self.element_sizes()[site_elem])

    def is_node(self) -> np.ndarray:
        mask = np.zeros(self.grid.N, dtype=bool)
        mask[self.nodes - 1] = True
        return mask


def uniform_mesh(grid: LatticeGrid, m: int) -> Mesh1D:
    """m equispaced nodes at sites N/m, 2N/m, ..., N (m must divide N)."""
    if m < 2 or grid.N % m != 0:
        raise ValueError(f"node count {m} must be >= 2 and divide N = {grid.N}")
    stride = grid.N // m
    return Mesh1D(grid, stride * np.arange(1, m + 1))


@dataclass(frozen=True)
class CoarseFn:
    """Piecewise affine lattice function given by its nodal values."""

    mesh: Mesh1D
    nodal_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.nodal_values, dtype=float)
        if vals.shape != (self.mesh.n_elements,):
            raise ValueError("one nodal value per node required")
        object.__setattr__(self, "nodal_values", vals)

    def strains(self) -> np.ndarray:
        """Constant strain of each element."""
        U = self.nodal_values
        return (np.roll(U, -1) - U) / self.mesh.element_sizes()

    def to_lattice(self) -> LatticeFn:
        mesh = self.mesh
        site_elem, site_offs = mesh.site_maps()
        counts = mesh.site_counts()
        U = self.nodal_values
        left = U[site_elem]
        right = U[(site_elem + 1) % mesh.n_elements]
        frac = site_offs / counts[site_elem]
        return LatticeFn(mesh.grid, left + frac * (right - left))

    def lattice_mean(self) -> float:
        return float(self.mesh.mean_weights() @ self.nodal_values)


def interpolate(mesh: Mesh1D, v: LatticeFn) -> CoarseFn:
    """Nodal interpolant onto the coarse space (idempotent on coarse data)."""
    return CoarseFn(mesh, v.values[mesh.nodes - 1])


def istar(mesh: Mesh1D, w: LatticeFn) -> LatticeFn:
    """Adjoint of the interpolant: <istar(w), v> = <w, interpolate(v)>."""
    site_elem, site_offs = mesh.site_maps()
    counts = mesh.site_counts()
    left = mesh.nodes[site_elem] - 1
    right = mesh.nodes[(site_elem + 1) % mesh.n_elements] - 1
    lam = 1.0 - site_offs / counts[site_elem]
    out = np.zeros(mesh.grid.N)
    np.add.at(out, left, w.values * lam)
    np.add.at(out, right, w.values * (1.0 - lam))
    return LatticeFn(mesh.grid, out)


def coarse_dual_norm(nodal_residual: np.ndarray) -> float:
    """Dual norm of a node-supported functional over zero-mean coarse
    functions with |v|_{1,1} = 1, by the nodal primitive closed form."""
    s = np.cumsum(nodal_residual)
    return 0.5 * float(s.max() - s.min())


@dataclass(frozen=True)
class ForceFunctional:
    """Approximation F^h of the external force on the coarse space.

    ``exact_summation`` pairs f with coarse functions by the full lattice
    sum; ``node_lumped`` samples f at the nodes with trapezoidal weights.
    Both are extended to annihilate constants (<F^h, 1>_h = 0).
    """

    kind: str
    f: LatticeFn

    def __post_init__(self):
        if self.kind not in ("exact_summation", "node_lumped"):
            raise ValueError(f"unknown force functional kind {self.kind!r}")

    def _exact_node_values(self, mesh: Mesh1D) -> np.ndarray:
        return istar(mesh, self.f).values[mesh.nodes - 1] / mesh.grid.N

    def node_values(self, mesh: Mesh1D) -> np.ndarray:
        """<F^h, w^h_xi>_h for every node xi."""
        if self.kind == "exact_summation":
            return self._exact_node_values(mesh)
        w = mesh.mean_weights()
        fn = self.f.values[mesh.nodes - 1]
        c = float(w @ fn)  # weights sum to one
        return w * (fn - c)

    def quadrature_gap(self, mesh: Mesh1D) -> np.ndarray:
        """Nodal values of v_h -> <F^h, v_h>_h - <f, v_h>_L."""
        if self.kind == "exact_summation":
            return np.zeros(mesh.n_elements)
        return self.node_values(mesh) - self._exact_node_values(mesh)

    def rhs_lattice(self, mesh: Mesh1D) -> LatticeFn:
        """Node-supported lattice function W with <W, v>_L = <F^h, interpolate(v)>_h."""
        if self.kind == "exact_summation":
            return istar(mesh, self.f)
        out = np.zeros(mesh.grid.N)
        out[mesh.nodes - 1] = mesh.grid.N * self.node_values(mesh)
        return LatticeFn(mesh.grid, out)


@dataclass(frozen=True)
class CoarseSolution:
    u: CoarseFn
    residual_dual: float
    iterations: int
    #: (M, p) cell fields of the last accepted residual evaluation, i.e. at
    #: the element strains of ``u``
    chi: np.ndarray = field(repr=False)
    trace: tuple = field(default=(), repr=False)


def coarse_newton_step(d2, h, mw, R) -> np.ndarray:
    """Newton step s with J s + R in span(mw) and mw @ s = 0, in O(M).

    J is the cyclic tridiagonal coarse Jacobian with element stiffnesses
    d2 / h.  It annihilates constants, so J s = -R + c mw is solvable only
    for c = sum(R) / sum(mw); the mean-regularized banded solve returns its
    zero-sum solution, which is then shifted along the constants.
    """
    dh = d2 / h
    dh_prev = np.roll(dh, 1)
    diags = np.array([-dh_prev, dh_prev + dh, -dh])
    alpha = 1.0 + float(np.abs(diags[1]).mean())
    try:
        s = solve_cyclic_banded(diags, -R + (R.sum() / mw.sum()) * mw, mean_reg=alpha)
    except SolverFailure as exc:
        raise SolverFailure("singular coarse Jacobian") from exc
    s -= (mw @ s) / mw.sum()
    if not np.isfinite(s).all():
        raise SolverFailure("singular coarse Jacobian")
    return s


def solve_coarse(
    law: HomogenizedLaw,
    mesh: Mesh1D,
    F: ForceFunctional,
    init: CoarseFn | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
    damping_max: int = 30,
) -> CoarseSolution:
    """Newton solve of the coarse-grained homogenized problem.

    Unknowns are nodal values with zero lattice mean; the homogenized law
    is evaluated at the constant strain of each element (one vectorized
    cell solve per iteration).  The Jacobian is cyclic tridiagonal, so each
    Newton step is an O(M) mean-regularized cyclic banded solve followed by
    a projection onto zero lattice mean.  Termination uses the coarse dual
    norm of the nodal residual.
    """
    h = mesh.element_sizes()
    mw = mesh.mean_weights()
    b = F.node_values(mesh)

    if init is not None:
        U = init.nodal_values.copy()
        U = U - mw @ U  # constants only shift the lattice mean
    else:
        U = np.zeros(mesh.n_elements)

    def residual(U_vals, warm):
        z = (np.roll(U_vals, -1) - U_vals) / h
        _phi0, dphi0, d2phi0, chi = law.eval_strains(z, warm=warm)
        R = np.roll(dphi0, 1) - dphi0 - b
        return R, d2phi0, chi

    R, d2, chi = residual(U, None)
    res = coarse_dual_norm(R)
    trace = [(0, res, 0.0)]
    it = 0
    while res > tol:
        if it >= max_iter:
            raise SolverFailure(
                f"coarse Newton: residual {res:.3e} after {max_iter} iterations", trace
            )
        it += 1
        step = coarse_newton_step(d2, h, mw, R)
        t = 1.0
        accepted = False
        last_domain_error = None
        for _ in range(damping_max + 1):
            trial = U + t * step
            try:
                R_t, d2_t, chi_t = residual(trial, chi)
            except DomainError as exc:
                last_domain_error = exc
                t *= 0.5
                continue
            res_t = coarse_dual_norm(R_t)
            if res_t < res:
                U, R, d2, chi, res = trial, R_t, d2_t, chi_t, res_t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if last_domain_error is not None:
                raise DomainError(
                    f"coarse Newton step not recoverable by damping: {last_domain_error}"
                ) from last_domain_error
            raise SolverFailure(f"coarse Newton stalled at residual {res:.3e}", trace)
        trace.append((it, res, t))
    return CoarseSolution(CoarseFn(mesh, U), res, it, chi, tuple(trace))


def corrector(law: HomogenizedLaw, u0h) -> LatticeFn:
    """Zero-mean reconstruction u + eps * chi(D u; x/eps) of a coarse or
    full-lattice homogenized solution.

    A :class:`CoarseSolution` carries the cell fields at its element
    strains, so no cell problem is solved for it; a bare ``CoarseFn`` or
    ``LatticeFn`` has its cell problems solved from cold.
    """
    if isinstance(u0h, CoarseSolution):
        u0h, chi = u0h.u, u0h.chi
    elif isinstance(u0h, CoarseFn):
        chi = law.eval_strains(u0h.strains())[3]
    if isinstance(u0h, CoarseFn):
        mesh = u0h.mesh
        grid = mesh.grid
        site_elem, _ = mesh.site_maps()
        base = u0h.to_lattice().values
        add = chi[site_elem, grid.species()]
    elif isinstance(u0h, LatticeFn):
        grid = u0h.grid
        eps = grid.eps
        z = (np.roll(u0h.values, -1) - u0h.values) / eps
        _p0, _d1, _d2, chi = law.eval_strains(z)
        base = u0h.values
        add = chi[np.arange(grid.N), grid.species()]
    else:
        raise TypeError("corrector expects a CoarseSolution, CoarseFn or LatticeFn")
    vals = base + grid.eps * add
    return LatticeFn(grid, vals - vals.mean())


@dataclass(frozen=True)
class EquivalenceReport:
    """Coarse solve vs. full-lattice solve with the node-distributed force."""

    max_diff: float
    max_nonnode_strain_jump: float
    coarse: CoarseSolution
    full: EquilibriumSolution


def equivalence_check(
    law: HomogenizedLaw,
    mesh: Mesh1D,
    F: ForceFunctional,
    tol: float = 1e-10,
) -> EquivalenceReport:
    """Solve the coarse problem and the full-space problem with rhs
    istar(F); report their max-norm difference and the largest strain jump
    of the full solution at non-node sites (both should vanish)."""
    cs = solve_coarse(law, mesh, F, tol=tol)
    full = solve_homogenized_full(law, mesh.grid, F.rhs_lattice(mesh), tol=tol)
    diff = float(np.abs(cs.u.to_lattice().values - full.u.values).max())
    eps = mesh.grid.eps
    D = (np.roll(full.u.values, -1) - full.u.values) / eps
    jumps = np.abs(D - np.roll(D, 1))
    jump = float(jumps[~mesh.is_node()].max()) if (~mesh.is_node()).any() else 0.0
    return EquivalenceReport(diff, jump, cs, full)
