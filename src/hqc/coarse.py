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

``solve_coarse`` solves the coarse equations and the cell problem of
every element, at the element's strain, by one Newton iteration on the
nodal values and the cell fields together; each step condenses the cells
onto the strains (static condensation).  It works in stress form, the
paper's equivalent formulation: the node equations sigma_{j-1} - sigma_j
= b_j make w = sigma + cumsum(b) one constant, so the primitive of the
nodal residual is a constant minus w, its dual norm over zero-mean coarse
functions with |v|_{1,1} = 1 is (max w - min w) / 2, as on the lattice
(:func:`hqc.lattice.primitive_dual_norm`), and a Newton step is a closed
form in O(M).

On the mesh whose nodes are all N sites (``uniform_mesh(grid, grid.N)``)
every element is one bond, h = eps, the mean weights are eps, ``istar``
is the identity and the coarse dual norm is the lattice (-1, inf)
seminorm, so ``solve_coarse`` there solves the homogenized problem on the
full lattice, -D[dphi0(D u)] = f, scaled by eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import SolverFailure, StabilityError
from .lattice import LatticeFn, LatticeGrid
from .atomistic import damped_newton
from .microhom import HomogenizedLaw, condense_cells, newton_cells, require_stable_cells, warm_start


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
        """(element index, offset within element) for every 0-based site,
        computed once per mesh and returned read-only."""
        return self._site_maps

    @cached_property
    def _site_maps(self):
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
        site_elem.flags.writeable = False
        site_offs.flags.writeable = False
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
        return np.diff(U, append=U[:1]) / self.mesh.element_sizes()

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


def prolong(u: CoarseFn, mesh: Mesh1D) -> tuple[CoarseFn, np.ndarray]:
    """Nodal interpolant of u on another mesh of its grid, and for each
    element of that mesh the element of ``u.mesh`` containing its first node.

    When ``mesh`` refines ``u.mesh`` (a superset of its nodes) the
    interpolant is u itself and every element lies inside that parent.
    """
    site_elem, _ = u.mesh.site_maps()
    return interpolate(mesh, u.to_lattice()), site_elem[mesh.nodes - 1]


def istar(mesh: Mesh1D, w: LatticeFn) -> LatticeFn:
    """Adjoint of the interpolant: <istar(w), v> = <w, interpolate(v).to_lattice()>."""
    site_elem, site_offs = mesh.site_maps()
    counts = mesh.site_counts()
    left = mesh.nodes[site_elem] - 1
    right = mesh.nodes[(site_elem + 1) % mesh.n_elements] - 1
    lam = 1.0 - site_offs / counts[site_elem]
    # bincount adds in index order, all left shares before all right ones
    out = np.bincount(
        np.concatenate([left, right]),
        weights=np.concatenate([w.values * lam, w.values * (1.0 - lam)]),
        minlength=mesh.grid.N,
    )
    return LatticeFn(mesh.grid, out)


@dataclass(frozen=True)
class ForceFunctional:
    """Approximation F^h of the external force on the coarse space.

    ``exact_summation`` pairs f with coarse functions by the full lattice
    sum; ``node_lumped`` samples f at the nodes with trapezoidal weights.
    Both annihilate constants (<F^h, 1>_h = 0): a force with nonzero mean
    is projected to zero mean at construction, as in
    :class:`~hqc.atomistic.AtomisticProblem`.
    """

    kind: str
    f: LatticeFn

    def __post_init__(self):
        if self.kind not in ("exact_summation", "node_lumped"):
            raise ValueError(f"unknown force functional kind {self.kind!r}")
        m = self.f.values.mean()
        if abs(m) > 1e-12:
            object.__setattr__(self, "f", self.f.with_values(self.f.values - m))

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


def coarse_newton_step(K, h, mw, P):
    """Newton step (dU, dz) in O(M), from the primitive P = cumsum(R) of
    the nodal residual: J dU + R = c mw and mw @ dU = 0, J the cyclic
    tridiagonal Jacobian with element stiffnesses K / h, c = sum(R) / sum(mw).

    In stress form each element's stress change K dz is P - c cumsum(mw)
    plus one constant, which periodicity, sum(h dz) = 0, fixes; dU is
    cumsum(h dz) shifted to mw @ dU = 0.  This needs K != 0 and a finite,
    nonzero sum(h / K), not positive definiteness; else SolverFailure.
    """
    compliance = h / np.where(K == 0, np.nan, K)  # K = 0 fails the test below
    total = compliance.sum()
    if not (np.isfinite(total) and total != 0):
        raise SolverFailure("singular coarse Jacobian")
    MW = np.cumsum(mw)
    q = P - (P[-1] / MW[-1]) * MW
    dz = (q - (q @ compliance) / total) / K
    dU = np.concatenate([[0.0], np.cumsum(h[:-1] * dz[:-1])])
    dU -= (mw @ dU) / MW[-1]
    return dU, dz


def solve_coarse(
    law: HomogenizedLaw,
    mesh: Mesh1D,
    F: ForceFunctional,
    init: CoarseSolution | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> CoarseSolution:
    """Newton solve of the coarse-grained homogenized problem.

    The unknowns of one damped Newton iteration are the nodal values U,
    with zero lattice mean, and the cell field of every element at its
    constant strain.  Each evaluation condenses the cells onto the strains
    (:func:`~hqc.microhom.condense_cells`: one stacked bond call, one
    batched cell solve), so a step is the O(M) closed form of
    :func:`coarse_newton_step` with the condensed stiffnesses K, which are
    W'' = d2phi0 at converged cells, and then each cell's own part.  The
    solve stops when the coarse dual norm of the nodal residual is at most
    ``tol`` and every cell residual at most ``law.tol``: trace rows and
    step acceptance use the larger of the dual norm and the worst cell
    residual times ``tol / law.tol``.  ``residual_dual`` is the coarse dual
    norm.

    The estimates hold at stable equilibria only: W''(D u) > 0 on every
    element and every cell a minimum.  A converged solution with W'' <= 0
    on some element raises :class:`StabilityError` naming the element of
    smallest W'', its strain and W''; one with a saddle cell names the
    cell, its strain and its smallest Hessian eigenvalue.  A singular cell
    Hessian on the way raises :class:`StabilityError` as well.

    Without ``init`` the solve starts from U = 0, with every cell field at
    the solution of the cell problem at strain 0: a start far from cell
    equilibrium can lead the joint iteration to stall where a start on it
    converges.
    ``init``, a solution on any mesh of the same grid, gives a nested start
    (nested iteration): U starts at the interpolant of ``init.u`` and each
    element's cell field at the ``init.chi`` row of its parent element
    (see :func:`prolong`); rows whose prolonged field is inadmissible at
    their new element strain start from the zero field instead.
    """
    h = mesh.element_sizes()
    mw = mesh.mean_weights()
    B = np.cumsum(F.node_values(mesh))
    scale = tol / law.tol  # a cell residual in units of the coarse tolerance

    if init is None:
        U = np.zeros(mesh.n_elements)
        # every strain is 0: each element starts from that one cell's solution
        chi = newton_cells(law.family, np.zeros(1), np.zeros((1, law.family.p)), law.tol,
                           law.max_iter)[0]
        chi = np.repeat(chi, mesh.n_elements, axis=0)
    else:
        u0, parent = prolong(init.u, mesh)
        U = u0.nodal_values - mw @ u0.nodal_values  # constants only shift the mean
        chi = warm_start(law.family, np.diff(U, append=U[:1]) / h, init.chi[parent])

    # an iterate x holds U in column 0 and the cell fields in the others
    def evaluate(x):
        cells = condense_cells(law.family, np.diff(x[:, 0], append=x[:1, 0]) / h, x[:, 1:])
        w = cells.stress + B
        dual = 0.5 * float(w.max() - w.min())
        return x, (w, dual, cells), max(dual, scale * cells.residual.max())

    def step(_x, state):
        w, _dual, cells = state
        ws = w + cells.shift  # the primitive of the residual is ws[-1] - ws - B[-1]
        dU, dz = coarse_newton_step(cells.stiffness, h, mw, ws[-1] - ws - B[-1])
        return np.column_stack([dU, cells.relax + cells.sensitivity * dz[:, None]])

    x, (_w, dual, cells), trace = damped_newton(
        evaluate, step, np.column_stack([U, chi]), tol, max_iter, "coarse"
    )
    U, chi = x[:, 0].copy(), x[:, 1:]
    z = np.diff(U, append=U[:1]) / h
    j = int(np.argmin(cells.stiffness))
    if not cells.stiffness[j] > 0:
        raise StabilityError(f"unstable coarse equilibrium: element {j} has strain "
                             f"{z[j]:.6g} and W'' = {cells.stiffness[j]:.6g} <= 0")
    require_stable_cells(cells, z)
    chi = chi - chi.mean(axis=1, keepdims=True)
    return CoarseSolution(CoarseFn(mesh, U), dual, trace[-1][0], chi, tuple(trace))


def corrector(law: HomogenizedLaw, u0h) -> LatticeFn:
    """Zero-mean reconstruction u + eps * chi(D u; x/eps) of a coarse
    homogenized solution.

    A :class:`CoarseSolution` carries the cell fields at its element
    strains, so no cell problem is solved for it; a bare ``CoarseFn`` has
    its cell problems solved from cold.  A full-lattice field u is passed
    as ``interpolate(uniform_mesh(grid, grid.N), u)``.
    """
    if isinstance(u0h, CoarseSolution):
        u0h, chi = u0h.u, u0h.chi
    elif isinstance(u0h, CoarseFn):
        chi = law.eval_strains(u0h.strains())[3]
    else:
        raise TypeError("corrector expects a CoarseSolution or CoarseFn")
    grid = u0h.mesh.grid
    site_elem, _ = u0h.mesh.site_maps()
    vals = u0h.to_lattice().values + grid.eps * chi[site_elem, grid.species()]
    return LatticeFn(grid, vals - vals.mean())


@dataclass(frozen=True)
class EquivalenceReport:
    """Coarse solve vs. full-lattice solve with the node-distributed force."""

    max_diff: float
    max_nonnode_strain_jump: float
    coarse: CoarseSolution
    full: CoarseSolution


def equivalence_check(law: HomogenizedLaw, mesh: Mesh1D, F: ForceFunctional) -> EquivalenceReport:
    """Solve the coarse problem, and the full-lattice problem (``solve_coarse``
    on the all-node mesh) with the node-distributed force
    ``F.rhs_lattice(mesh)``; report their max-norm difference and the
    largest strain jump of the full solution at non-node sites (both
    should vanish)."""
    grid = mesh.grid
    cs = solve_coarse(law, mesh, F)
    full_F = ForceFunctional("exact_summation", F.rhs_lattice(mesh))
    full = solve_coarse(law, uniform_mesh(grid, grid.N), full_F)
    diff = float(np.abs(cs.u.to_lattice().values - full.u.to_lattice().values).max())
    D = full.u.strains()
    jump = float(np.abs(D - np.roll(D, 1))[~mesh.is_node()].max(initial=0.0))
    return EquivalenceReport(diff, jump, cs, full)
