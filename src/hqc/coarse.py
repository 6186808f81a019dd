"""Coarse-grained (piecewise affine) spaces and solves.

A mesh is a set of atom sites chosen as nodes; element T = [xi, eta)
collects the sites from one node up to (excluding) the next, with the last
element wrapping around the period.  Coarse functions are affine in each
element, which is equivalent to D u(xi - eps) = D u(xi) at every non-node
site.  Data meets the lattice in site order, in runs of sites: those
before node 0, of the last element, then each element from its node on.
``np.repeat`` over the runs takes per-element data to the sites, and
``element_reduce``, one ``ufunc.reduceat`` at the nodes, takes lattice
arrays to the elements: the node loads and the force maxima, O(M) after it.

``corrector`` is the one reconstruction of a lattice field from a coarse
solution: u + eps chi(D u; x/eps), from the cell fields the solution
carries, and, given the lattice force, the same field moved to local
equilibrium, the start of an atomistic solve.

``istar`` is the adjoint of the nodal interpolant I_h under the
mean-scaled pairing: <istar(w), v> = <w, I_h v> for all v, where I_h v is
the coarse function with v's values at the nodes.  Its action
distributes interior values of w to the two element endpoints with
barycentric weights, so a unit value at an interior site xi of [a, b)
contributes (b - xi)/(b - a) at a and the rest at b.

``solve_coarse`` solves the coarse equations and the cell problem of
every element, at the element's strain, by one Newton iteration on the
element strains and the cell fields together; each step condenses the
cells onto the strains (static condensation).  It works in stress form,
the paper's equivalent formulation: the node equations sigma_{j-1} -
sigma_j = b_j make w = sigma + cumsum(b) one constant, so the primitive of
the nodal residual is a constant minus w, its dual norm over zero-mean
coarse functions with |v|_{1,1} = 1 is (max w - min w) / 2, as on the
lattice (:func:`hqc.lattice.primitive_dual_norm`), and a Newton step moves
every element's stress to one constant: a division per element and one
scalar.  The nodal values are formed only for the output.  The meshes of
a schedule do not depend on one another: ``solve_coarse_meshes`` stacks
their elements into one iteration, with one constant per mesh.

On the mesh whose nodes are all N sites (``uniform_mesh(grid, grid.N)``)
every element is one bond, h = eps, the mean weights are eps, ``istar``
is the identity and the coarse dual norm is the lattice (-1, inf)
seminorm, so ``solve_coarse`` there solves the homogenized problem on the
full lattice, -D[dphi0(D u)] = f, scaled by eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SolverFailure, StabilityError
from .lattice import LatticeFn, LatticeGrid
from .atomistic import MAX_ITER, NEWTON_TOL, damped_newton
from .microhom import CELL_TOL, CondensedCells, HomogenizedLaw, condense_cells, require_stable_cells


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
        return LatticeFn(self.mesh.grid, _site_values(self, *_site_runs(self.mesh)))


def _element_of(mesh: Mesh1D, sites: np.ndarray) -> np.ndarray:
    """The element of ``mesh`` containing each of the 1-based site labels ``sites``."""
    # sites before the first node lie in the last, wrapping element
    return (np.searchsorted(mesh.nodes, sites, side="right") - 1) % mesh.n_elements


def element_reduce(ufunc, mesh: Mesh1D, w: np.ndarray) -> np.ndarray:
    """``ufunc`` (np.add, np.maximum, ...) reduced over each element of the
    lattice array w in site order, the sites before node 0 into the last."""
    out, head = ufunc.reduceat(w, mesh.nodes - 1), mesh.nodes[0] - 1
    if head:
        out[-1] = ufunc.reduce(w[:head], initial=out[-1])
    return out


def _site_runs(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The site counts, and the element and length of each run of sites in
    site order: the sites before node 0 (maybe none), then every element from
    its node on."""
    counts, head = mesh.site_counts(), mesh.nodes[0] - 1
    element = np.arange(-1, mesh.n_elements)
    element[0] = mesh.n_elements - 1
    runs = np.append(head, counts)
    runs[-1] -= head
    return counts, element, runs


def _site_values(u: CoarseFn, counts, element, runs, out=None) -> np.ndarray:
    """u at every site from the ``_site_runs`` of its mesh, into ``out`` if
    given, beside one lattice-sized temporary at a time: U_T + (o / n_T)
    (U_{T+1} - U_T) at the site's offset o in its element T, its index less
    T's first (the indices before node 0 taken past N)."""
    mesh, U, N = u.mesh, u.nodal_values, u.mesh.grid.N
    out = np.empty(N) if out is None else out
    out[...] = np.arange(N)
    out -= np.repeat(np.append(mesh.nodes[-1] - 1.0 - N, mesh.nodes - 1.0), runs)
    out /= np.repeat(counts[element].astype(float), runs)
    out *= np.repeat(np.diff(U, append=U[:1])[element], runs)
    out += np.repeat(U[element], runs)
    return out


def _istar_nodes(mesh: Mesh1D, w: np.ndarray) -> np.ndarray:
    """Node values of istar(w): element T = [a, b) gives each site x its share
    (x - a) / (b - a) to its right node and the rest to its left one, from its
    sums of w and of w i over the site indices i, one ``element_reduce``
    each; the sites before node 0 count their indices past N."""
    N, head = mesh.grid.N, mesh.nodes[0] - 1
    wi = np.arange(N, dtype=float)
    wi *= w
    total, right = element_reduce(np.add, mesh, w), element_reduce(np.add, mesh, wi)
    if head:
        right[-1] += N * w[:head].sum()
    right -= (mesh.nodes - 1) * total  # the sums of w (i - a)
    right /= mesh.site_counts()
    return total - right + np.concatenate((right[-1:], right[:-1]))


def istar(mesh: Mesh1D, w: LatticeFn) -> LatticeFn:
    """Adjoint of the nodal interpolant I_h: <istar(w), v> = <w, I_h v>."""
    out = np.zeros(mesh.grid.N)
    out[mesh.nodes - 1] = _istar_nodes(mesh, w.values)
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
        return _istar_nodes(mesh, self.f.values) / mesh.grid.N

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
        """Node-supported lattice function W with <W, v>_L = <F^h, I_h v>_h."""
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
    trace: tuple = field(repr=False)
    #: the cells condensed at that evaluation: their stiffnesses K = W''
    #: and sensitivities chi' at the element strains of ``u``
    cells: CondensedCells = field(repr=False)


def coarse_newton_step(K, h, ws, starts=None):
    """Newton strain step dz = (c - ws) / K in O(M): every element's
    linearized stress ws + K dz moves to one constant c, which periodicity,
    sum(h dz) = 0, fixes as the mean of ws weighted by the compliances h / K.
    With ``starts``, the first indices of several stacked meshes, each mesh
    takes its own c.  This needs K != 0 and a finite, nonzero sum(h / K) on
    every mesh, not positive definiteness; else SolverFailure.
    """
    compliance = h / np.where(K == 0, np.nan, K)  # K = 0 fails the test below
    if starts is None:
        total, weighted = compliance.sum(), compliance @ ws
        regular = np.isfinite(total) and total != 0
    else:
        total, weighted = (np.add.reduceat(a, starts) for a in (compliance, compliance * ws))
        regular = (np.isfinite(total) & (total != 0)).all()
    if not regular:
        raise SolverFailure("singular coarse Jacobian")
    c = weighted / total
    if starts is not None:
        c = np.repeat(c, np.diff(starts, append=K.size))
    return (c - ws) / K


def solve_coarse(
    law: HomogenizedLaw,
    mesh: Mesh1D,
    F: ForceFunctional,
    init: CoarseSolution | None = None,
) -> CoarseSolution:
    """Newton solve of the coarse-grained homogenized problem.

    The unknowns of one damped Newton iteration are the element strains z,
    with sum(h z) = 0, and the cell field of every element at its strain;
    the nodal values U = cumsum(h z), shifted to zero lattice mean, are
    formed only for the output.  Each evaluation condenses the cells onto
    the strains (:func:`~hqc.microhom.condense_cells`: one stacked bond
    call, one batched cell solve), so a step is the O(M) closed form of
    :func:`coarse_newton_step` with the condensed stiffnesses K, which are
    W'' = d2phi0 at converged cells, and then each cell's own part.  The
    solve stops when the coarse dual norm of the nodal residual is at most
    :data:`~hqc.atomistic.NEWTON_TOL` and every cell residual at most
    :data:`~hqc.microhom.CELL_TOL`: trace rows and step acceptance use the
    larger of the dual norm and the worst cell residual times
    NEWTON_TOL / CELL_TOL = 100.  It gives up after
    :data:`~hqc.atomistic.MAX_ITER` steps.  ``residual_dual`` is the coarse
    dual norm.

    The estimates hold at stable equilibria only: W''(D u) > 0 on every
    element and every cell a minimum.  A converged solution with W'' <= 0
    on some element raises :class:`StabilityError` naming the element of
    smallest W'', its strain and W''; one with a saddle cell names the
    cell, its strain and its smallest Hessian eigenvalue.  A singular cell
    Hessian on the way raises :class:`StabilityError` as well.  Every such
    error, and every :class:`SolverFailure`, names the mesh by its node
    count first.

    Without ``init`` every element starts at strain 0 from the law's
    ``ground_cell`` (:func:`solve_coarse_meshes` on the one mesh): a start
    far from cell equilibrium can lead the joint iteration to stall where a
    start on it converges.  ``init``, a solution on a mesh that ``mesh``
    refines, gives a nested start: each element takes the strain, cell
    field and condensed cell of its parent, the element of ``init``
    containing its middle site.  Those cells are converged at exactly those
    strains and are the evaluated start, so no cell is evaluated before the
    first Newton step.  ValueError if ``init`` is on another grid or on a
    mesh that ``mesh`` does not refine, or if the mesh's species count is
    not the law's.
    """
    if init is None:
        return solve_coarse_meshes(law, [mesh], F)[0]
    old = init.u.mesh
    if old.grid != mesh.grid:
        raise ValueError(f"init is on {old.grid}, the mesh on {mesh.grid}")
    if not (mesh.nodes[_element_of(mesh, old.nodes)] == old.nodes).all():
        raise ValueError(f"the {mesh.n_elements}-node mesh does not refine the "
                         f"{old.n_elements}-node mesh of init")
    # >> 1 halves: a first integer floor division would page in numpy code
    middle = (mesh.nodes + (mesh.site_counts() >> 1) - 1) % mesh.grid.N + 1
    parent = _element_of(old, middle)
    x = np.column_stack([init.u.strains()[parent], init.chi[parent]])
    return _newton(law, [mesh], F, x, init.cells.rows(parent))[0]


def solve_coarse_meshes(law: HomogenizedLaw, meshes, F: ForceFunctional) -> list[CoarseSolution]:
    """:func:`solve_coarse` on every mesh, each from the law's ``ground_cell``,
    by one Newton iteration over their stacked elements: the projection, the
    dual norm and the step's constant are per mesh, the merit is the largest
    mesh merit and the step length is shared.  A solution's ``iterations``
    is the step at which its mesh's merit first reached the tolerance, and
    its trace holds that merit at every step.  A failure of the iteration
    names the mesh of largest merit at the start of the last step."""
    chi, cells = law.ground_cell
    ground = np.zeros(sum(mesh.n_elements for mesh in meshes), dtype=int)
    x = np.column_stack([np.zeros(ground.size), chi[ground]])
    return _newton(law, meshes, F, x, cells.rows(ground))


def _newton(law, meshes, F, x, start_cells):
    """Solutions on ``meshes`` by one damped Newton iteration from the stacked
    iterate x, whose cells ``start_cells`` are condensed: x is not evaluated."""
    for mesh in meshes:
        if mesh.grid.p != law.family.p:
            raise ValueError(f"the mesh has p = {mesh.grid.p} species, "
                             f"the law p = {law.family.p}")
    counts = np.array([mesh.n_elements for mesh in meshes])
    starts = np.cumsum(counts) - counts
    h = np.concatenate([mesh.element_sizes() for mesh in meshes])
    B = np.concatenate([np.cumsum(F.node_values(mesh)) for mesh in meshes])
    scale = NEWTON_TOL / CELL_TOL  # a cell residual in units of the coarse tolerance
    merits = []  # of every mesh, at each accepted iterate
    # a lone mesh takes whole-array reductions (h @ z, w.max()): they cost a
    # nested solve less than reduceat over one segment and its small arrays
    one = len(meshes) == 1

    def evaluated(cells):
        w = cells.stress + B
        if one:
            dual = (0.5 * float(w.max() - w.min()),)
            merit = (max(dual[0], scale * cells.residual.max()),)
        else:
            dual = 0.5 * (np.maximum.reduceat(w, starts) - np.minimum.reduceat(w, starts))
            merit = np.maximum(dual, scale * np.maximum.reduceat(cells.residual, starts))
        return (w, dual, merit, cells), float(max(merit))

    # an iterate x holds z in column 0 and the cell fields in the others
    def evaluate(x):
        # keeps sum(h z) = 0 on every mesh, whose h sum to 1; x is a new array
        z = x[:, 0]
        z -= h @ z if one else np.repeat(np.add.reduceat(h * z, starts), counts)
        return (x, *evaluated(condense_cells(law.family, z, x[:, 1:])))

    def step(_x, state):
        w, _dual, merit, cells = state
        merits.append(merit)
        dz = coarse_newton_step(cells.stiffness, h, w + cells.shift, None if one else starts)
        return np.column_stack([dz, cells.relax + cells.sensitivity * dz[:, None]])

    i = None  # the mesh whose solution is being built
    try:
        x, (_w, dual, merit, cells), trace = damped_newton(
            evaluate, step, x, NEWTON_TOL, MAX_ITER, "coarse", evaluated(start_cells)
        )
        merits.append(merit)
        solutions = []
        for i, (mesh, a, n) in enumerate(zip(meshes, starts, counts)):
            z, chi, mesh_cells = x[a : a + n, 0], x[a : a + n, 1:], cells.rows(slice(a, a + n))
            j = int(np.argmin(mesh_cells.stiffness))
            if not mesh_cells.stiffness[j] > 0:
                raise StabilityError(f"unstable coarse equilibrium: element {j} has strain "
                                     f"{z[j]:.6g} and W'' = {mesh_cells.stiffness[j]:.6g} <= 0")
            require_stable_cells(mesh_cells, z)
            U = np.concatenate([[0.0], np.cumsum(h[a : a + n - 1] * z[:-1])])
            U -= mesh.mean_weights() @ U
            chi = chi - chi.mean(axis=1, keepdims=True)
            mesh_trace = tuple((it, float(m[i]), t) for (it, _res, t), m in zip(trace, merits))
            reached = next(it for it, res, _t in mesh_trace if res <= NEWTON_TOL)
            solutions.append(CoarseSolution(CoarseFn(mesh, U), float(dual[i]), reached, chi,
                                            mesh_trace, mesh_cells))
    except (SolverFailure, StabilityError) as exc:
        if i is None:  # the iteration failed: name the mesh of largest merit
            i = int(np.argmax(merits[-1])) if merits else 0
        exc.args = (f"{meshes[i].n_elements}-node mesh: {exc}",)
        raise
    return solutions


def corrector(
    cs: CoarseSolution, f: LatticeFn | None = None, out: np.ndarray | None = None
) -> LatticeFn:
    """Zero-mean reconstruction u + eps * chi(D u; x/eps) of the coarse
    solution ``cs``, from the cell fields it carries at its element strains:
    no cell problem is solved.  A full-lattice field u is passed as a
    solution on ``uniform_mesh(grid, grid.N)``.

    With the lattice force f the corrected solution is moved to local
    equilibrium, the zero-mean start of an atomistic Newton solve.  At
    equilibrium w = sigma + P is one constant, for the force primitive
    P = eps cumsum(f - <f>).  The corrected solution has one stress on each
    element T, so P's variation across T is its residual.  Through T's
    linearized law, in which a strain change dz moves the stress by K_T dz
    and the cell field by chi'_T dz, each site x of T takes the strain
    z_T + dz(x) with dz(x) = (Pbar_T - P(x)) / K_T, Pbar_T the mean of P
    over T's sites, which sets its stress to the constant minus P(x) that
    equilibrium requires.  dz sums to 0 on every element, so the coarse
    part keeps every nodal value.  K_T = W''(z_T) and chi'_T come from the
    cells that ``solve_coarse`` condensed at convergence: no linear system
    is solved either.  Either way the cost is O(N), in site order, into
    ``out`` (N floats) if given, beside one ``np.repeat`` at a time and, with
    f, one more lattice array, dz, in which P's and dz's cumulative sums run.
    """
    mesh, grid = cs.u.mesh, cs.u.mesh.grid
    eps, p = grid.eps, grid.p
    counts, element, runs = _site_runs(mesh)
    out = _site_values(cs.u, counts, element, runs, out)
    if f is not None:
        # P / eps up to a constant, which dz does not see, summed from site 1:
        # it passes from site N to site 1 without a jump, as f - <f> sums to
        # 0, so the element that wraps around sees one primitive too
        dz = f.values - f.values.mean()
        np.cumsum(dz, out=dz)
        dz -= np.repeat((element_reduce(np.add, mesh, dz) / counts)[element], runs)
        dz *= np.repeat((-eps * eps / cs.cells.stiffness)[element], runs)  # eps dz
        for s in range(p):  # the cell fields' change eps chi'_T dz
            moved = np.repeat(cs.cells.sensitivity[element, s], runs)[s::p]
            moved *= dz[s::p]
            out[s::p] += moved
            del moved
        # eps times the exclusive cumulative sum of dz, which restarts at 0 on
        # every element, as dz sums to 0 on each, up to a constant
        out[1:] += np.cumsum(dz, out=dz)[:-1]
    for s in range(p):  # site index i is of species i mod p
        cell = np.repeat(cs.chi[element, s], runs)[s::p]
        cell *= eps
        out[s::p] += cell
        del cell  # before the next species' repeat
    out -= out.mean()
    return LatticeFn(grid, out)


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
