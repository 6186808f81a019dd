"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: dual norms come from a
linear program over the constraint polytope, derivatives from central
finite differences, micro ground states from scalar minimization, cell
gradients and Hessians from the shell-by-shell loop assembly, bond values
from the closed-form laws written out per shell and species, the 1D
and 2D coarse fields on the sites from a site-by-site loop, bulk
marking from an element-by-element loop over a set of node labels, and
node loads and element maxima from the lattice rolled into element order.
A few small helpers that only tests call live here as well.
"""

from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from hqc.atomistic import _stress_d2
from hqc.coarse import CoarseFn
from hqc.lattice import primitive_dual_norm
from hqc.lattice2d import Displacement2D
from hqc.study import ROW_FIELDS, StudyRow


def dual_norm_lp(values: np.ndarray) -> float:
    """sup{ (1/N) u.v : v zero mean, |v|_{1,1} = 1 } via linprog.

    Variables are v (with the gauge v_0 = 0; the objective kills
    constants) and slacks t_i >= |v_{i+1} - v_i| with sum t <= 1.
    """
    N = values.size
    c = np.concatenate([-values / N, np.zeros(N)])
    A_ub, b_ub = [], []
    for i in range(N):
        row = np.zeros(2 * N)
        row[(i + 1) % N] += 1.0
        row[i] -= 1.0
        row[N + i] = -1.0
        A_ub.append(row.copy())
        b_ub.append(0.0)
        row = row.copy()
        row[:N] *= -1.0
        A_ub.append(row)
        b_ub.append(0.0)
    row = np.zeros(2 * N)
    row[N:] = 1.0
    A_ub.append(row)
    b_ub.append(1.0)
    bounds = [(0, 0)] + [(None, None)] * (N - 1) + [(0, None)] * N
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def coarse_dual_lp(q: np.ndarray) -> float:
    """sup{ q.V : V_0 = 0, sum |V_{j+1} - V_j| <= 1 } over nodal values."""
    M = q.size
    c = np.concatenate([-q, np.zeros(M)])
    A_ub, b_ub = [], []
    for i in range(M):
        row = np.zeros(2 * M)
        row[(i + 1) % M] += 1.0
        row[i] -= 1.0
        row[M + i] = -1.0
        A_ub.append(row.copy())
        b_ub.append(0.0)
        row = row.copy()
        row[:M] *= -1.0
        A_ub.append(row)
        b_ub.append(0.0)
    row = np.zeros(2 * M)
    row[M:] = 1.0
    A_ub.append(row)
    b_ub.append(1.0)
    bounds = [(0, 0)] + [(None, None)] * (M - 1) + [(0, None)] * M
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def energy_grad_hess(prob, u):
    """Energy, gradient (as a LatticeFn) and Hessian springs of the atomistic
    problem at the displacements u.  The energy is one ``family.bonds`` call
    on the (N/p, R, p) view of the chain's bond arguments, the window means
    of the strains built shell by shell.  The gradient
    g(x) = (sigma(x - eps) - sigma(x)) / eps, which represents the first
    variation through <g, v>_L, and the (R, N) springs phi_r'' / (r eps)^2
    of bond (x, x + r) (:mod:`hqc.linsolve`) come from the stress and
    springs of ``hqc.atomistic._stress_d2``, which names the site and shell
    of an inadmissible bond."""
    family, eps, N = prob.family, prob.grid.eps, prob.grid.N
    R, p = family.R, family.p
    z = np.diff(u.values, append=u.values[:1]) / eps
    sigma, s = _stress_d2(prob, z)
    Z = np.array([sum(np.roll(z, -j) for j in range(r)) / r for r in range(1, R + 1)])
    E = float(family.bonds(Z.reshape(R, N // p, p).transpose(1, 0, 2), 0).sum()) / N
    return E, u.with_values((np.roll(sigma, 1) - sigma) / eps), s / (eps * eps)


def springs_to_dense(s: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of the springs s[r - 1, i] between sites i and
    (i + r) % n, assembled bond by bond as the sum of s e e^T with
    e = e_{i + r} - e_i, which is zero for a bond from a site to its image."""
    R, n = s.shape
    A = np.zeros((n, n))
    for r in range(1, R + 1):
        for i in range(n):
            e = np.zeros(n)
            e[(i + r) % n] += 1.0
            e[i] -= 1.0
            A += s[r - 1, i] * np.outer(e, e)
    return A


def stretch_springs_to_dense(s: np.ndarray) -> np.ndarray:
    """Dense n x n matrix J of the springs s[r - 1, i] on nearest-neighbour
    stretches, assembled bond by bond as the sum of s e e^T, where e marks
    the stretches i, i + 1, ... that bond (i, i + r) spans, mod n, less its
    whole turns around the ring, which stretch a zero-sum field by nothing."""
    R, n = s.shape
    J = np.zeros((n, n))
    for r in range(1, R + 1):
        for i in range(n):
            e = np.zeros(n)
            for j in range(r % n):
                e[(i + j) % n] = 1.0
            J += s[r - 1, i] * np.outer(e, e)
    return J


def coarse_step_dense(d2: np.ndarray, h: np.ndarray, mw: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Coarse Newton step from the dense reduced system B^T J B dc = -B^T R.

    J is the cyclic tridiagonal Jacobian with element stiffnesses d2 / h;
    B eliminates the node k of largest weight through the constraint
    mw @ s = 0, so no entry of B exceeds 1 in magnitude (eliminating a
    light node instead makes B^T J B much worse conditioned than J: on
    meshes of 1024 elements with size ratio 20 that costs the solve about
    9e-9 relative accuracy).
    """
    M = R.size
    dh = d2 / h
    J = np.zeros((M, M))
    j = np.arange(M)
    J[j, (j - 1) % M] -= np.roll(dh, 1)
    J[j, j] += np.roll(dh, 1) + dh
    J[j, (j + 1) % M] -= dh
    k = int(np.argmax(mw))
    keep = np.delete(j, k)
    B = np.zeros((M, M - 1))
    B[keep, np.arange(M - 1)] = 1.0
    B[k] = -mw[keep] / mw[k]
    return B @ np.linalg.solve(B.T @ J @ B, -B.T @ R)


def interpolation_matrix(nodes: np.ndarray, N: int) -> np.ndarray:
    """(N, N) matrix A of v -> interpolate(v).to_lattice() on the periodic
    mesh with 1-based node labels ``nodes``, written out site by site: site
    a + o of the element [a, b) of n sites takes 1 - o / n of v_a and o / n
    of v_b.  Its transpose is istar."""
    A = np.zeros((N, N))
    first = nodes - 1
    for j, a in enumerate(first):
        b = first[(j + 1) % first.size]
        n = (b - a) % N or N
        for o in range(n):
            A[(a + o) % N, a] += 1.0 - o / n
            A[(a + o) % N, b] += o / n
    return A


def rolled_element_order(nodes: np.ndarray, w: np.ndarray):
    """(site counts, element starts, each site's offset in its element, w) in
    element order, the sites from node 0 on, by one roll of w."""
    N = w.size
    counts = np.diff(nodes, append=nodes[0] + N)
    starts = nodes - nodes[0]
    return counts, starts, np.arange(N) - np.repeat(starts, counts), np.roll(w, 1 - nodes[0])


def istar_nodes_rolled(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Node values of istar(w) from w rolled into element order: element j
    gives each site's right share off / n to node j + 1, the rest to node j."""
    counts, starts, off, f = rolled_element_order(nodes, w)
    right = np.add.reduceat(f * off, starts) / counts
    left = np.add.reduceat(f, starts) - right
    return left + np.roll(right, 1)


def element_max_rolled(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Largest entry of w on each element, from w rolled into element order."""
    _counts, starts, _off, f = rolled_element_order(nodes, w)
    return np.maximum.reduceat(f, starts)


def lattice_mean(u) -> float:
    """Lattice mean of the coarse function u from its nodal values and the
    mesh's mean weights."""
    return float(u.mesh.mean_weights() @ u.nodal_values)


def project_zero_mean(u):
    """The lattice function u less its mean."""
    return u.with_values(u.values - u.values.mean())


def calibrate_constant(report, reference_error: float) -> float:
    """The jump-term prefactor for which the total bounds a reference error."""
    if report.jump_term <= 0:
        raise ValueError("cannot calibrate with a vanishing jump term")
    return reference_error / report.jump_term


def average_r(u, r: int):
    """Average of the r forward translates u, u(.+eps), ..., u(.+(r-1) eps)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    return u.with_values(sum(np.roll(u.values, -k) for k in range(r)) / r)


def dual_seminorm_neg1(u) -> float:
    """|u|_{-1,inf} of a zero-mean lattice function u, by the primitive
    closed form; ValueError for a mean above 1e-12."""
    if abs(u.values.mean()) > 1e-12:
        raise ValueError(f"dual seminorm needs zero mean, got mean {u.values.mean():.3e}")
    return primitive_dual_norm(u.values, u.grid.eps)


def interpolate(mesh, v):
    """Nodal interpolant of the lattice function v onto the coarse space."""
    return CoarseFn(mesh, v.values[mesh.nodes - 1])


def law_eval(law, z: float):
    """(phi0, dphi0, d2phi0) of the homogenized law at one strain, from a cold cell solve."""
    phi0, dphi0, d2phi0, _chi = law.eval_strains(float(z))
    return float(phi0[0]), float(dphi0[0]), float(d2phi0[0])


def corrector_matrix(hom):
    """The per-component corrector coefficient matrix of a 2D homogenization."""
    return hom.corrector_scale * np.eye(2)


def bond_matvec(bonds, v: np.ndarray) -> np.ndarray:
    """A v for the operator A of the 2D bond list ``bonds`` on the last two
    axes of v, a periodic grid of whole cells; leading axes are a stack."""
    c1, c2 = np.shape(bonds[0][1])
    n1, n2 = v.shape[-2] // c1, v.shape[-1] // c2
    out = np.zeros_like(v)
    for r, C in bonds:
        # tension of bond r by tail site; roll(dv, r) indexes it by head site
        dv = np.tile(C, (n1, n2)) * (np.roll(v, (-r[0], -r[1]), (-2, -1)) - v)
        out -= dv - np.roll(dv, r, (-2, -1))
    return out


def energy2d(model, u):
    """Energy and gradient of the 2D spring model at u; the gradient is the
    plain-sum derivative dE/du."""
    E = 0.0
    for r, C in model.bonds:
        dv = np.roll(u.values, (-r[0], -r[1]), (-2, -1)) - u.values
        E += 0.5 * float((np.tile(C, (u.N1 // 2, u.N2 // 2)) * dv * dv).sum())
    return E, Displacement2D(u.N1, u.N2, bond_matvec(model.bonds, u.values))


def read_rows_csv(path):
    """The StudyRow list of a study CSV file."""
    header, *lines = Path(path).read_text().splitlines()
    assert header == ",".join(ROW_FIELDS), header
    return [StudyRow(*(int(t) if n in ("dof", "newton_iters") else float(t)
                       for n, t in zip(ROW_FIELDS, line.split(",")))) for line in lines]


def bulk_refined_nodes(nodes: np.ndarray, N: int, eta: np.ndarray, theta: float) -> np.ndarray:
    """Node labels after bulk marking of the periodic mesh with 1-based node
    labels ``nodes`` and per-element indicators ``eta``, one element at a
    time: in descending order of eta, the elements of at least 2 sites are
    marked until their running sum reaches theta times their total, and
    each is bisected at site left + n // 2, wrapped into 1..N."""
    counts = np.diff(nodes, append=nodes[0] + N)
    splittable = counts >= 2
    total = eta[splittable].sum()
    if total <= 0.0 or not splittable.any():
        return nodes
    marked = []
    acc = 0.0
    for j in np.argsort(-eta):
        if not splittable[j]:
            continue
        marked.append(j)
        acc += eta[j]
        if acc >= theta * total - 1e-15 * total:
            break
    new_nodes = set(int(n) for n in nodes)
    for j in marked:
        mid = int(nodes[j]) + int(counts[j]) // 2
        new_nodes.add((mid - 1) % N + 1)
    return np.array(sorted(new_nodes))


def site_elements(nodes: np.ndarray, N: int) -> np.ndarray:
    """Element of every 0-based site on the periodic mesh with 1-based node
    labels ``nodes``, one site at a time: element j holds the sites from
    node j up to, not including, node j + 1, and the last one wraps."""
    elem = np.full(N, -1)
    first = nodes - 1
    for j, a in enumerate(first):
        n = (first[(j + 1) % first.size] - a) % N or N
        for o in range(n):
            elem[(a + o) % N] = j
    return elem


def corrected_on_sites(nodes: np.ndarray, U: np.ndarray, chi: np.ndarray, N: int, p: int):
    """Coarse function of the nodal values U plus its corrector on the N
    sites, one site at a time, zero-meaned: site i = a + o of the element
    j = [a, b) of n sites takes U_j + (o / n)(U_{j+1} - U_j) + eps chi[j, i mod p]."""
    out = np.zeros(N)
    first = nodes - 1
    M = first.size
    for j, a in enumerate(first):
        n = (first[(j + 1) % M] - a) % N or N
        for o in range(n):
            i = (a + o) % N
            out[i] = U[j] + (o / n) * (U[(j + 1) % M] - U[j]) + (1.0 / N) * chi[j, i % p]
    return out - out.mean()


def equilibrated_on_sites(nodes, U, chi, K, sens, f, p: int):
    """The corrected solution of the nodal values U and cell fields chi
    moved to local equilibrium under the force f, one site at a time,
    zero-meaned.  With P = eps cumsum(f - <f>) from site 1 and Pbar_j its
    mean over the sites of element j = [a, b) of n sites, site i = a + o
    takes the strain step dz(i) = (Pbar_j - P(i)) / K[j] and the value
    U_j + (o / n)(U_{j+1} - U_j) + eps (sum_{o' < o} dz(a + o')
    + chi[j, i mod p] + sens[j, i mod p] dz(i))."""
    N = f.size
    P = np.cumsum(f - f.mean()) / N
    out = np.zeros(N)
    first = nodes - 1
    M = first.size
    for j, a in enumerate(first):
        n = (first[(j + 1) % M] - a) % N or N
        sites = [(a + o) % N for o in range(n)]
        Pbar = sum(P[i] for i in sites) / n
        acc = 0.0
        for o, i in enumerate(sites):
            dz = (Pbar - P[i]) / K[j]
            coarse = U[j] + (o / n) * (U[(j + 1) % M] - U[j])
            out[i] = coarse + (acc + chi[j, i % p] + sens[j, i % p] * dz) / N
            acc += dz
    return out - out.mean()


def probe_matrix(apply, shape) -> np.ndarray:
    """Dense matrix of a linear grid operator, probed column by column."""
    n = int(np.prod(shape))
    columns = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        columns.append(apply(e.reshape(shape)).ravel())
    return np.stack(columns, axis=1)


def zero_mean_dense_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Zero-mean x with A x = rhs - c for one constant c, from the dense
    system bordered by the mean constraint (c is the Lagrange multiplier
    plus mean(rhs), and 0 when the constants are in the kernel of A)."""
    n = rhs.size
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = A
    K[:n, n] = 1.0
    K[n, :n] = 1.0
    b = np.concatenate([rhs.ravel() - rhs.mean(), [0.0]])
    return np.linalg.solve(K, b)[:n].reshape(rhs.shape)


def p1_stiffness_dense(Q: np.ndarray, t: int) -> np.ndarray:
    """Periodic P1 stiffness of the form Q on the structured t x t
    triangulation, assembled element by element.

    Node (i, j) has index i * t + j; every square is split along its main
    diagonal into (n00, n10, n11) and (n00, n11, n01).
    """
    h = 1.0 / t
    G_lower = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]) / h
    G_upper = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]) / h
    area = 0.5 * h * h

    def node(i, j):
        return (i % t) * t + (j % t)

    A = np.zeros((t * t, t * t))
    for i in range(t):
        for j in range(t):
            lower = (node(i, j), node(i + 1, j), node(i + 1, j + 1))
            upper = (node(i, j), node(i + 1, j + 1), node(i, j + 1))
            for G, tri in ((G_lower, lower), (G_upper, upper)):
                K = area * G.T @ Q @ G
                for a in range(3):
                    for b in range(3):
                        A[tri[a], tri[b]] += K[a, b]
    return A


def p1_corrected_on_atoms(U: np.ndarray, chi_unit: np.ndarray, N: int) -> np.ndarray:
    """P1 field of the nodal values U (2, t, t) plus its corrector on the
    N x N atoms, one atom at a time, zero-meaned per component.

    Node (i, j) sits at the 0-based atom index (i, j) * N/t; the square of
    an atom is its index // stride, and it lies in the lower triangle
    (n00, n10, n11) where a >= b for the in-square offsets (a, b).  The
    atom with 1-based labels k adds eps (g_x chi_0 + g_y chi_1)(k mod 2),
    where g is the gradient of its triangle.
    """
    t = U.shape[-1]
    stride = N // t
    h, eps = 1.0 / t, 1.0 / N
    out = np.zeros((2, N, N))
    for c in range(2):
        for m1 in range(N):
            for m2 in range(N):
                i, a = divmod(m1, stride)
                j, b = divmod(m2, stride)
                sx, sy = a / stride, b / stride
                u00 = U[c, i, j]
                u10 = U[c, (i + 1) % t, j]
                u01 = U[c, i, (j + 1) % t]
                u11 = U[c, (i + 1) % t, (j + 1) % t]
                if a >= b:
                    value = u00 + sx * (u10 - u00) + sy * (u11 - u10)
                    gx, gy = (u10 - u00) / h, (u11 - u10) / h
                else:
                    value = u00 + sy * (u01 - u00) + sx * (u11 - u01)
                    gx, gy = (u11 - u01) / h, (u01 - u00) / h
                cell = ((m1 + 1) % 2, (m2 + 1) % 2)
                out[c, m1, m2] = value + eps * (gx * chi_unit[0][cell] + gy * chi_unit[1][cell])
        out[c] -= out[c].mean()
    return out


def shell_terms(family, order, r: int, z, y) -> tuple:
    """Terms of the closed-form order-th z-derivative of the shell-r bond
    law of species y (reduced mod p), for the Lennard-Jones (an ``l``
    pattern) and the quadratic family (``k``, ``a`` in shell row 1)."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y) % family.p
    if hasattr(family, "l"):
        ly = family.l[y]
        s = r * (1.0 + z) / ly
        if order == 0:
            return -2.0 * s ** -6, s ** -12
        if order == 1:
            return (12.0 * r / ly) * s ** -7, -(12.0 * r / ly) * s ** -13
        return -84.0 * (r / ly) ** 2 * s ** -8, 156.0 * (r / ly) ** 2 * s ** -14
    if r != 1:
        return (np.zeros(np.broadcast(z, y).shape),)
    k, a = family.k[0][y], family.a[0][y]
    if order == 0:
        return (0.5 * k * (z - a) ** 2,)
    if order == 1:
        return (k * (z - a),)
    return (k * np.ones_like(z),)


def shell_law(family, order, r: int, z, y) -> np.ndarray:
    """Closed-form order-th z-derivative of the shell-r law of species y."""
    return sum(shell_terms(family, order, r, z, y))


def stacked_law(family, a: np.ndarray, order: int):
    """(value, largest term magnitude) of the order-th derivative at bond
    arguments a with trailing axes (R, p), shell by shell."""
    value, scale = np.zeros_like(a), np.zeros_like(a)
    y = np.arange(family.p)
    for r in range(1, family.R + 1):
        terms = shell_terms(family, order, r, a[..., r - 1, :], y)
        value[..., r - 1, :] = sum(terms)
        scale[..., r - 1, :] = np.max(np.abs(terms), axis=0)
    return value, scale


def cell_bond_arguments(family, z: np.ndarray, chi: np.ndarray) -> dict:
    """args[r] (m, p): strain z plus the r-step micro difference, shell by shell."""
    return {
        r: z[:, None] + (np.roll(chi, -r, axis=1) - chi) / r
        for r in range(1, family.R + 1)
    }


def cell_gradient(family, args: dict, y: np.ndarray) -> np.ndarray:
    """(m, p) gradient of the cell energy, assembled shell by shell."""
    p = y.size
    g = np.zeros_like(args[1])
    for r, a in args.items():
        w = shell_law(family, 1, r, a, y) / r
        g += (np.roll(w, r, axis=1) - w) / p
    return g


def cell_hessian(family, args: dict, y: np.ndarray) -> np.ndarray:
    """(m, p, p) Hessian of the cell energy, assembled bond by bond."""
    m, p = args[1].shape
    H = np.zeros((m, p, p))
    for r, a in args.items():
        v = shell_law(family, 2, r, a, y) / (r * r * p)
        for j in range(p):
            jr = (j + r) % p
            vj = v[:, j]
            H[:, jr, jr] += vj
            H[:, j, j] += vj
            H[:, jr, j] -= vj
            H[:, j, jr] -= vj
    return H


def reduce_mat(H: np.ndarray) -> np.ndarray:
    """Hessian on the zero-mean space with the last micro value eliminated."""
    return H[:, :-1, :-1] - H[:, :-1, -1:] - H[:, -1:, :-1] + H[:, -1:, -1:]
