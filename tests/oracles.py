"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: dual norms come from a
linear program over the constraint polytope, derivatives from central
finite differences, micro ground states from scalar minimization, cell
gradients and Hessians from the shell-by-shell loop assembly, and bond
values from the closed-form laws written out per shell and species.
"""

import numpy as np
from scipy.optimize import linprog


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


def cyclic_to_dense(diags: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of a cyclic band stored as (2R+1, n) diagonals,
    A[i, (i + d) % n] = diags[R + d, i] (aliased offsets add up)."""
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    A = np.zeros((n, n))
    idx = np.arange(n)
    for d in range(-R, R + 1):
        A[idx, (idx + d) % n] += diags[R + d]
    return A


def central_diff(fun, x: float, step: float) -> float:
    return (fun(x + step) - fun(x - step)) / (2.0 * step)


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
    """Zero-mean x with A x = rhs - mean(rhs), from the dense system
    bordered by the mean constraint (a Lagrange multiplier)."""
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


def reduce_vec(g: np.ndarray) -> np.ndarray:
    """Gradient on the zero-mean space with the last micro value eliminated."""
    return g[:, :-1] - g[:, -1:]


def reduce_mat(H: np.ndarray) -> np.ndarray:
    """Hessian on the zero-mean space with the last micro value eliminated."""
    return H[:, :-1, :-1] - H[:, :-1, -1:] - H[:, -1:, :-1] + H[:, -1:, -1:]
