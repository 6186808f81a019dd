"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: dual norms come from a
linear program over the constraint polytope, derivatives from central
finite differences, micro ground states from scalar minimization.
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


def central_diff(fun, x: float, step: float) -> float:
    return (fun(x + step) - fun(x - step)) / (2.0 * step)


def coarse_step_dense(d2: np.ndarray, h: np.ndarray, mw: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Coarse Newton step from the dense reduced system B^T J B dc = -B^T R.

    J is the cyclic tridiagonal Jacobian with element stiffnesses d2 / h;
    B eliminates the last node through the constraint mw @ s = 0.
    """
    M = R.size
    dh = d2 / h
    J = np.zeros((M, M))
    j = np.arange(M)
    J[j, (j - 1) % M] -= np.roll(dh, 1)
    J[j, j] += np.roll(dh, 1) + dh
    J[j, (j + 1) % M] -= dh
    B = np.zeros((M, M - 1))
    B[: M - 1] = np.eye(M - 1)
    B[M - 1] = -mw[:-1] / mw[-1]
    return B @ np.linalg.solve(B.T @ J @ B, -B.T @ R)
