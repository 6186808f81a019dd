"""Linear solves with periodic operators: cyclic banded in 1D, block circulant in 2D.

A cyclic band of halfwidth R is stored as ``diags`` of shape (2R+1, N)
with ``diags[R + d, i] = A[i, (i + d) % N]`` for offsets d = -R..R.

``solve_cyclic_banded`` uses a bordered factorization: the acyclic part of
the band is factorized with LAPACK's banded solver and the 2R x 2R corner
block (the periodic wrap) plus an optional rank-one mean regularization
are folded back in through the Woodbury identity, for O(N R^2) work.  If
the acyclic band is singular or the result fails a residual check, the
solve falls back to a sparse bordered KKT system.

The mean regularization replaces A by A + (alpha/N) * ones * ones^T.  When
the constants span ker(A) and the right-hand side has zero mean, the
regularized solve returns exactly the zero-mean solution, independent of
alpha > 0.

``solve_periodic_2d`` inverts a periodic 2D operator that repeats on a
cell of sites exactly: probing the operator with one impulse per cell site
gives its block symbol, which ``np.fft.fft2`` over the cell indices turns
into one small dense system per frequency.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .exceptions import SolverFailure


def cyclic_matvec(diags: np.ndarray, x: np.ndarray) -> np.ndarray:
    R = (diags.shape[0] - 1) // 2
    out = np.zeros_like(x, dtype=float)
    for d in range(-R, R + 1):
        out += diags[R + d] * np.roll(x, -d)
    return out


def cyclic_to_dense(diags: np.ndarray) -> np.ndarray:
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    A = np.zeros((n, n))
    idx = np.arange(n)
    for d in range(-R, R + 1):
        A[idx, (idx + d) % n] += diags[R + d]
    return A


def _solve_kkt_sparse(diags, rhs, mean_reg):
    n = diags.shape[1]
    A = scipy.sparse.csc_matrix(_cyclic_coo(diags))
    if mean_reg:
        c = scipy.sparse.csc_matrix(np.ones((n, 1)) / n)
        K = scipy.sparse.bmat([[A, c], [c.T, None]], format="csc")
        sol = scipy.sparse.linalg.spsolve(K, np.concatenate([rhs, [0.0]]))
        return sol[:-1]
    return scipy.sparse.linalg.spsolve(A, rhs)


def _cyclic_coo(diags):
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    rows, cols, vals = [], [], []
    idx = np.arange(n)
    for d in range(-R, R + 1):
        rows.append(idx)
        cols.append((idx + d) % n)
        vals.append(diags[R + d])
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def solve_cyclic_banded(diags: np.ndarray, rhs: np.ndarray, mean_reg: float = 0.0) -> np.ndarray:
    """Solve (A + (mean_reg/N) 11^T) x = rhs for a cyclic banded A."""
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    rhs = np.asarray(rhs, dtype=float)

    if n <= 4 * R + 2:
        A = cyclic_to_dense(diags)
        if mean_reg:
            A = A + mean_reg / n
        try:
            return np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular dense linear system") from exc

    # acyclic band in LAPACK storage ab[R + i - j, j] = A[i, j]
    ab = np.zeros((2 * R + 1, n))
    corner = []
    for d in range(-R, R + 1):
        vals = diags[R + d]
        if d >= 0:
            ab[R - d, d:] = vals[: n - d]
            for i in range(n - d, n):
                corner.append((i, i + d - n, vals[i]))
        else:
            ab[R - d, : n + d] = vals[-d:]
            for i in range(0, -d):
                corner.append((i, i + d + n, vals[i]))

    idx = np.array(list(range(R)) + list(range(n - R, n)))
    pos = {int(i): k for k, i in enumerate(idx)}
    M = np.zeros((2 * R, 2 * R))
    for i, j, v in corner:
        M[pos[i], pos[j]] += v

    ncols = 2 * R + (1 if mean_reg else 0)
    B = np.zeros((n, 1 + ncols))
    B[:, 0] = rhs
    for k, i in enumerate(idx):
        B[i, 1 + k] = 1.0
    if mean_reg:
        B[:, -1] = 1.0

    try:
        X = scipy.linalg.solve_banded((R, R), ab, B)
        xb = X[:, 0]
        XU = X[:, 1:]
        # Woodbury: K is the corner block extended by the mean regularization
        K = np.zeros((ncols, ncols))
        K[: 2 * R, : 2 * R] = M
        if mean_reg:
            K[-1, -1] = mean_reg / n
        UtX = np.vstack([XU[idx, :], XU.sum(axis=0)]) if mean_reg else XU[idx, :]
        Utxb = np.concatenate([xb[idx], [xb.sum()]]) if mean_reg else xb[idx]
        S = np.eye(ncols) + K @ UtX
        x = xb - XU @ np.linalg.solve(S, K @ Utxb)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return _solve_kkt_sparse(diags, rhs, mean_reg)

    resid = cyclic_matvec(diags, x) + (mean_reg / n) * x.sum() - rhs
    scale = max(1.0, float(np.abs(rhs).max()), float(np.abs(diags).max() * np.abs(x).max()))
    if not np.isfinite(x).all() or np.abs(resid).max() > 1e-8 * scale:
        return _solve_kkt_sparse(diags, rhs, mean_reg)
    return x


def solve_periodic_2d(apply, rhs: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    """Zero-mean x with apply(x) = rhs - mean(rhs) on a periodic N1 x N2 grid.

    ``apply`` maps an (N1, N2) array to an (N1, N2) array.  It must be
    linear and symmetric, commute with shifts by ``cell`` = (c1, c2) and
    have the constants as its kernel.  ``rhs`` has shape (..., N1, N2);
    all leading entries are solved with one symbol.  The singular
    zero-frequency block is mean-regularized as in ``solve_cyclic_banded``;
    the result does not depend on the regularization weight.
    """
    rhs = np.asarray(rhs, dtype=float)
    N1, N2 = rhs.shape[-2:]
    c1, c2 = cell
    if N1 % c1 or N2 % c2:
        raise ValueError(f"grid {N1}x{N2} is not a multiple of the cell {c1}x{c2}")
    n1, n2, m = N1 // c1, N2 // c2, c1 * c2

    def blocks(v):  # (B, N1, N2) -> (n1, n2, m, B), sites ordered (a, b) within a cell
        return v.reshape(-1, n1, c1, n2, c2).transpose(1, 3, 2, 4, 0).reshape(n1, n2, m, -1)

    impulses = np.zeros((m, N1, N2))
    for k in range(m):
        impulses[k, k // c2, k % c2] = 1.0
    # column k of the symbol is the response to an impulse at cell site k
    symbol = np.fft.fft2(blocks(np.stack([apply(e) for e in impulses])), axes=(0, 1))
    symbol[0, 0] += float(np.abs(symbol).max()) / m
    b = rhs.reshape(-1, N1, N2)
    b = b - b[:, :1, :1]  # removes a constant rhs exactly, so that it gives x = 0
    b -= b.mean(axis=(1, 2), keepdims=True)
    try:
        xhat = np.linalg.solve(symbol, np.fft.fft2(blocks(b), axes=(0, 1)))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("singular periodic symbol") from exc
    x = np.fft.ifft2(xhat, axes=(0, 1)).real
    x = x.reshape(n1, n2, c1, c2, -1).transpose(4, 0, 2, 1, 3).reshape(rhs.shape)
    return x - x.mean(axis=(-2, -1), keepdims=True)
