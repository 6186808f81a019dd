"""Linear solves with periodic operators given by their bonds: springs in
1D, bond lists in 2D.

The 1D solve is the atomistic Newton step in strain unknowns; the 2D
atomistic and P1 solves return the zero-mean x with A x = rhs - mean(rhs)
for the operator A of the bonds.  The coarse 1D Newton step has a closed
form (:func:`hqc.coarse.coarse_newton_step`).

A 1D operator of range R on n sites is its (R, n) spring stack s, with
s[r - 1, i] = s_r(i) the stiffness of bond (i, i + r), of either sign, and
acts on the nearest-neighbour (NN) stretches x, sum(x) = 0: bond (i, i + r)
stretches by the window sum e_r(i) of x over the m = r mod n sites from i,
taken mod n, as whole turns around the ring stretch it by nothing.
``spring_matvec`` applies J = sum_r W_r^T diag(s_r) W_r, for the window
sums W_r, through the tensions s_r e_r; on displacements u, x = D u, it is
the Hessian sum_r D_r^T diag(s_r) D_r.

``solve_cyclic_banded`` returns the x with sum(x) = 0 and J x = rhs - c for
one constant c by conjugate gradients (Hestenes & Stiefel, J. Res. NBS
49(6), 1952) in numpy alone.  By Cauchy-Schwarz e_r^2 is at most r times
the sum of the squares of its stretches, so the NN chain, the diagonal
k(y) = sum_r r sum_{j<r} s_r(y - j), agrees with J on a uniform stretch and
bounds it above where every s_r >= 0: the preconditioner, whose solve is
(r - c) / k with c = sum(r / k) / sum(1 / k).  The residual is projected to
zero mean after every update, which keeps the multiplier out of it, and
CG stops at max r - min r <= rtol (max b - min b), the (-1, inf) dual
seminorm of the Newton residual, for the caller's rtol but never below
``CG_RTOL``, its default; the atomistic Newton step passes a forcing term
(:func:`hqc.atomistic.forcing_term`).  The vectors of the iteration live in
one work block (``cg_work``), which a caller may reuse across solves, so
an iteration allocates none.  Some k(y) <= 0, a direction with p.Jp <= 0
or not finite, or no convergence in min(4 n + 20, ``CG_MAX_ITER``)
iterations hands the springs to a sparse KKT solve on displacements,
which also serves operators not positive definite on the zero-sum space:
hqc's only use of scipy, imported on first use.

A 2D operator is a bond list: bonds ``((r1, r2), C)`` whose (c1, c2)
array C holds, per site s of the cell, the stiffness of the bond from s to
s + r, which adds 0.5 C (x(s + r) - x(s))^2 to the energy, of either sign.
``solve_periodic_2d`` inverts it on any grid of whole cells when no bond
reaches beyond one cell: each bond adds +C to two diagonal and -C to two
off-diagonal entries of the blocks at cell offsets -1, 0, 1, and two sums
with the Fourier phases of those offsets give the block symbol on the
half spectrum of ``np.fft.rfft2``: one small dense system per frequency,
or one division for a one-site cell.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # numpy loads it on first access, which would be in a 2D study

from .exceptions import SolverFailure


CG_RTOL = 1e-14  #: the least and the default rtol of ``solve_cyclic_banded``
#: caps CG at min(4 N + 20, CG_MAX_ITER) iterations; shipped chains take <= 10,
#: random springs up to 2.4 N, and an iteration at N = 65536 about 1 ms
CG_MAX_ITER = 1000


def _solve_kkt_sparse(s, rhs):
    """The x of ``solve_cyclic_banded`` as D du, for the zero-mean du with
    A du = D^T rhs, A = sum_r D_r^T diag(s_r) D_r, from the sparse system
    bordered by the mean constraint."""
    import scipy.sparse.linalg

    R, n = s.shape
    i = np.tile(np.arange(n), R)
    j = (i + np.repeat(np.arange(1, R + 1), n)) % n
    # a spring adds v to A[i, i] and A[j, j], -v to A[i, j] and A[j, i]; whole turns are inert
    v = np.where((np.arange(1, R + 1) % n == 0)[:, None], 0.0, s).ravel()
    ij = (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))
    A = scipy.sparse.coo_matrix((np.concatenate([v, v, -v, -v]), ij), shape=(n, n))
    c = scipy.sparse.coo_matrix(np.ones((n, 1)) / n)
    K = scipy.sparse.bmat([[A, c], [c.T, None]], format="csc")
    du = scipy.sparse.linalg.spsolve(K, np.concatenate([np.roll(rhs, 1) - rhs, [0.0]]))[:-1]
    return np.roll(du, -1) - du


def _add_shifted(acc: np.ndarray, v: np.ndarray, j: int) -> None:
    """acc(i) += v(i + j), sites taken mod n."""
    n = acc.size
    k = j % n
    acc[: n - k] += v[k:]
    acc[n - k :] += v[:k]


def spring_matvec(s: np.ndarray, x: np.ndarray, out=None, t=None) -> np.ndarray:
    """J x for the springs s on the stretches x: (J x)(y) = sum_r sum_{j<m}
    t_r(y - j) over the tensions t_r = s_r e_r, e_r(i) = sum_{j<m} x(i + j),
    m = r mod n, sites taken mod n; written into ``out``, with ``t`` as
    scratch, when they are given."""
    R, n = s.shape
    out = np.empty(n) if out is None else out
    t = np.empty(n) if t is None else t
    out.fill(0.0)
    for r in range(1, R + 1):
        m = r % n
        np.copyto(t, x)
        for j in range(1, m):
            _add_shifted(t, x, j)
        t *= s[r - 1]
        for j in range(m):
            _add_shifted(out, t, -j)
    return out


def _chain_stiffness(s: np.ndarray, k: np.ndarray, T: np.ndarray, tmp: np.ndarray):
    """k(y) = sum_r r sum_{j<r} s_r(y - j), as sum_j T_j(y - j) over the
    suffix sums T_j = sum_{r>j} r s_r; written into k, with T and tmp as
    scratch."""
    R, _ = s.shape
    k.fill(0.0)
    T.fill(0.0)
    for j in range(R - 1, -1, -1):
        T += np.multiply(s[j], j + 1, out=tmp)
        _add_shifted(k, T, -j)
    return k


def cg_work(s: np.ndarray) -> np.ndarray:
    """An uninitialised work block for ``solve_cyclic_banded`` on springs like ``s``."""
    return np.empty((6, s.shape[1]))


def solve_cyclic_banded(s: np.ndarray, rhs: np.ndarray, rtol: float = CG_RTOL, work=None):
    """The x with sum(x) = 0 and J x = rhs - c for one constant c, for the
    operator J of the springs s on stretches (module docstring): CG
    preconditioned by their NN chain, stopped at max r - min r <=
    max(rtol, CG_RTOL) (max b - min b), or the sparse KKT fallback.  Every
    vector of the iteration lives in ``work``, a block from :func:`cg_work`
    that a caller may reuse across solves (a new one is made when it is
    None), and the CG solution is returned as its row, which the next solve
    with that block overwrites."""
    n = s.shape[1]
    if work is None:
        work = cg_work(s)
    p, x, r, q, z, kinv = work
    np.subtract(rhs, np.mean(rhs), out=r)
    if not _chain_stiffness(s, kinv, z, q).min() > 0.0:
        return _solve_kkt_sparse(s, rhs)
    np.reciprocal(kinv, out=kinv)
    ksum = kinv.sum()
    tol = max(rtol, CG_RTOL) * (r.max() - r.min())
    x.fill(0.0)
    p.fill(0.0)
    rz = np.inf  # the first direction is the preconditioned residual
    for _ in range(min(4 * n + 20, CG_MAX_ITER)):
        if r.max() - r.min() <= tol:
            x -= x.mean()
            return x
        # einsum, not a BLAS dot, whose threads waited up to 8 ms a call on a busy machine
        np.subtract(r, np.einsum("i,i", r, kinv) / ksum, out=z)
        z *= kinv
        z -= z.mean()  # the roundoff of c would reach r through J 1, which is not 0
        rz_new = np.einsum("i,i", r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        spring_matvec(s, p, out=q, t=z)
        pq = np.einsum("i,i", p, q)
        if not pq > 0.0:
            break
        x += np.multiply(p, rz / pq, out=z)
        r -= np.multiply(q, rz / pq, out=z)
        r -= r.mean()
    return _solve_kkt_sparse(s, rhs)


def _offset_sum(near: np.ndarray, n: int, length: int) -> np.ndarray:
    """sum_d exp(-2 pi i k d / n) near[d] over the cell offsets d = -1, 0, 1
    on axis 0 of ``near``, for the frequencies k < length on a new axis 0."""
    w = np.exp(-2j * np.pi / n * np.arange(length))
    w = w.reshape((length,) + (1,) * (near.ndim - 1))
    return near[1] + w * near[2] + w.conj() * near[0]


def solve_periodic_2d(bonds, rhs: np.ndarray) -> np.ndarray:
    """Zero-mean x with A x = rhs - mean(rhs) on a periodic N1 x N2 grid,
    for the operator A of ``bonds``.

    The grid must tile the cell (c1, c2) of the bonds, and no bond may
    reach beyond one cell: |r_i| > c_i raises ``ValueError``.  The symbol
    is built on the half spectrum n1 x (n2 // 2 + 1), with (n1, n2) =
    (N1 / c1, N2 / c2).  ``rhs`` has shape (..., N1, N2); all leading
    entries are solved with one symbol.  The singular zero-frequency block
    is regularized along the constants (a constant added to every entry),
    which the zero-mean result does not depend on.
    """
    rhs = np.asarray(rhs, dtype=float)
    N1, N2 = rhs.shape[-2:]
    shapes = {np.shape(C) for _, C in bonds}  # the cell's shape, shared by every C
    if len(shapes) != 1:
        raise ValueError(f"the bonds must share one cell shape, got {sorted(shapes)}")
    ((c1, c2),) = shapes
    if N1 % c1 or N2 % c2:
        raise ValueError(f"grid {N1}x{N2} is not a multiple of the cell {c1}x{c2}")
    n1, n2 = N1 // c1, N2 // c2
    m = c1 * c2
    s = np.arange(m)  # site s of a cell sits at (s // c2, s % c2)
    # near[d1 + 1, d2 + 1, i, s] = A[site i of cell d, site s of cell 0]
    near = np.zeros((3, 3, m, m))
    for (r1, r2), C in bonds:
        if abs(r1) > c1 or abs(r2) > c2:
            raise ValueError(f"bond {(r1, r2)} reaches beyond one cell of {c1}x{c2} sites")
        # the bond from site s of cell 0 ends at site j of cell (e1, e2)
        e1, j1 = np.divmod(s // c2 + r1, c1)
        e2, j2 = np.divmod(s % c2 + r2, c2)
        j = j1 * c2 + j2
        C = np.ravel(C)
        np.add.at(near, (1, 1, s, s), C)
        np.add.at(near, (1, 1, j, j), C)
        np.add.at(near, (1 - e1, 1 - e2, s, j), -C)
        np.add.at(near, (1 + e1, 1 + e2, j, s), -C)
    # symbol(k) = sum_d near[d] exp(-2 pi i k.d / n), one axis at a time;
    # offsets that alias (n <= 2) add up, as they do on the grid
    symbol = _offset_sum(near.swapaxes(0, 1), n2, n2 // 2 + 1)
    symbol = _offset_sum(symbol.swapaxes(0, 1), n1, n1)
    symbol[0, 0] += float(np.abs(symbol).max()) / m
    b = rhs.reshape(-1, N1, N2)
    b = b - b[:, :1, :1]  # removes a constant rhs exactly, so that it gives x = 0
    b -= b.mean(axis=(1, 2), keepdims=True)
    # (B, n1 c1, n2 c2) -> (n1, n2, m, B), sites ordered (a, b) within a cell
    b = b.reshape(-1, n1, c1, n2, c2).transpose(1, 3, 2, 4, 0).reshape(n1, n2, m, -1)
    bhat = np.fft.rfft2(b, axes=(0, 1))
    if m == 1:
        if not symbol.all():
            raise SolverFailure("singular periodic symbol")
        xhat = bhat / symbol
    else:
        try:
            xhat = np.linalg.solve(symbol, bhat)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular periodic symbol") from exc
    x = np.fft.irfft2(xhat, s=(n1, n2), axes=(0, 1))
    x = x.reshape(n1, n2, c1, c2, -1).transpose(4, 0, 2, 1, 3).reshape(rhs.shape)
    return x - x.mean(axis=(-2, -1), keepdims=True)
