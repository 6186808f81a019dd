"""Linear solves with periodic operators: cyclic banded in 1D, block circulant in 2D.

Both solves return the zero-mean x with A x = rhs - mean(rhs) for a
symmetric periodic operator A whose kernel is the constants: the
atomistic Newton step on the zero-mean space (1D), and the 2D atomistic
and P1 solves.  The coarse 1D Newton step needs no linear solve; it has
a closed form (:func:`hqc.coarse.coarse_newton_step`).

A cyclic band of halfwidth R is stored as ``diags`` of shape (2R+1, N)
with ``diags[R + d, i] = A[i, (i + d) % N]`` for offsets d = -R..R.

``solve_cyclic_banded`` runs conjugate gradients (Hestenes & Stiefel,
J. Res. NBS 49(6), 1952) on the zero-mean space in numpy alone.  The band
is a sum of springs, s_r(i) = -A[i, i + r] on bond (i, i + r), whose
stretch is the sum of r nearest-neighbour (NN) strains x(y + 1) - x(y).
By Cauchy-Schwarz its square is at most r times the sum of their squares,
with equality for equal strains, so spreading each bond over the NN bonds
it spans, with weight r s_r, gives the preconditioner: the NN chain of
stiffness k(y) = sum_r r sum_{j<r} s_r(y - j), which agrees with A under a
uniform strain.  Its solve is two prefix sums, for a zero-mean b, so the
CG residual r is projected to zero mean after every update.  CG stops at
max|r| <= rtol max|b|, for the caller's rtol but never below ``CG_RTOL``,
its default; the atomistic Newton step passes a forcing term
(:func:`hqc.atomistic.forcing_term`).  The vectors of the iteration live
in one work block (``cg_work``), which a caller may reuse across solves,
and are updated in place, so an iteration allocates none.  Some k(y) <= 0,
a direction with p.Ap <= 0 or not finite, or no convergence in
min(4 N + 20, ``CG_MAX_ITER``) iterations hands the band to a sparse KKT
solve bordered by the zero-mean constraint, which also serves bands not
positive definite there: hqc's only use of scipy, imported on first use.

A 2D operator is a bond list: bonds ``((r1, r2), C)`` whose (c1, c2)
array C holds, per site s of the cell, the stiffness of the bond from s to
s + r, which adds 0.5 C (x(s + r) - x(s))^2 to the energy, of either sign.
``bond_matvec`` applies it on any grid of whole cells, and
``solve_periodic_2d`` inverts it when no bond reaches beyond one cell:
each bond adds +C to two diagonal and -C to two off-diagonal entries of
the blocks at cell offsets -1, 0, 1, and two sums with the Fourier phases
of those offsets give the block symbol on the half spectrum of
``np.fft.rfft2``: one small dense system per frequency, or one division
for a one-site cell.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # numpy loads it on first access, which would be in a 2D study

from .exceptions import SolverFailure


CG_RTOL = 1e-14  #: the least and the default rtol of ``solve_cyclic_banded``
#: caps CG at min(4 N + 20, CG_MAX_ITER) iterations; shipped chains take <= 10,
#: random bands up to 2.4 N, and an iteration at N = 65536 about 1 ms
CG_MAX_ITER = 1000


def _band_product(diags: np.ndarray, xw: np.ndarray, out=None) -> np.ndarray:
    """A x for the cyclic band ``diags`` from the wrapped copy xw of x,
    xw[j] = x((j - R) mod n) for j < n + 2R: row R + d of the band meets
    the window xw[R + d : R + d + n]."""
    windows = np.lib.stride_tricks.sliding_window_view(xw, diags.shape[1])
    return np.einsum("ij,ij->j", diags, windows, out=out)


def cyclic_matvec(diags: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the cyclic band ``diags``."""
    R = (diags.shape[0] - 1) // 2
    return _band_product(diags, np.take(x, np.arange(-R, x.size + R), mode="wrap"))


def _solve_kkt_sparse(diags, rhs):
    """Zero-mean solution of the cyclic band bordered by the mean constraint."""
    import scipy.sparse.linalg

    c = scipy.sparse.coo_matrix(np.ones((diags.shape[1], 1)) / diags.shape[1])
    K = scipy.sparse.bmat([[_cyclic_coo(diags), c], [c.T, None]], format="csc")
    x = scipy.sparse.linalg.spsolve(K, np.concatenate([rhs, [0.0]]))[:-1]
    return x - x.mean()  # the border holds the mean only to roundoff


def _cyclic_coo(diags):
    import scipy.sparse

    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    rows = np.tile(np.arange(n), 2 * R + 1)
    cols = (rows + np.repeat(np.arange(-R, R + 1), n)) % n
    return scipy.sparse.coo_matrix((diags.ravel(), (rows, cols)), shape=(n, n))


def _chain_stiffness(diags: np.ndarray, k: np.ndarray, T: np.ndarray, tmp: np.ndarray):
    """k(y) = sum_r r sum_{j<r} s_r(y - j) with s_r(i) = -diags[R + r, i],
    as sum_j T_j(y - j) over the suffix sums T_j = sum_{r>j} r s_r; written
    into k, with T and tmp as scratch."""
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    k.fill(0.0)
    T.fill(0.0)
    for j in range(R - 1, -1, -1):
        T -= np.multiply(diags[R + j + 1], j + 1, out=tmp)
        s = j % n  # k += np.roll(T, j)
        k[s:] += T[: n - s]
        k[:s] += T[n - s :]
    return k


def _chain_solve(kinv, ksum, b, z, e):
    """b.z for the zero-mean solution z of the NN chain of stiffness 1 / kinv
    and a zero-mean b, written into z, with e as scratch; ksum = sum(kinv).
    The tensions t = c - cumsum(b) solve t(y - 1) - t(y) = b(y); the strains
    e = t kinv sum to zero when c = kinv.cumsum(b) / ksum."""
    t = np.cumsum(b, out=z)
    # einsum, not a BLAS dot, whose threads waited up to 8 ms a call on a busy machine
    np.subtract(np.einsum("i,i", t, kinv) / ksum, t, out=t)
    np.multiply(t, kinv, out=e)
    bz = np.einsum("i,i", t, e)
    z[0] = 0.0
    np.cumsum(e[:-1], out=z[1:])
    z -= z.mean()
    return bz


def cg_work(diags: np.ndarray) -> np.ndarray:
    """An uninitialised work block for ``solve_cyclic_banded`` on bands of
    the shape of ``diags``."""
    R = (diags.shape[0] - 1) // 2
    return np.empty((6, diags.shape[1] + 2 * R))


def solve_cyclic_banded(diags: np.ndarray, rhs: np.ndarray, rtol: float = CG_RTOL, work=None):
    """Zero-mean x with A x = rhs - mean(rhs), for a symmetric cyclic band A
    whose kernel is the constants: CG preconditioned by the band's NN chain,
    stopped at max|r| <= max(rtol, CG_RTOL) max|b|, or the sparse KKT
    fallback (module docstring).  Every vector of the iteration lives in
    ``work``, a block from :func:`cg_work` that a caller may reuse across
    solves; a new one is made when it is None."""
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    rhs = np.asarray(rhs, dtype=float)
    if work is None:
        work = cg_work(diags)
    pw = work[0]  # p with its wrapped halo, for _band_product
    p, x, r, q, z, kinv = (v[R : R + n] for v in work)
    if not _chain_stiffness(diags, kinv, z, q).min() > 0.0:
        return _solve_kkt_sparse(diags, rhs - rhs.mean())
    np.reciprocal(kinv, out=kinv)
    ksum = kinv.sum()
    np.subtract(rhs, rhs.mean(), out=r)
    tol = max(rtol, CG_RTOL) * max(r.max(), -r.min())
    x.fill(0.0)
    pw.fill(0.0)
    lead, trail = np.arange(-R, 0), np.arange(R)
    rz = np.inf  # the first direction is the preconditioned residual
    for _ in range(min(4 * n + 20, CG_MAX_ITER)):
        if max(r.max(), -r.min()) <= tol:
            return x - x.mean()
        rz_new = _chain_solve(kinv, ksum, r, z, q)
        p *= rz_new / rz
        p += z
        rz = rz_new
        np.take(p, lead, out=pw[:R], mode="wrap")
        np.take(p, trail, out=pw[R + n :], mode="wrap")
        _band_product(diags, pw, out=q)
        pq = np.einsum("i,i", p, q)
        if not pq > 0.0:
            break
        x += np.multiply(p, rz / pq, out=z)
        r -= np.multiply(q, rz / pq, out=z)
        r -= r.mean()
    return _solve_kkt_sparse(diags, rhs - rhs.mean())


def _offset_sum(near: np.ndarray, n: int, length: int) -> np.ndarray:
    """sum_d exp(-2 pi i k d / n) near[d] over the cell offsets d = -1, 0, 1
    on axis 0 of ``near``, for the frequencies k < length on a new axis 0."""
    w = np.exp(-2j * np.pi / n * np.arange(length))
    w = w.reshape((length,) + (1,) * (near.ndim - 1))
    return near[1] + w * near[2] + w.conj() * near[0]


def _cells(bonds, N1: int, N2: int):
    """The cell (c1, c2), which is the shape of every C of ``bonds``, and
    the numbers of cells (n1, n2) along the axes of the N1 x N2 grid."""
    shapes = {np.shape(C) for _, C in bonds}
    if len(shapes) != 1:
        raise ValueError(f"the bonds must share one cell shape, got {sorted(shapes)}")
    ((c1, c2),) = shapes
    if N1 % c1 or N2 % c2:
        raise ValueError(f"grid {N1}x{N2} is not a multiple of the cell {c1}x{c2}")
    return (c1, c2), N1 // c1, N2 // c2


def bond_matvec(bonds, v: np.ndarray) -> np.ndarray:
    """A v for the operator A of ``bonds`` on the last two axes of v, a
    periodic grid of whole cells; leading axes are a stack of fields."""
    _, n1, n2 = _cells(bonds, *v.shape[-2:])
    out = np.zeros_like(v)
    for r, C in bonds:
        # tension of bond r by tail site; roll(dv, r) indexes it by head site
        dv = np.tile(C, (n1, n2)) * (np.roll(v, (-r[0], -r[1]), (-2, -1)) - v)
        out -= dv - np.roll(dv, r, (-2, -1))
    return out


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
    (c1, c2), n1, n2 = _cells(bonds, N1, N2)
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
