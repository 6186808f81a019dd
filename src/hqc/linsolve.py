"""Linear solves with periodic operators: cyclic banded in 1D, block circulant in 2D.

Both solves return the zero-mean x with A x = rhs - mean(rhs) for a
symmetric periodic operator A whose kernel is the constants: the
atomistic Newton step on the zero-mean space (1D), and the 2D atomistic
and P1 solves.  The coarse 1D Newton step needs no linear solve; it has
a closed form (:func:`hqc.coarse.coarse_newton_step`).

A cyclic band of halfwidth R is stored as ``diags`` of shape (2R+1, N)
with ``diags[R + d, i] = A[i, (i + d) % N]`` for offsets d = -R..R.

``solve_cyclic_banded`` folds the period: in the site order 0, N-1, 1,
N-2, ... the cyclic band becomes an acyclic band of halfwidth 2R.  Pinning
site 0 (dropping its row and column) leaves the restriction of A to the
fields with x_0 = 0, which is positive definite exactly when A is positive
definite on the zero-mean space, as every Newton Jacobian of a stable
equilibrium is.  One LAPACK banded Cholesky factorization of its lower
triangle, one refinement step with the zero-mean residual and a shift to
zero mean give x, in O(N R^2).  A band that is not positive definite
(indefinite or singular), or a result that fails a residual check, is
solved instead as a sparse KKT system bordered by the zero-mean
constraint.

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

import functools

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .exceptions import SolverFailure


def cyclic_matvec(diags: np.ndarray, x: np.ndarray) -> np.ndarray:
    R = (diags.shape[0] - 1) // 2
    out = np.zeros_like(x, dtype=float)
    for d in range(-R, R + 1):
        out += diags[R + d] * np.roll(x, -d)
    return out


def _solve_kkt_sparse(diags, rhs):
    """Zero-mean solution of the cyclic band bordered by the mean constraint."""
    n = diags.shape[1]
    A = scipy.sparse.csc_matrix(_cyclic_coo(diags))
    c = scipy.sparse.csc_matrix(np.ones((n, 1)) / n)
    K = scipy.sparse.bmat([[A, c], [c.T, None]], format="csc")
    x = scipy.sparse.linalg.spsolve(K, np.concatenate([rhs, [0.0]]))[:-1]
    return x - x.mean()  # the border holds the mean only to roundoff


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


@functools.lru_cache(maxsize=16)
def _fold_maps(n: int, R: int):
    """(slot, order): where the entries of a cyclic (2R+1, n) band go in the
    folded, pinned band, and the sites in folded order 0, n-1, 1, n-2, ...

    The pinned system drops site 0; site order[k] is its row k - 1.  Entry
    (d, i) of ``diags``, A[i, j] with j = (i + d) % n, is row a of site i
    and column b of site j.  Lower-triangle entries (a >= b) land in
    ``slot[d, i]`` of the flattened transpose of LAPACK's (2R+1, n-1)
    lower band storage ab[a - b, b].  Upper entries and those in site 0's
    row or column go to the spare slot (n-1) (2R+1).
    """
    site = np.arange(n)
    row = np.where(2 * site < n, 2 * site, 2 * (n - site) - 1) - 1
    nbr = site + np.arange(-R, R + 1)[:, None]
    nbr %= n
    slot = row[nbr]  # column b of each entry, turned into its slot in place
    del nbr
    spare = slot > row
    spare |= slot < 0
    width = 2 * R + 1
    slot *= width - 1
    slot += row
    slot[spare] = (n - 1) * width
    return slot.ravel(), np.argsort(row)


def solve_cyclic_banded(diags: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Zero-mean x with A x = rhs - mean(rhs), for a symmetric cyclic band
    A whose kernel is the constants.

    A positive definite on the zero-mean space takes the banded Cholesky
    solve; any other A (indefinite or singular there) the sparse KKT solve.
    """
    R = (diags.shape[0] - 1) // 2
    n = diags.shape[1]
    b = np.asarray(rhs, dtype=float)
    b = b - b.mean()
    slot, order = _fold_maps(n, R)
    width = 2 * R + 1
    ab = np.bincount(slot, weights=diags.ravel(), minlength=(n - 1) * width + 1)
    ab = ab[:-1].reshape(n - 1, width).T
    c, y, info = scipy.linalg.lapack.dpbsv(
        ab, b[order[1:]], lower=1, overwrite_ab=1, overwrite_b=1
    )
    if info > 0:
        return _solve_kkt_sparse(diags, b)
    x = np.zeros(n)
    x[order[1:]] = y
    # Site 0's equation holds only through the column sums of A, which
    # cancel to roundoff, so its row takes the whole residual.  One
    # refinement step with the zero-mean residual spreads it over the
    # constants, which the zero-mean solution does not see.
    r = b - cyclic_matvec(diags, x)
    r -= r.mean()
    band = max(diags.max(), -diags.min())
    scale = max(1.0, float(np.abs(b).max()), float(band * np.abs(x).max()))
    if not np.abs(r).max() <= 1e-8 * scale:  # also when r is not finite
        return _solve_kkt_sparse(diags, b)
    y, _ = scipy.linalg.lapack.dpbtrs(c, r[order[1:]], lower=1, overwrite_b=1)
    x[order[1:]] += y
    x -= x.mean()
    return x


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
