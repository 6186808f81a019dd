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

``solve_periodic_2d`` inverts a periodic 2D operator that repeats on a
cell of sites exactly: probing the operator with one impulse per cell site
gives its block symbol, which ``np.fft.fft2`` over the cell indices turns
into one small dense system per frequency.
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


def solve_periodic_2d(apply, rhs: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    """Zero-mean x with apply(x) = rhs - mean(rhs) on a periodic N1 x N2 grid.

    ``apply`` maps a stack (B, N1, N2) of fields to the stack of their
    images, slice by slice; the c1 c2 impulse probes go through one call.
    It must be linear and symmetric, commute with shifts by ``cell`` =
    (c1, c2) and have the constants as its kernel.  ``rhs`` has shape
    (..., N1, N2); all leading entries are solved with one symbol.  The
    singular zero-frequency block is regularized along the constants (a
    constant added to every entry), which the zero-mean result does not
    depend on.
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
    symbol = np.fft.fft2(blocks(apply(impulses)), axes=(0, 1))
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
