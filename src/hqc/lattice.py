"""Periodic lattice functions and their discrete calculus.

The chain has N sites at x = k*eps, k = 1..N, with eps = 1/N, extended
periodically.  Values are stored in a plain float array where entry i
corresponds to site k = i + 1.  A site k belongs to species (k-1) mod p,
which is also the index into the p-periodic parameter lists of a potential
family and into micro-cell fields.

The r-step difference wraps periodically:

    diff_r(u, r)(x) = (u(x + r eps) - u(x)) / (r eps),

the average of the r forward translates of diff_r(u, 1).

Norms use the mean-scaled convention ||u||_q = ((1/N) sum |u|^q)^(1/q)
(max for q = inf), and |u|_{m,q} = ||D^m u||_q for m >= 0.  The negative
seminorm

    |u|_{-1,inf} = sup { <u, v> : <v> = 0, |v|_{1,1} = 1 }

has the closed form (max w - min w) / 2 where w is any discrete primitive
with D w(x) = u(x + eps); the additive constant of w cancels
(:func:`primitive_dual_norm`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LatticeGrid:
    """N-site periodic chain with microstructure period p; eps = 1/N."""

    N: int
    p: int = 1

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"need at least 2 sites, got N={self.N}")
        if self.p < 1:
            raise ValueError(f"period must be positive, got p={self.p}")
        if self.N % self.p != 0:
            raise ValueError(f"N={self.N} is not a multiple of the period p={self.p}")

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    def sites(self) -> np.ndarray:
        """Site coordinates x = eps, 2 eps, ..., N eps = 1."""
        return self.eps * np.arange(1, self.N + 1)

    def species(self) -> np.ndarray:
        """Species index (k-1) mod p of every site, as 0-based array indices."""
        return np.arange(self.N) % self.p


@dataclass(frozen=True)
class LatticeFn:
    """Real-valued eps*N-periodic function given by its N site values."""

    grid: LatticeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.N,):
            raise ValueError(f"expected {self.grid.N} values, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "LatticeFn":
        return LatticeFn(self.grid, values)


def diff_r(u: LatticeFn, r: int) -> LatticeFn:
    """r-step discrete derivative (u(x + r eps) - u(x)) / (r eps), r != 0."""
    if r == 0:
        raise ValueError("r must be nonzero")
    v = u.values
    return u.with_values((np.roll(v, -r) - v) / (r * u.grid.eps))


def seminorm(u: LatticeFn, m: int = 0, q=2) -> float:
    """|u|_{m,q} = ||D^m u||_q for m >= 0 (m = 0 is the plain norm)."""
    if m < 0:
        raise ValueError("negative-order seminorms: use primitive_dual_norm")
    v = u
    for _ in range(m):
        v = diff_r(v, 1)
    a = np.abs(v.values)
    if q == np.inf:
        return float(a.max())
    if q < 1:
        raise ValueError(f"q must be in [1, inf], got {q}")
    return float((a ** q).sum() / a.size) ** (1.0 / q)


def primitive_dual_norm(values, eps: float = 1.0) -> float:
    """(max w - min w) / 2 for the primitive w = eps * cumsum(values).

    For zero-sum site values on a grid of spacing eps this is the
    (-1, inf) dual seminorm; for the nodal values of a node-supported
    coarse functional (eps = 1) it is the dual norm over zero-mean coarse
    functions with |v|_{1,1} = 1.
    """
    w = eps * np.cumsum(values)
    return 0.5 * float(w.max() - w.min())
