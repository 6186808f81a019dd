"""Two-dimensional linear spring lattice with a (2,2) microstructure.

Sites live at x = (k1, k2) * eps on the periodic unit square, with
eps = 1/N.  Every site is linked to its neighbors in the directions
(1,0), (1,1), (0,1), (-1,1) (reflections are not double counted); the
axis springs alternate between k1 (k1+k2-parity of the tail site even)
and k2 (odd), the diagonal springs all carry k3.  The energy is

    E(u) = eps^2 sum_x sum_r psi_{r, x/eps} 0.5 * |(u(x+eps r) - u(x))/eps|^2

for a two-component displacement u.  Because every bond penalizes the
plain difference of displacement vectors with a scalar stiffness, the two
components decouple exactly; the cell problem is scalar and the per-parity
corrector coefficient matrix is a multiple of the identity by
construction.  The cell problem is the bond operator itself on the 2x2
periodic grid, so the (2,2)-cell solve in ``homogenize2d`` is the same
``solve_periodic_2d`` call as the atomistic solve.  It measures the
staggered pattern

    chi(j) = (-1)^(j1+j2) * (k1-k2) / (4 (k1+k2)) * (g1 + g2)

for a macroscopic strain vector g against this closed form, and builds the
homogenized quadratic form used by the P1 coarse solver on the structured
triangulation (t^2 nodes, 2 t^2 right triangles, every square split along
the same diagonal).  The P1 solution and its corrector reach the atoms in
one pass for both components: each square's nodal value and edge
differences are repeated over its block of (N/t)^2 atoms and weighted by
per-atom coefficients, the local coordinate plus the scaled cell field.

All three linear systems are exactly periodic: the bond operator repeats
on the (2,2) cell and the P1 stiffness with the constant form Q on every
node.  ``linsolve.solve_periodic_2d`` inverts each with one FFT solve,
without iteration or tolerance; both operators act on a stack of fields
along their last two axes on any grid of whole cells, as its probes
require: one stack of impulses on a grid of 5 x 5 cells (10 x 10 sites for
the bond operator, 5 x 5 nodes for the P1 stiffness), whatever N and t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linsolve import solve_periodic_2d

#: neighbor directions; reflections are implied
DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1))


@dataclass(frozen=True)
class SpringModel2D:
    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3) <= 0:
            raise ValueError("spring stiffnesses must be positive")

    def axis_coefficients(self, N1: int, N2: int) -> np.ndarray:
        """Stiffness of the axis bond starting at each site (parity of k1+k2)."""
        I, J = np.meshgrid(np.arange(N1), np.arange(N2), indexing="ij")
        par = (I + J) % 2  # (k1 + k2) mod 2 for site labels k = index + 1
        return np.where(par == 0, self.k1, self.k2)

    def bond_coefficients(self, r, N1: int, N2: int) -> np.ndarray:
        if r in ((1, 0), (0, 1)):
            return self.axis_coefficients(N1, N2)
        return np.full((N1, N2), self.k3)


@dataclass(frozen=True)
class Displacement2D:
    """Two-component periodic grid function, zero mean per component."""

    N1: int
    N2: int
    values: np.ndarray = field(repr=False)  # shape (2, N1, N2)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2, self.N1, self.N2):
            raise ValueError(f"expected shape (2, {self.N1}, {self.N2}), got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, N1, N2):
        return cls(N1, N2, np.zeros((2, N1, N2)))

    def projected(self) -> "Displacement2D":
        v = self.values - self.values.mean(axis=(1, 2), keepdims=True)
        return Displacement2D(self.N1, self.N2, v)


def _check_even(N1, N2):
    if N1 % 2 or N2 % 2:
        raise ValueError("grid sizes must be even (microstructure period (2,2))")


def _apply_scalar(model: SpringModel2D, v: np.ndarray) -> np.ndarray:
    """One component of the bond-force operator, (A v)(s), on the last two
    axes of v; leading axes are a stack of independent fields."""
    N1, N2 = v.shape[-2:]
    out = np.zeros_like(v)
    for r in DIRECTIONS:
        C = model.bond_coefficients(r, N1, N2)
        # tension of bond r by tail site; roll(dv, r) indexes it by head site
        dv = C * (np.roll(v, (-r[0], -r[1]), (-2, -1)) - v)
        out -= dv - np.roll(dv, r, (-2, -1))
    return out


def energy2d(model: SpringModel2D, u: Displacement2D):
    """Energy and gradient; the gradient is the plain-sum derivative dE/du."""
    _check_even(u.N1, u.N2)
    E = 0.0
    for r in DIRECTIONS:
        C = model.bond_coefficients(r, u.N1, u.N2)
        dv = np.roll(u.values, (-r[0], -r[1]), (-2, -1)) - u.values
        E += 0.5 * float((C * dv * dv).sum())
    return E, Displacement2D(u.N1, u.N2, _apply_scalar(model, u.values))


def solve_atomistic_2d(model: SpringModel2D, f: Displacement2D):
    """Exact equilibrium solve: A u_c = eps^2 f_c on the zero-mean subspace.

    The bond operator repeats on the (2,2) cell, so one FFT solve
    (``solve_periodic_2d``) inverts it for both components.  Returns
    (Displacement2D, 0); the 0 counts iterations, and the solve has none.
    """
    _check_even(f.N1, f.N2)
    eps2 = 1.0 / (f.N1 * f.N2)
    u = solve_periodic_2d(lambda v: _apply_scalar(model, v), eps2 * f.values, (2, 2))
    return Displacement2D(f.N1, f.N2, u), 0


def chi_analytic(model: SpringModel2D) -> float:
    """Closed-form corrector coefficient (k1 - k2) / (4 (k1 + k2))."""
    return (model.k1 - model.k2) / (4.0 * (model.k1 + model.k2))


@dataclass(frozen=True)
class Homogenized2D:
    """Shared (2,2)-cell solve and the effective per-component quadratic form."""

    model: SpringModel2D
    #: chi_unit[beta] is the scalar cell field for a unit strain e_beta, shape (2, 2)
    chi_unit: np.ndarray = field(repr=False)
    #: effective density: Phi(g) = 0.5 g^T Q g per displacement component
    Q: np.ndarray = field(repr=False)
    corrector_scale: float
    #: worst deviation of the numeric cell fields from the staggered pattern
    pattern_deviation: float
    #: |numeric scale - closed-form scale|
    analytic_gap: float

    @property
    def corrector_matrix(self) -> np.ndarray:
        return self.corrector_scale * np.eye(2)


@functools.lru_cache(maxsize=None)
def homogenize2d(model: SpringModel2D) -> Homogenized2D:
    """Solve the (2,2) cell for both unit strains and assemble the
    effective quadratic form; the staggered corrector pattern is measured,
    not assumed, and any gap to the closed form is reported.  The result
    is cached per model, so ``chi_unit`` and ``Q`` are read-only.

    The cell problem is the bond operator A on the 2x2 periodic grid: a
    strain g loads every bond r with g.r, so A chi = rhs . g with
    rhs[b] = sum_r (C_r - C_r(. - r)) r_b.  At the minimizer the energy
    per site is the affine part less half the work of the load, which
    gives Q = sum_r mean(C_r) r r^T - <rhs[a], chi_unit[b]> / 4.
    """
    rhs = np.zeros((2, 2, 2))
    Q = np.zeros((2, 2))
    for r in DIRECTIONS:
        C = model.bond_coefficients(r, 2, 2)
        rhs += np.multiply.outer(r, C - np.roll(C, r, (0, 1)))
        Q += C.sum() * np.outer(r, r) / 4
    chi_unit = solve_periodic_2d(lambda v: _apply_scalar(model, v), rhs, (2, 2))
    Q -= rhs.reshape(2, -1) @ chi_unit.reshape(2, -1).T / 4
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(j1+j2)
    scales = (sign * chi_unit).mean(axis=(1, 2))
    scale = 0.5 * float(scales[0] + scales[1])
    dev = float(np.abs(chi_unit - scales[:, None, None] * sign).max())
    gap = abs(scale - chi_analytic(model))
    chi_unit.flags.writeable = Q.flags.writeable = False
    return Homogenized2D(model, chi_unit, Q, scale, dev, gap)


#: nodal gradients of the two triangle shapes of a square, times h:
#: (n00, n10, n11) below the main diagonal, (n00, n11, n01) above it
_P1_TRIANGLES = (
    (np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]), ((0, 0), (1, 0), (1, 1))),
    (np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]), ((0, 0), (1, 1), (0, 1))),
)


def _p1_apply(Q: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Periodic P1 stiffness of the form Q applied to a nodal grid (t, t),
    or to a stack of them on the last two axes.

    The element matrix 0.5 G^T Q G does not depend on h (gradients scale
    with 1/h, areas with h^2).
    """
    out = np.zeros_like(U)
    for G, nodes in _P1_TRIANGLES:
        K = 0.5 * G.T @ Q @ G
        at = [np.roll(U, (-o[0], -o[1]), (-2, -1)) for o in nodes]  # U at each node of the square
        for a, o in enumerate(nodes):
            out += np.roll(sum(K[a, b] * at[b] for b in range(3)), o, (-2, -1))
    return out


def solve_coarse_2d(hom: Homogenized2D, f: Displacement2D, t: int) -> Displacement2D:
    """P1 coarse solve with the homogenized form plus per-site corrector.

    Nodes sit at the 0-based lattice indices that are multiples of
    stride = N/t, where the load is sampled.  Every square is split along
    its main diagonal; with local coordinates s = (index mod stride)/stride
    an atom lies in the lower triangle (n00, n10, n11) where sx >= sy and
    in the upper one (n00, n11, n01) otherwise.  On each triangle the P1
    field is u00 + sx Dx + sy Dy, where Dx, Dy are the nodal differences
    along its edges (h times its strain g), and the atom with 1-based
    labels k adds the corrector eps (g_x chi_0 + g_y chi_1)(k mod 2).

    Both components reach the atoms in one pass: the per-square values
    u00, Dx, Dy are repeated over the stride x stride block of atoms of
    their square, and u = u00 + Dx (sx + (t/N) chi_0) + Dy (sy + (t/N) chi_1),
    zero-meaned per component.
    """
    N1, N2 = f.N1, f.N2
    if N1 != N2:
        raise ValueError("the coarse path expects a square grid")
    if t < 2 or N1 % t != 0:
        raise ValueError(f"t={t} must be >= 2 and divide N={N1}")
    _check_even(N1, N2)
    stride = N1 // t
    nodes = stride * np.arange(t)
    loads = f.values[:, nodes[:, None], nodes] / (t * t)
    U = solve_periodic_2d(lambda U: _p1_apply(hom.Q, U), loads, (1, 1))
    U10, U01 = np.roll(U, -1, -2), np.roll(U, -1, -1)
    U11 = np.roll(U10, -1, -1)

    def blocks(V):  # (2, t, t) per square -> (2, N, N), constant on each block
        return V.repeat(stride, -2).repeat(stride, -1)

    s = np.tile(np.arange(stride) / stride, t)
    lower = s[:, None] >= s
    Dx = np.where(lower, blocks(U10 - U), blocks(U11 - U01))
    Dy = np.where(lower, blocks(U11 - U10), blocks(U01 - U))
    # the atom at 0-based index m has cell site (m + 1) mod 2
    chi = np.tile(np.roll(hom.chi_unit, (1, 1), (1, 2)), (1, N1 // 2, N2 // 2))
    chi *= t / N1
    out = blocks(U)
    out += Dx * (s[:, None] + chi[0])
    out += Dy * (s + chi[1])
    out -= out.mean(axis=(1, 2), keepdims=True)
    return Displacement2D(N1, N2, out)


def gradient_error(u: Displacement2D, ref: Displacement2D) -> float:
    """Max norm of the forward-difference gradient of u - ref (all
    components, both directions)."""
    eps = 1.0 / u.N1
    worst = 0.0
    for c in range(2):
        d = u.values[c] - ref.values[c]
        for ax in range(2):
            worst = max(worst, float(np.abs(np.roll(d, -1, ax) - d).max()) / eps)
    return worst


def value_error(u: Displacement2D, ref: Displacement2D) -> float:
    return float(np.abs(u.values - ref.values).max())


def exp_sin_force(N1: int, N2: int, amplitude: float = 10.0) -> Displacement2D:
    """Smooth zero-mean test force
    A exp(-cos^2(pi x1) - cos^2(pi x2)) (sin 2 pi x1, sin 2 pi x2)."""
    eps1, eps2 = 1.0 / N1, 1.0 / N2
    x1 = eps1 * (np.arange(N1) + 1.0)
    x2 = eps2 * (np.arange(N2) + 1.0)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    envelope = amplitude * np.exp(-np.cos(np.pi * X1) ** 2 - np.cos(np.pi * X2) ** 2)
    f = np.stack([envelope * np.sin(2 * np.pi * X1), envelope * np.sin(2 * np.pi * X2)])
    f -= f.mean(axis=(1, 2), keepdims=True)
    return Displacement2D(N1, N2, f)


def solve2d(
    model: SpringModel2D,
    f: Displacement2D,
    mode="atomistic",
    reference: Displacement2D | None = None,
):
    """Solve in ``"atomistic"`` mode (exact FFT solve) or ``("coarse", t)``
    mode (P1 + corrector); with a reference, gradient/value errors are
    reported.

    Returns (Displacement2D, info dict).
    """
    if mode == "atomistic":
        u, _ = solve_atomistic_2d(model, f)
        info = {"mode": "atomistic"}
    else:
        kind, t = mode
        if kind != "coarse":
            raise ValueError(f"unknown mode {mode!r}")
        hom = homogenize2d(model)
        u = solve_coarse_2d(hom, f, int(t))
        info = {"mode": "coarse", "t": int(t)}
    if reference is not None:
        info["err_1inf"] = gradient_error(u, reference)
        info["err_0inf"] = value_error(u, reference)
    return u, info
