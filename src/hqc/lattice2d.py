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

All three linear systems are bond lists (see ``hqc.linsolve``), each
inverted by one FFT solve without iteration or tolerance: the four bonds
of the (2,2) cell (``SpringModel2D.bonds``) for the atomistic and the
cell problem, and three springs for the P1 stiffness of the constant
form Q (``p1_bonds``).  A triangle with edge differences a along (1,0)
and b along (0,1) has energy 0.25 (Q11 a^2 + 2 Q12 a b + Q22 b^2), and
2ab = (a+b)^2 - a^2 - b^2 with a + b the difference along (1,1).  Both
triangles of a square share that diagonal and every axis edge borders two
triangles, so the stiffness is exactly that of springs Q11 - Q12 along
(1,0), Q22 - Q12 along (0,1) and Q12 along (1,1), of either sign.
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

    @functools.cached_property
    def bonds(self):
        """The bond list of one component on the (2,2) cell, one bond per
        direction: axis springs k1 where the k1+k2-parity of the tail site
        (labels k = index + 1) is even and k2 where it is odd, diagonal
        springs k3."""
        axis = np.array([[self.k1, self.k2], [self.k2, self.k1]], dtype=float)
        axis.flags.writeable = False
        diagonal = np.broadcast_to(float(self.k3), (2, 2))  # read-only
        return tuple((r, axis if 0 in r else diagonal) for r in DIRECTIONS)


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


def _check_even(N1, N2):
    if N1 % 2 or N2 % 2:
        raise ValueError("grid sizes must be even (microstructure period (2,2))")


def solve_atomistic_2d(model: SpringModel2D, f: Displacement2D):
    """Exact equilibrium solve: A u_c = eps^2 f_c on the zero-mean subspace.

    One FFT solve (``solve_periodic_2d``) of the model's bond list
    inverts A for both components.  Returns (Displacement2D, 0); the 0
    counts iterations, and the solve has none.
    """
    _check_even(f.N1, f.N2)
    eps2 = 1.0 / (f.N1 * f.N2)
    u = solve_periodic_2d(model.bonds, eps2 * f.values)
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
    #: the P1 stiffness of Q as a bond list on the node grid (``p1_bonds``)
    p1_bonds: tuple = field(repr=False)
    corrector_scale: float
    #: worst deviation of the numeric cell fields from the staggered pattern
    pattern_deviation: float
    #: |numeric scale - closed-form scale|
    analytic_gap: float


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
    for r, C in model.bonds:
        rhs += np.multiply.outer(r, C - np.roll(C, r, (0, 1)))
        Q += C.sum() * np.outer(r, r) / 4
    chi_unit = solve_periodic_2d(model.bonds, rhs)
    Q -= rhs.reshape(2, -1) @ chi_unit.reshape(2, -1).T / 4
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(j1+j2)
    scales = (sign * chi_unit).mean(axis=(1, 2))
    scale = 0.5 * float(scales[0] + scales[1])
    dev = float(np.abs(chi_unit - scales[:, None, None] * sign).max())
    gap = abs(scale - chi_analytic(model))
    chi_unit.flags.writeable = Q.flags.writeable = False
    return Homogenized2D(model, chi_unit, Q, p1_bonds(Q), scale, dev, gap)


def p1_bonds(Q: np.ndarray):
    """The periodic P1 stiffness of the form Q on the node grid as a bond
    list on the one-node cell: springs Q11 - Q12 along (1,0), Q22 - Q12
    along (0,1) and Q12 along (1,1).  It does not depend on h (gradients
    scale with 1/h, areas with h^2)."""
    weights = ((1, 0), Q[0, 0] - Q[0, 1]), ((0, 1), Q[1, 1] - Q[0, 1]), ((1, 1), Q[0, 1])
    return tuple((r, np.broadcast_to(w, (1, 1))) for r, w in weights)  # read-only


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
    U = solve_periodic_2d(hom.p1_bonds, loads)
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
    components, both directions, each over its own spacing 1/N)."""
    d = u.values - ref.values
    worst = 0.0
    for ax, n in ((-2, u.N1), (-1, u.N2)):
        worst = max(worst, float(np.abs(np.roll(d, -1, ax) - d).max()) * n)
    return worst


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
        info["err_0inf"] = float(np.abs(u.values - reference.values).max())
    return u, info
