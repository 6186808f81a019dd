"""Interaction laws for multilattice chains.

A potential family assigns to every neighbor shell r = 1..R and species
y = 0..p-1 a scalar bond law phi_r(.; y), and evaluates all of them in one
stacked call over the (R, p) layout: ``a`` is any float array whose
trailing axes are (R, p), ``a[..., r-1, y]`` the shell-r bond argument of
species y, and

    family.admissible(a)       -> bool mask of a's shape
    family.bonds(a, *orders)   -> phi, phi' or phi'' (orders 0, 1, 2) at a,

one array per requested order, each of a's shape (a single array when one
order is asked for).  Leading axes are free: a batch of m cells passes
(m, R, p), the lattice of N sites the (N/p, R, p) view of its (R, N)
stack of window sums.  ``bonds`` raises :class:`DomainError` when any
entry is inadmissible.

Shell factors.  ``family.bonds(x, *orders, shells=m)``, for positive
factors m that broadcast over the (R, p) layout, evaluates the laws of
x -> phi(x / m), whose derivatives in x are phi^(k)(x / m) / m^k.  The
lattice passes the window sums x = r D_{x,r} u of its r consecutive
strains with m = r, so the law returns the bond stress phi' / r and the
spring phi'' / r^2 that it sums, and the shell factors cost no pass of
their own: the law folds them into the per-column constants it multiplies
by anyway.  The cells pass none (m = 1), which leaves every constant, and
every result, as it is.  A law's constants are built once per family,
shell factors and layout of the argument, and cached.

The bond argument is the deformation gradient g = 1 + z, where z is the
discrete strain D_{x,r} u; the identity part is absorbed into the
reference positions so that u = 0 is an admissible configuration.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DomainError, StabilityError


class PotentialFamily:
    """Base class: R-neighbor, p-periodic bond laws with two derivatives,
    evaluated over the stacked (R, p) layout (see module docstring).

    Subclasses implement ``admissible``, ``_constants(m)``, the constants
    of the laws of x -> phi(x / m) for shell factors m, each broadcasting
    over the (R, p) layout, and ``_laws(x, *constants)``, which checks the
    float array x and returns the three orders as deferred callables.
    """

    def __init__(self, R: int, p: int):
        if R < 1:
            raise ValueError("interaction range R must be >= 1")
        self.R = int(R)
        self.p = p

    def admissible(self, a) -> np.ndarray:
        raise NotImplementedError

    def _constants(self, m) -> tuple:
        """The constants that ``_laws`` takes after x, for shell factors m."""
        return ()

    def bonds(self, a, *orders, shells=1.0):
        """phi, phi', phi'' (orders 0, 1, 2) at bond arguments a, as asked;
        with shell factors m, the derivatives in a of phi(a / m).  The law
        runs on a's axes in their memory order, where a transposed view
        such as the lattice's is one contiguous array."""
        a = np.asarray(a, dtype=float)
        m = np.asarray(shells, dtype=float)
        order = _memory_order(a)
        frame = None if order is None else (a.shape, order)
        constants = _law_constants(self, m.tobytes(), m.shape, frame)
        laws = self._laws(a if order is None else a.transpose(order), *constants)
        out = [laws[k]() for k in orders]
        if order is not None:
            back = [order.index(i) for i in range(a.ndim)]
            out = [v.transpose(back) for v in out]
        return out[0] if len(out) == 1 else tuple(out)


def _memory_order(a) -> tuple | None:
    """The axes of the array a from the largest stride down, or None when a
    is C-contiguous: a transposed to them is C-contiguous when a is a
    transpose of a contiguous array."""
    if a.flags.c_contiguous:
        return None
    # sorted in Python: a study's first np.argsort pages in numpy's sort
    # code, 0.2 MB of resident memory
    return tuple(sorted(range(a.ndim), key=lambda i: -a.strides[i]))


@functools.lru_cache(maxsize=16)
def _law_constants(family, m: bytes, m_shape: tuple, frame) -> tuple:
    """The read-only constants of ``family``'s laws for the shell factors
    with bytes m, as built, or tiled over the frame (shape, order) of an
    argument of that shape transposed to that order: numpy runs a
    broadcast constant over a transposed frame in short inner loops, and a
    contiguous tile with it in one loop."""
    framed = []
    for c in family._constants(np.frombuffer(m).reshape(m_shape)):
        c = np.array(c, dtype=float)  # a copy, which the cache freezes
        if frame is not None:
            shape, order = frame
            c = np.ascontiguousarray(np.broadcast_to(c, shape).transpose(order))
        c.flags.writeable = False
        framed.append(c)
    return tuple(framed)


class LennardJonesFamily(PotentialFamily):
    """Lennard-Jones bond law -2 s^-6 + s^-12 with s = r (1 + z) / l_y.

    g = 1 + z is the deformation gradient, so the shell-r pair sits at the
    scaled deformed distance r (1 + z); one equilibrium-distance pattern l
    serves every shell, and farther shells land in the weak tail of the
    same law (which is what keeps the nearest-neighbor bonds dominant).
    With k = r / l_y (an (R, p) constant) and s6 = (k g)^-6 the derivatives
    in z are phi' = 12 s6 (1 - s6) / g and phi'' = 12 s6 (13 s6 - 7) / g^2.
    With shell factors m the law is evaluated at G = m + x = m g, in one
    expression for both: s6 = ((k / m) G)^-6, and the divisions by G give
    the derivatives in x, phi' / m and phi'' / m^2, as the divisions by g
    give phi' and phi'' at m = 1.  Evaluation with g <= 0 raises
    :class:`DomainError`.
    """

    def __init__(self, l, R: int):
        l = np.asarray(l, dtype=float)
        if l.ndim != 1 or l.size < 1:
            raise ValueError("l must be a nonempty 1-d sequence")
        if np.any(l <= 0):
            raise ValueError("equilibrium distances must be positive")
        super().__init__(R, l.size)
        self.l = l
        self.k = np.arange(1, self.R + 1)[:, None] / l

    def admissible(self, a):
        return 1.0 + np.asarray(a, dtype=float) > 0

    def _constants(self, m):
        return m, self.k / m

    def _laws(self, x, m, k):
        g = m + x  # m times the deformation gradient
        if not g.min(initial=np.inf) > 0:  # a nan fails too
            raise DomainError("deformation gradient g = 1 + z must be positive")
        s6 = k * g
        s6 *= s6 * s6
        s6 *= s6
        np.reciprocal(s6, out=s6)

        def law(c0, c1, divisions):
            # s6 (c0 + c1 s6) / g^divisions, one temporary: numpy elides
            # temporaries only of arrays above 256 KiB, and the lattice
            # evaluates blocks of 64 KiB
            out = np.multiply(s6, c1)
            out += c0
            out *= s6
            for _ in range(divisions):
                out /= g
            return out

        return (lambda: law(-2.0, 1.0, 0), lambda: law(12.0, -12.0, 1),
                lambda: law(-84.0, 156.0, 2))


class QuadraticFamily(PotentialFamily):
    """Nearest-neighbor harmonic law 0.5 k_y (z - a_y)^2, zero for r >= 2.

    ``k`` and ``a`` are (R, p) columns: k_y and a_y in row r = 1, zeros
    below.  Everywhere admissible; an analytic fixture for the nonlinear
    machinery.  With shell factors m it is 0.5 (k / m^2) (x - m a)^2.
    """

    def __init__(self, k, a, R: int = 1):
        k = np.asarray(k, dtype=float)
        a = np.asarray(a, dtype=float)
        if k.shape != a.shape or k.ndim != 1:
            raise ValueError("k and a must be 1-d sequences of equal length")
        if np.any(k <= 0):
            raise ValueError("stiffnesses must be positive")
        super().__init__(R, k.size)
        self.k = np.zeros((self.R, self.p))
        self.a = np.zeros((self.R, self.p))
        self.k[0], self.a[0] = k, a

    def admissible(self, a):
        return np.ones(np.shape(a), dtype=bool)

    def _constants(self, m):
        return self.k / (m * m), m * self.a

    def _laws(self, x, k, a):
        d = x - a
        return (
            lambda: 0.5 * k * d ** 2,
            lambda: k * d,
            lambda: k * np.ones_like(d),
        )


def lj_family(l, R: int) -> LennardJonesFamily:
    """Lennard-Jones family with p-periodic equilibrium distances l."""
    return LennardJonesFamily(l, R)


def quadratic_family(k, a, R: int = 1) -> QuadraticFamily:
    """Harmonic nearest-neighbor family with stiffness k_y and offsets a_y."""
    return QuadraticFamily(k, a, R)


def validate_microstructure(chi: np.ndarray, where: str = "microstructure") -> None:
    """Check that y + chi(y) is strictly increasing and |chi| <= (p-1)/2."""
    p = chi.size
    d = np.diff(chi, append=chi[:1])  # cyclic unit-spacing forward difference
    if np.any(1.0 + d <= 0.0):
        raise StabilityError(
            f"{where}: y + chi(y) is not strictly increasing "
            f"(min 1 + D chi = {float((1.0 + d).min()):.3e})"
        )
    bound = 0.5 * (p - 1)
    if np.abs(chi).max() > bound + 1e-12:
        raise StabilityError(
            f"{where}: ||chi||_inf = {np.abs(chi).max():.6g} exceeds (p-1)/2 = {bound}"
        )


def ground_microstructure(law) -> np.ndarray:
    """The zero-mean ground field chi_* of the homogenized law ``law``'s
    family, a read-only (p,) array: the unloaded cell problem, solved once
    per law by Newton from zero to the cell tolerance
    :data:`~hqc.microhom.CELL_TOL` (the row of ``law.ground_cell``, which a
    cold coarse solve of the law reuses).  It is validated: the cell energy
    must be a minimum there (a positive definite reduced cell Hessian, not
    a saddle), the micro deformation strictly increasing and
    ||chi_*||_inf <= (p-1)/2; violations raise :class:`StabilityError`.
    """
    from .microhom import require_stable_cells

    chi, cells = law.ground_cell
    require_stable_cells(cells, np.zeros(1))
    validate_microstructure(chi[0], "ground microstructure")
    return chi[0]


def nn_dominance_margin(family: PotentialFamily, chi_star: np.ndarray) -> float:
    """Stability margin: half the least nearest-neighbor curvature minus the
    summed worst-case curvature magnitudes of all farther shells, evaluated
    at the ground microstructure chi_*.  A positive value certifies
    dominance of the nearest-neighbor interaction."""
    from .microhom import _cell_maps

    a = (chi_star @ _cell_maps(family.p, family.R).DT).reshape(family.R, -1)
    bad = ~family.admissible(a)
    if bad.any():
        r = int(np.flatnonzero(bad.any(axis=1))[0]) + 1
        raise DomainError(f"inadmissible micro argument for shell r={r}")
    d2 = family.bonds(a, 2)
    margin = 0.5 * float(d2[0].min())
    for d2_r in d2[1:]:
        margin -= float(np.abs(d2_r).max())
    return margin
