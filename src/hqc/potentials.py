"""Interaction laws for multilattice chains.

A potential family assigns to every neighbor shell r = 1..R and species
y (0-based index, p-periodic) a scalar bond law.  All evaluation methods
are vectorized: ``z`` may be any float array and ``y`` an integer array
broadcasting against it.

The bond argument is the deformation gradient g = 1 + z, where z is the
discrete strain D_{x,r} u; the identity part is absorbed into the
reference positions so that u = 0 is an admissible configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, StabilityError
from .lattice import MicroFn

#: default residual tolerance of the unloaded micro solve
GROUND_TOL = 1e-12


class PotentialFamily:
    """Base class: R-neighbor, p-periodic bond laws with two derivatives.

    Subclasses implement ``eval``, ``d1``, ``d2`` and ``admissible``;
    species indices are reduced mod p so the laws are p-periodic in y.
    """

    R: int
    p: int

    def eval(self, r: int, z, y) -> np.ndarray:
        raise NotImplementedError

    def d1(self, r: int, z, y) -> np.ndarray:
        raise NotImplementedError

    def d2(self, r: int, z, y) -> np.ndarray:
        raise NotImplementedError

    def admissible(self, r: int, z, y) -> np.ndarray:
        raise NotImplementedError


class LennardJonesFamily(PotentialFamily):
    """Lennard-Jones bond law -2 s^-6 + s^-12 with s = r (1 + z) / l_y.

    g = 1 + z is the deformation gradient, so the shell-r pair sits at the
    scaled deformed distance r (1 + z); one equilibrium-distance pattern l
    serves every shell, and farther shells land in the weak tail of the
    same law (which is what keeps the nearest-neighbor bonds dominant).
    Evaluation with g <= 0 raises :class:`DomainError`.
    """

    def __init__(self, l, R: int):
        l = np.asarray(l, dtype=float)
        if l.ndim != 1 or l.size < 1:
            raise ValueError("l must be a nonempty 1-d sequence")
        if np.any(l <= 0):
            raise ValueError("equilibrium distances must be positive")
        if R < 1:
            raise ValueError("interaction range R must be >= 1")
        self.l = l
        self.p = l.size
        self.R = int(R)

    def _s(self, r, z, y):
        g = 1.0 + np.asarray(z, dtype=float)
        if np.any(g <= 0):
            raise DomainError("deformation gradient g = 1 + z must be positive")
        return r * g / self.l[np.asarray(y) % self.p]

    def eval(self, r, z, y):
        s = self._s(r, z, y)
        s6 = s ** -6
        return -2.0 * s6 + s6 * s6

    def d1(self, r, z, y):
        ly = self.l[np.asarray(y) % self.p]
        s = self._s(r, z, y)
        return (12.0 * r / ly) * (s ** -7 - s ** -13)

    def d2(self, r, z, y):
        ly = self.l[np.asarray(y) % self.p]
        s = self._s(r, z, y)
        return (r / ly) ** 2 * (-84.0 * s ** -8 + 156.0 * s ** -14)

    def admissible(self, r, z, y):
        return np.asarray(1.0 + np.asarray(z, dtype=float) > 0)


class QuadraticFamily(PotentialFamily):
    """Nearest-neighbor harmonic law 0.5 k_y (z - a_y)^2, zero for r >= 2.

    Everywhere admissible; an analytic fixture for the nonlinear machinery.
    """

    def __init__(self, k, a, R: int = 1):
        k = np.asarray(k, dtype=float)
        a = np.asarray(a, dtype=float)
        if k.shape != a.shape or k.ndim != 1:
            raise ValueError("k and a must be 1-d sequences of equal length")
        if np.any(k <= 0):
            raise ValueError("stiffnesses must be positive")
        self.k = k
        self.a = a
        self.p = k.size
        self.R = int(R)

    def eval(self, r, z, y):
        z = np.asarray(z, dtype=float)
        if r != 1:
            return np.zeros(np.broadcast(z, np.asarray(y)).shape)
        yy = np.asarray(y) % self.p
        return 0.5 * self.k[yy] * (z - self.a[yy]) ** 2

    def d1(self, r, z, y):
        z = np.asarray(z, dtype=float)
        if r != 1:
            return np.zeros(np.broadcast(z, np.asarray(y)).shape)
        yy = np.asarray(y) % self.p
        return self.k[yy] * (z - self.a[yy])

    def d2(self, r, z, y):
        z = np.asarray(z, dtype=float)
        if r != 1:
            return np.zeros(np.broadcast(z, np.asarray(y)).shape)
        return self.k[np.asarray(y) % self.p] * np.ones_like(z)

    def admissible(self, r, z, y):
        return np.ones(np.broadcast(np.asarray(z), np.asarray(y)).shape, dtype=bool)


def lj_family(l, R: int) -> LennardJonesFamily:
    """Lennard-Jones family with p-periodic equilibrium distances l."""
    return LennardJonesFamily(l, R)


def quadratic_family(k, a, R: int = 1) -> QuadraticFamily:
    """Harmonic nearest-neighbor family with stiffness k_y and offsets a_y."""
    return QuadraticFamily(k, a, R)


@dataclass(frozen=True)
class Microstructure:
    """Ground microstructure chi_* of the unloaded chain (zero mean)."""

    chi_star: MicroFn

    @property
    def p(self) -> int:
        return self.chi_star.p


def ramp_guess(family: PotentialFamily) -> np.ndarray:
    """Zero-mean micro field whose increments follow the equilibrium spacings.

    For families with an l-pattern, D chi(y) = l_y / <l> - 1; otherwise zeros.
    """
    p = family.p
    l = getattr(family, "l", None)
    if l is None:
        return np.zeros(p)
    incr = l / l.mean() - 1.0
    chi = np.concatenate([[0.0], np.cumsum(incr[:-1])])
    return chi - chi.mean()


def validate_microstructure(chi: np.ndarray, where: str = "microstructure") -> None:
    """Check that y + chi(y) is strictly increasing and |chi| <= (p-1)/2."""
    p = chi.size
    d = np.roll(chi, -1) - chi  # unit-spacing forward difference
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


def ground_microstructure(
    family: PotentialFamily,
    tol: float = GROUND_TOL,
    max_iter: int = 60,
    damping_max: int = 30,
) -> Microstructure:
    """Solve the unloaded micro system for the zero-mean ground field chi_*.

    Newton iteration on the (p-1)-dimensional zero-mean space, started from
    zero (or from the equilibrium-spacing ramp when zero is inadmissible).
    The result is validated: the micro deformation must be strictly
    increasing and ||chi_*||_inf <= (p-1)/2; violations raise
    :class:`StabilityError`.
    """
    from .microhom import newton_cells

    p = family.p
    if p == 1:
        return Microstructure(MicroFn(1, np.zeros(1)))
    guess = np.zeros(p)
    ok = all(
        bool(np.all(family.admissible(r, (np.roll(guess, -r) - guess) / r, np.arange(p))))
        for r in range(1, family.R + 1)
    )
    if not ok:
        guess = ramp_guess(family)
    chi, _res, _iters = newton_cells(
        family, np.zeros(1), guess[None, :], tol, max_iter, damping_max
    )
    validate_microstructure(chi[0], "ground microstructure")
    return Microstructure(MicroFn(p, chi[0]))


def nn_dominance_margin(family: PotentialFamily, micro: Microstructure) -> float:
    """Stability margin: half the least nearest-neighbor curvature minus the
    summed worst-case curvature magnitudes of all farther shells, evaluated
    at the ground microstructure.  A positive value certifies dominance of
    the nearest-neighbor interaction."""
    p = micro.p
    y = np.arange(p)
    chi = micro.chi_star.values
    args = {r: (np.roll(chi, -r) - chi) / r for r in range(1, family.R + 1)}
    for r, a in args.items():
        if not np.all(family.admissible(r, a, y)):
            raise DomainError(f"inadmissible micro argument for shell r={r}")
    margin = 0.5 * float(family.d2(1, args[1], y).min())
    for r in range(2, family.R + 1):
        margin -= float(np.abs(family.d2(r, args[r], y)).max())
    return margin
