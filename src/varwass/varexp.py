"""Variable exponents, discrete densities, and the Luxemburg norm.

A cell field u is measured against a density rho and an exponent field p
through the modular

    modular(u, rho, p, lam) = sum_i |u[i] / lam|^p[i] * rho[i] * dx,

and the Luxemburg norm is the unique lam > 0 at which the modular equals 1
(0 for u vanishing on the support of rho). With constant p this reduces to
the usual weighted p-norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExponentRangeError, NonpositiveParameterError, SizeMismatchError
from .grid import Grid

#: Below this, a density value counts as zero support for norm purposes.
SUPPORT_FLOOR = 0.0

#: Relative tolerance of the Luxemburg bisection.
NORM_RTOL = 1e-12

#: Probability masses may deviate from 1 by at most this much.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class ExponentField:
    """Cellwise exponent p with bounds 1 < p_minus <= p_plus < inf.

    The bounds are computed on construction and violating them raises
    ExponentRangeError, so an ExponentField in hand is always admissible.
    """

    values: np.ndarray
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ExponentRangeError("exponent field must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ExponentRangeError("exponent field must be finite")
        pmin, pmax = float(v.min()), float(v.max())
        if pmin <= 1.0:
            raise ExponentRangeError(
                f"exponents must satisfy p > 1 everywhere, got min {pmin}"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "p_minus", pmin)
        object.__setattr__(self, "p_plus", pmax)

    @classmethod
    def constant(cls, value: float, n_cells: int) -> "ExponentField":
        return cls(np.full(n_cells, float(value)))

    @classmethod
    def affine(cls, p0: float, p1: float, g: Grid) -> "ExponentField":
        """Exponent ramp p(x) = p0 + p1 * x evaluated at cell centers."""
        return cls(p0 + p1 * g.centers)

    def conjugate(self) -> "ExponentField":
        return conjugate(self)


def conjugate(p: ExponentField) -> ExponentField:
    """Pointwise conjugate exponent q = p / (p - 1).

    Swaps the bounds: q_minus = p_plus / (p_plus - 1) and vice versa, and
    conjugate(conjugate(p)) recovers p to rounding.
    """
    return ExponentField(p.values / (p.values - 1.0))


@dataclass(frozen=True)
class DensityField:
    """Nonnegative cell masses, by default a probability vector.

    mass[i] is the mass carried by cell i; the density value on a grid g is
    mass[i] / g.dx. With require_unit_mass=False the unit-sum check is
    skipped (needed for supersolution comparisons); nonnegativity and
    finiteness are always enforced.
    """

    mass: np.ndarray
    require_unit_mass: bool = True

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("mass must be a nonempty 1-D array")
        if not np.isfinite(m).all():
            raise ValueError("mass must be finite")
        if (m < 0.0).any():
            raise ValueError(f"mass must be nonnegative, got min {m.min()}")
        if self.require_unit_mass and abs(m.sum() - 1.0) > MASS_TOL:
            raise ValueError(
                f"masses must sum to 1 within {MASS_TOL}, got {m.sum()!r}"
            )
        object.__setattr__(self, "mass", m)

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def density(self, g: Grid) -> np.ndarray:
        """Cell-center density values mass / dx."""
        g.check_cell_field(self.mass, "mass")
        return self.mass / g.dx

    @classmethod
    def from_masses(cls, mass, require_unit_mass: bool = True) -> "DensityField":
        return cls(np.asarray(mass, dtype=float), require_unit_mass)

    @classmethod
    def from_cell_values(cls, values, g: Grid) -> "DensityField":
        """Normalize nonnegative cell values into a probability density."""
        v = g.check_cell_field(np.asarray(values, dtype=float), "density values")
        if np.any(v < 0.0):
            raise ValueError("density values must be nonnegative")
        total = v.sum() * g.dx
        if total <= 0.0:
            raise ValueError("density values must carry positive total mass")
        return cls(v * g.dx / total)

    @classmethod
    def uniform(cls, g: Grid) -> "DensityField":
        return cls(np.full(g.n_cells, 1.0 / g.n_cells))

    @classmethod
    def cosine_bump(cls, g: Grid, amplitude: float = 0.5) -> "DensityField":
        """Normalized 1 + amplitude*cos(pi*(x-a)/(b-a)); needs |amplitude| < 1."""
        if abs(amplitude) >= 1.0:
            raise ValueError("cosine bump amplitude must lie in (-1, 1)")
        xi = (g.centers - g.a) / g.length
        return cls.from_cell_values(1.0 + amplitude * np.cos(np.pi * xi), g)

    @classmethod
    def gaussian(cls, g: Grid, center: float, width: float) -> "DensityField":
        if width <= 0.0:
            raise ValueError("gaussian width must be positive")
        v = np.exp(-0.5 * ((g.centers - center) / width) ** 2)
        return cls.from_cell_values(v, g)


def _check_shapes(u: np.ndarray, rho: DensityField, p: ExponentField, g: Grid):
    u = g.check_cell_field(u, "u")
    g.check_cell_field(rho.mass, "density mass")
    if p.values.shape != (g.n_cells,):
        raise SizeMismatchError(
            f"exponent field must have shape ({g.n_cells},), got {p.values.shape}"
        )
    return u


def modular(u: np.ndarray, rho: DensityField, p: ExponentField, lam: float, g: Grid) -> float:
    """Weighted modular sum_i |u[i]/lam|^p[i] * rho[i] * dx.

    Since rho[i] * dx is exactly the cell mass, the quadrature never touches
    dx explicitly. lam must be strictly positive.
    """
    u = _check_shapes(u, rho, p, g)
    if lam <= 0.0:
        raise NonpositiveParameterError(f"lambda must be positive, got {lam}")
    return float(np.sum(np.abs(u / lam) ** p.values * rho.mass))


def luxemburg_norm(u: np.ndarray, rho: DensityField, p: ExponentField, g: Grid) -> float:
    """Luxemburg norm of u in the rho-weighted variable-exponent space.

    Returns the unique lam with modular(u, rho, p, lam) == 1, located by
    bracketing and bisection to relative tolerance 1e-12, or 0.0 when u
    vanishes on the support of rho. Cells with zero mass never contribute,
    whatever u does there.
    """
    u = _check_shapes(u, rho, p, g)
    support = rho.mass > SUPPORT_FLOOR
    if not np.any(support & (u != 0.0)):
        return 0.0

    au = np.abs(u[support])
    pw = p.values[support]
    w = rho.mass[support]

    def mod(lam: float) -> float:
        return float(np.sum((au / lam) ** pw * w))

    # At lam0 = max|u| on the support every ratio is <= 1, so mod(lam0) <= 1:
    # lam0 is an upper bracket (possibly exactly the root).
    hi = float(au.max())
    mhi = mod(hi)
    if mhi == 1.0:
        return hi
    if mhi > 1.0:  # total mass < 1 cannot happen for probabilities, but stay safe
        lo = hi
        while mod(hi) > 1.0:
            hi *= 2.0
    else:
        lo = hi
        while mod(lo) < 1.0:
            lo *= 0.5
            if lo < 1e-300:
                # only reachable for pathological weights; treat as zero norm
                return 0.0
    # Invariant: mod(lo) >= 1 >= mod(hi), the modular is strictly decreasing.
    while hi - lo > NORM_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mod(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
