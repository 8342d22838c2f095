"""Internal-energy integrands G and their Legendre transforms.

All callables are vectorized over numpy arrays and work on the domain
t >= 0. Derivative evaluations clamp their argument at RHO_FLOOR so the
entropy slope stays finite at vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid
from .varexp import DensityField

#: Densities are clamped here before slopes are taken.
RHO_FLOOR = 1e-12


@dataclass(frozen=True)
class EnergyModel:
    """Bundle of G, G', G'', the Legendre transform G*, and (G*)'.

    value(t)            -- G(t)
    deriv(t)            -- G'(t), argument clamped at RHO_FLOOR
    second(t)           -- G''(t)
    legendre(s)         -- G*(s) = sup_{t>=0} (s t - G(t))
    legendre_deriv(s)   -- (G*)'(s), the inverse of G' where defined
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]
    legendre: Callable[[np.ndarray], np.ndarray]
    legendre_deriv: Callable[[np.ndarray], np.ndarray]


def _clamp(t):
    return np.maximum(np.asarray(t, dtype=float), RHO_FLOOR)


def _entropy_deriv(t):
    return np.log(_clamp(t)) + 1.0


def builtin_energy(kind: str, m: float | None = None) -> EnergyModel:
    """Construct one of the builtin energies.

    kind="quadratic"  G(t) = t^2/2
    kind="entropy"    G(t) = t log t  (G(0) = 0)
    kind="power"      G(t) = t^m/(m-1), requires m > 1

    Unknown kinds, and a power energy without a finite m > 1, raise
    InvalidParameterError.
    """
    if kind == "quadratic":
        return EnergyModel(
            name="quadratic",
            value=lambda t: 0.5 * np.asarray(t, dtype=float) ** 2,
            deriv=lambda t: np.asarray(t, dtype=float),
            second=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            legendre=lambda s: 0.5 * np.maximum(np.asarray(s, dtype=float), 0.0) ** 2,
            legendre_deriv=lambda s: np.maximum(np.asarray(s, dtype=float), 0.0),
        )
    if kind == "entropy":
        def value(t):
            # log(1) = 0 makes G(0) = 0 without a second where; NaN stays NaN
            t = np.asarray(t, dtype=float)
            return t * np.log(np.where(t > 0.0, t, 1.0))

        return EnergyModel(
            name="entropy",
            value=value,
            deriv=_entropy_deriv,
            second=lambda t: 1.0 / _clamp(t),
            legendre=lambda s: np.exp(np.asarray(s, dtype=float) - 1.0),
            legendre_deriv=lambda s: np.exp(np.asarray(s, dtype=float) - 1.0),
        )
    if kind == "power":
        if m is None or not 1.0 < m < math.inf:
            raise InvalidParameterError(
                f"power energy needs a finite exponent m > 1, got {m}")
        m = float(m)
        # G'(t) = m t^(m-1)/(m-1); inverting gives (G*)'(s) = ((m-1)s/m)^(1/(m-1))
        # and G*(s) = ((m-1)s/m)^(m/(m-1)) on s >= 0.
        return EnergyModel(
            name=f"power({m})",
            value=lambda t: np.asarray(t, dtype=float) ** m / (m - 1.0),
            deriv=lambda t: m * _clamp(t) ** (m - 1.0) / (m - 1.0),
            second=lambda t: m * _clamp(t) ** (m - 2.0),
            legendre=lambda s: ((m - 1.0) * np.maximum(np.asarray(s, dtype=float), 0.0) / m)
            ** (m / (m - 1.0)),
            legendre_deriv=lambda s: ((m - 1.0) * np.maximum(np.asarray(s, dtype=float), 0.0) / m)
            ** (1.0 / (m - 1.0)),
        )
    raise InvalidParameterError(f"unknown energy kind {kind!r}")


def total_energy(rho: DensityField, e: EnergyModel, g: Grid) -> float:
    """Integral of G(rho) over the domain by midpoint quadrature.

    Convexity of G gives the discrete Jensen bound
    total_energy >= |domain| * G(total_mass / |domain|) exactly.
    """
    return float(_energies(g.check_cell_field(rho.mass, "mass"), e, g))


def _energies(mass: np.ndarray, e: EnergyModel, g: Grid) -> np.ndarray:
    """total_energy of one row of cell masses, or of each row of a (K, n) stack."""
    return e.value(mass / g.dx).sum(axis=-1) * g.dx
