"""Tangent-space geometry of the density manifold, one-dimensional case.

A tangent vector at rho is a zero-mean cell field nu, realized as
nu = -div(rho v) by a face velocity v. With no-flux boundary the momentum
rho*v is pinned down uniquely by cumulative integration, so the quotient
infimum over velocities collapses to a single candidate and the tangent norm
is simply the Luxemburg norm of that velocity, weighted by rho.

Consequences implemented here: the norm is exactly positively homogeneous
and subadditive (the flux map nu -> rho*v is linear), the gradient of the
internal energy is the negated spatial operator of the reference equation,
and lengths of discrete curves bound the transport distance from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pde
from .energy import EnergyModel
from .errors import NonzeroMeanError, VanishingDensityError
from .grid import Grid, integrate, neighbor_mean
from .jko import Trajectory
from .varexp import DensityField, ExponentField, luxemburg_norm

#: Tolerance on the integral of a tangent vector.
MEAN_TOL = 1e-12

#: Faces with averaged density at or below this must carry no flux.
DENSITY_FLOOR = 1e-13


@dataclass(frozen=True)
class TangentVector:
    """Zero-mean rate of change of a density, as cell values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("tangent values must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("tangent values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_states(cls, before: DensityField, after: DensityField, dt: float,
                    g: Grid) -> "TangentVector":
        """Difference quotient (after - before) / dt as cell density rates."""
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        return cls((after.density(g) - before.density(g)) / dt)


@dataclass(frozen=True)
class VelocityField:
    """Face velocities with vanishing boundary entries."""

    v_face: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v_face, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ValueError("face velocities must be a 1-D array of length >= 3")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError(
                f"boundary velocities must vanish, got {v[0]} and {v[-1]}"
            )
        object.__setattr__(self, "v_face", v)


def _check_zero_mean(nu: TangentVector, g: Grid) -> np.ndarray:
    values = g.check_cell_field(nu.values, "tangent values")
    total = integrate(values, g)
    scale = max(1.0, float(np.abs(values).sum() * g.dx))
    if abs(total) > MEAN_TOL * scale:
        raise NonzeroMeanError(
            f"tangent vector integrates to {total!r}, not 0"
        )
    return values


def min_norm_velocity(rho: DensityField, nu: TangentVector, g: Grid) -> VelocityField:
    """The unique velocity with -div(rho v) = nu and no boundary flux.

    Cumulative integration gives the face momentum
    (rho v)[i+1/2] = -sum_{j<=i} nu[j] dx; dividing by the face-averaged
    density yields v. Since the constraint set is this single point, it
    minimizes every velocity norm at once. Faces where the density vanishes
    must carry zero flux, otherwise no admissible velocity exists.
    """
    values = _check_zero_mean(nu, g)
    interior_flux = -np.cumsum(values[:-1]) * g.dx
    interior_rho = neighbor_mean(rho.density(g))
    v = np.zeros(g.n_cells + 1)
    dead = interior_rho <= DENSITY_FLOOR
    flux_scale = max(1.0, float(np.abs(interior_flux).max(initial=0.0)))
    if np.any(dead & (np.abs(interior_flux) > 1e-13 * flux_scale)):
        raise VanishingDensityError(
            "tangent vector pushes flux through a face with vanishing density"
        )
    live = ~dead
    v[1:-1][live] = interior_flux[live] / interior_rho[live]
    return VelocityField(v)


def tangent_norm(rho: DensityField, nu: TangentVector, p: ExponentField,
                 g: Grid) -> float:
    """Luxemburg norm of the minimal velocity, weighted by rho.

    Face velocities are averaged back to cells so the norm, the density, and
    the exponent all live on the same index set.
    """
    v = min_norm_velocity(rho, nu, g).v_face
    return luxemburg_norm(neighbor_mean(v), rho, p, g)


def finsler_gradient(rho: DensityField, e: EnergyModel, q: ExponentField,
                     g: Grid) -> TangentVector:
    """Gradient of the internal energy in the tangent-space geometry.

    Entrywise the negation of the reference operator pde.rhs, so the descent
    direction of the energy is exactly the flow direction of the equation.
    """
    return TangentVector(-pde.rhs(rho, e, q, g))


def metric_derivative(traj: Trajectory, p: ExponentField, g: Grid, k: int) -> float:
    """Discrete speed F(rho^k, (rho^{k+1} - rho^k) / dt) at sample k."""
    if not 0 <= k < len(traj) - 1:
        raise IndexError(
            f"sample index {k} out of range for a trajectory of {len(traj)} states"
        )
    dt = float(traj.times[k + 1] - traj.times[k])
    nu = TangentVector.from_states(traj.states[k], traj.states[k + 1], dt, g)
    return tangent_norm(traj.states[k], nu, p, g)


def curve_length(traj: Trajectory, p: ExponentField, g: Grid) -> float:
    """Sum of speed * dt along a discrete trajectory (>= 2 states)."""
    if len(traj) < 2:
        raise ValueError("curve length needs at least 2 states")
    total = 0.0
    for k in range(len(traj) - 1):
        dt = float(traj.times[k + 1] - traj.times[k])
        total += metric_derivative(traj, p, g, k) * dt
    return total
