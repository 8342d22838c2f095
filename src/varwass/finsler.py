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

A curve's segments are measured a block of them at a time: quotients,
momenta, velocities and norms are (K, n) stacks, and each block's norms take
one call of the shared root finder. A single tangent vector or segment is
the one-row case.

The slope side of the energy-dissipation balance lives here too: the cell
slope of G'(rho), the dissipation rate, and dissipation_check, which takes
every state's energy and rate from blocks of rows of the (K, n) masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pde
from .energy import EnergyModel
from .errors import (BoundaryFluxError, InvalidDensityError, NonzeroMeanError,
                     SampleIndexError, SizeMismatchError, VanishingDensityError)
from .grid import Grid, gradient, neighbor_mean
from .varexp import (DensityField, ExponentField, Trajectory, _by_blocks, _masses_on,
                     _norm_rows, conjugate, luxemburg_norm)

#: Tolerance on the integral of a tangent vector.
MEAN_TOL = 1e-12

#: Faces with averaged density at or below this must carry no flux.
DENSITY_FLOOR = 1e-13


@dataclass(frozen=True)
class TangentVector:
    """Zero-mean rate of change of a density, as cell values.

    The zero-mean check of min_norm_velocity is relative to
    max(1, sum |nu| dx). metric_derivative measures the difference quotient
    of two states, with a check that follows their masses (_speeds).
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidDensityError("tangent values must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise InvalidDensityError("tangent values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VelocityField:
    """Face velocities with vanishing boundary entries."""

    v_face: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v_face, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise SizeMismatchError(
                "face velocities must be a 1-D array of length >= 3")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise BoundaryFluxError(
                f"boundary velocities must vanish, got {v[0]} and {v[-1]}"
            )
        object.__setattr__(self, "v_face", v)


def _velocities(mass: np.ndarray, nu: np.ndarray, mean_scale, g: Grid) -> np.ndarray:
    """Minimal face velocities (K, n + 1) of K rows of cell masses and tangents.

    Row k of nu must integrate to 0 within MEAN_TOL * mean_scale[k] and push
    no flux through a face whose averaged density is at most DENSITY_FLOOR.
    """
    total = nu.sum(axis=1) * g.dx
    off = np.abs(total) > MEAN_TOL * mean_scale
    if off.any():
        raise NonzeroMeanError(
            f"tangent vector integrates to {float(total[off][0])!r}, not 0"
        )
    interior_flux = -np.cumsum(nu[:, :-1], axis=1) * g.dx
    interior_rho = neighbor_mean(mass / g.dx)
    dead = interior_rho <= DENSITY_FLOOR
    flux_scale = np.maximum(1.0, np.abs(interior_flux).max(axis=1, initial=0.0))
    if np.any(dead & (np.abs(interior_flux) > 1e-13 * flux_scale[:, None])):
        raise VanishingDensityError(
            "tangent vector pushes flux through a face with vanishing density"
        )
    v = np.zeros((nu.shape[0], g.n_cells + 1))
    v[:, 1:-1] = np.where(dead, 0.0, interior_flux / np.where(dead, 1.0, interior_rho))
    return v


def min_norm_velocity(rho: DensityField, nu: TangentVector, g: Grid) -> VelocityField:
    """The unique velocity with -div(rho v) = nu and no boundary flux.

    Cumulative integration gives the face momentum
    (rho v)[i+1/2] = -sum_{j<=i} nu[j] dx; dividing by the face-averaged
    density yields v. Since the constraint set is this single point, it
    minimizes every velocity norm at once. Faces where the density vanishes
    must carry zero flux, otherwise no admissible velocity exists. nu must
    integrate to 0 within MEAN_TOL * max(1, sum |nu| dx).
    """
    values = g.check_cell_field(nu.values, "tangent values")
    scale = max(1.0, float(np.abs(values).sum() * g.dx))
    mass = g.check_cell_field(rho.mass, "mass")[None, :]
    return VelocityField(_velocities(mass, values[None, :], scale, g)[0])


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


def _speeds(before: np.ndarray, after: np.ndarray, dt: np.ndarray, p: ExponentField,
            g: Grid) -> np.ndarray:
    """Speeds F(rho^k, (rho^{k+1} - rho^k) / dt_k) of the segments from the
    rows of a (K, n) mass stack before to the same rows of after, dt_k
    apart, stacked.

    A quotient integrates to the mass difference of its states over dt, and
    DensityField lets masses differ by MASS_TOL, so its zero-mean check is
    relative to max(1, (m_k + m_{k+1}) / dt_k), which also bounds sum |nu| dx.
    """
    exponent = g.check_cell_field(p.values, "exponent field")
    nu = (after / g.dx - before / g.dx) / dt[:, None]
    if not np.isfinite(nu).all():
        raise InvalidDensityError("tangent values must be finite")
    scale = np.maximum(1.0, (before.sum(axis=1) + after.sum(axis=1)) / dt)
    v = _velocities(before, nu, scale, g)
    return _norm_rows(neighbor_mean(v), before, exponent)


def metric_derivative(traj: Trajectory, p: ExponentField, g: Grid, k: int) -> float:
    """Discrete speed F(rho^k, (rho^{k+1} - rho^k) / dt) at sample k."""
    if not 0 <= k < len(traj) - 1:
        raise SampleIndexError(
            f"sample index {k} out of range for a trajectory of {len(traj)} states"
        )
    mass = _masses_on(traj, g)
    return float(_speeds(mass[k:k + 1], mass[k + 1:k + 2], np.diff(traj.times[k:k + 2]),
                         p, g)[0])


def curve_length(traj: Trajectory, p: ExponentField, g: Grid) -> float:
    """Sum of speed * dt along a discrete trajectory (>= 2 states).

    The speeds are taken _BLOCK segments at a time (varexp._by_blocks), so a
    long run's temporaries stay small; each segment's norm is found on its
    own row, so they have the bits of the whole stack's speeds.
    """
    if len(traj) < 2:
        raise SizeMismatchError("curve length needs at least 2 states")
    mass, dt = _masses_on(traj, g), np.diff(traj.times)
    speeds = _by_blocks(lambda m0, m1, t: _speeds(m0, m1, t, p, g), mass[:-1], mass[1:], dt)
    return float(speeds @ dt)


def _cell_slope(mass: np.ndarray, e: EnergyModel, g: Grid) -> np.ndarray:
    """Face slopes of G'(rho), zero on the walls, averaged onto the cells,
    for one row of cell masses or for each row of a (K, n) stack."""
    return neighbor_mean(gradient(e.deriv(mass / g.dx), g))


def _rates(mass: np.ndarray, e: EnergyModel, p: ExponentField, g: Grid) -> np.ndarray:
    """Dissipation rates of the K rows of cell masses (K, n), stacked."""
    exponent = g.check_cell_field(p.values, "exponent field")
    rate = np.abs(_cell_slope(mass, e, g)) ** conjugate(p).values / exponent * (mass / g.dx)
    return rate.sum(axis=1) * g.dx


def dissipation_rate(rho: DensityField, e: EnergyModel, p: ExponentField,
                     g: Grid) -> float:
    """Integral of |grad G'(rho)|^q(x) / p(x) * rho, the step dissipation bound."""
    return float(_rates(g.check_cell_field(rho.mass, "mass")[None, :], e, p, g)[0])


@dataclass(frozen=True)
class DissipationReport:
    """Per-step and cumulative slack of the energy-dissipation inequality.

    per_step_slack[k] = (E(rho^k) - E(rho^{k+1})) - dt_k * dissipation_rate(rho^{k+1});
    cumulative_slack compares the total dissipation against the energy
    headroom E(rho_0) - |domain| G(M / |domain|). Nonnegative slacks (up to
    tolerance) are what the scheme promises. energies[k] = E(rho^k).
    """

    per_step_slack: np.ndarray
    worst_step_slack: float
    cumulative_slack: float
    total_dissipation: float
    energies: np.ndarray


def dissipation_check(traj: Trajectory, e: EnergyModel, p: ExponentField,
                      g: Grid) -> DissipationReport:
    """Dissipation slacks along traj, each interval with its own time step."""
    # _BLOCK states at a time; a one-state trajectory gives rates no rows
    mass = _masses_on(traj, g)
    energies = pde.energy_series(traj, e, g)
    dissipated = np.diff(traj.times) * _by_blocks(lambda m: _rates(m, e, p, g), mass[1:])
    slacks = (energies[:-1] - energies[1:]) - dissipated
    floor = g.length * float(e.value(np.asarray(float(mass[0].sum()) / g.length)))
    total_rate = float(np.sum(dissipated))
    return DissipationReport(
        per_step_slack=slacks,
        worst_step_slack=float(slacks.min()) if slacks.size else 0.0,
        cumulative_slack=float((energies[0] - floor) - total_rate),
        total_dissipation=total_rate,
        energies=energies,
    )
