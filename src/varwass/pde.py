"""Explicit finite-volume solver for the weighted q(x)-Laplacian flow.

The equation is d(rho)/dt = div(rho |grad G'(rho)|^(q(x)-2) grad G'(rho))
with no-flux boundary. Fluxes live on faces, densities on cells, and the
gradient magnitude is regularized by (|s|^2 + delta^2)^((q-2)/2) so that
exponents below 2 stay finite at critical points.

Deliberately plain: explicit Euler with a diffusive stability bound on dt.
This module is the slow, transparent reference the step scheme is checked
against, not a production integrator. ``solve`` computes what stays fixed
through a solve once, before its loop, and calls ``rhs`` exactly once per
Euler step, looked up as a module attribute each time, so a wrapper
installed on ``pde.rhs`` sees every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, total_energy
from .errors import NumericalBlowupError, SizeMismatchError
from .grid import Grid, divergence, neighbor_mean
from .jko import Trajectory
from .varexp import DensityField, ExponentField

#: Default regularization of the gradient magnitude.
DELTA_REG = 1e-8

#: Densities above this abort the run as a blow-up.
BLOWUP_DENSITY = 1e6


@dataclass(frozen=True)
class PdeConfig:
    """Run settings of the reference solver.

    t_end is the time to march to. cfl scales the stable step
    dx^2 / max diffusivity and must lie in (0, 1]; delta_reg regularizes the
    gradient magnitude in the flux. Every stride-th Euler step is recorded,
    and the last one always is. fixed_dt, when set, replaces the adaptive
    step and must respect the stability bound. More than max_steps Euler
    steps raise NumericalBlowupError.
    """

    t_end: float
    cfl: float = 0.5
    delta_reg: float = DELTA_REG
    stride: int = 1
    fixed_dt: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (math.isfinite(self.delta_reg) and self.delta_reg >= 0.0):
            raise ValueError(
                f"delta_reg must be nonnegative and finite, got {self.delta_reg}")
        if not self.stride >= 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        if self.fixed_dt is not None and not (math.isfinite(self.fixed_dt)
                                              and self.fixed_dt > 0.0):
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


def rhs(rho: DensityField, e: EnergyModel, q: ExponentField, g: Grid,
        delta_reg: float = DELTA_REG) -> np.ndarray:
    """Spatial operator div(rho |grad G'(rho)|^(q-2) grad G'(rho)) on cells.

    q must be the conjugate of the transport exponent p. Face values of rho
    and q are arithmetic means; boundary fluxes vanish identically, so the
    result integrates to exactly zero.
    """
    rv = rho.density(g)
    g.check_cell_field(q.values, "exponent field")
    gp = e.deriv(rv)
    s = (gp[1:] - gp[:-1]) / g.dx
    flux = np.zeros(g.n_cells + 1)
    flux[1:-1] = (neighbor_mean(rv) * (s * s + delta_reg * delta_reg)
                  ** ((neighbor_mean(q.values) - 2.0) / 2.0) * s)
    return divergence(flux, g)


def solve(rho0: DensityField, e: EnergyModel, q: ExponentField, cfg: PdeConfig,
          g: Grid) -> Trajectory:
    """March rho0 to cfg.t_end with explicit Euler steps.

    dt is cfl * dx^2 / max diffusivity unless cfg.fixed_dt pins it (useful
    for comparing two runs on identical time samples; a fixed dt that
    violates the stability bound raises immediately). The diffusivity is
    the cellwise rho (|s|^2+delta^2)^((q-2)/2) G''(rho), s being the face
    slope of G'(rho) averaged onto cells. Recorded states are renormalized
    to the initial total mass, hiding only rounding-level drift; the raw
    drift is observable through the returned times and the per-step mass
    balance, which telescopes exactly.

    Whatever stays fixed through the solve is computed once before the
    loop: (q-2)/2, delta^2, cfl * dx^2, the stop time and the zero-ended
    face buffer of the slope. Each Euler step then calls the module's rhs
    exactly once, so len(traj) - 1 steps at stride 1 mean as many rhs calls.
    """
    m = g.check_cell_field(rho0.mass, "initial mass").copy()
    total0 = m.sum()
    unit = rho0.require_unit_mass
    times = [0.0]
    states = [rho0]
    t = 0.0
    step = 0
    t_final = cfg.t_end
    t_stop = t_final - 1e-15 * max(1.0, t_final)
    dt_floor = 1e-30
    dx = g.dx
    dt_scale = cfg.cfl * dx**2
    half_q = (q.values - 2.0) / 2.0
    reg2 = cfg.delta_reg * cfg.delta_reg
    slope = np.zeros(g.n_cells + 1)

    while t < t_stop:
        rv = m / dx
        gp = e.deriv(rv)
        slope[1:-1] = (gp[1:] - gp[:-1]) / dx
        s_cell = 0.5 * (slope[:-1] + slope[1:])
        d_max = float((rv * (s_cell * s_cell + reg2) ** half_q * e.second(rv)).max())
        dt_stable = dt_scale / max(d_max, dt_floor) if d_max > 0.0 else np.inf
        if cfg.fixed_dt is not None:
            if cfg.fixed_dt > dt_stable * (1.0 + 1e-9):
                raise NumericalBlowupError(
                    f"fixed_dt={cfg.fixed_dt} exceeds the stability bound "
                    f"{dt_stable:.3e} at t={t:.6g}"
                )
            dt = cfg.fixed_dt
        else:
            dt = dt_stable
        dt = min(dt, t_final - t)
        if not math.isfinite(dt) or dt <= 0.0:
            break
        rate = rhs(DensityField(m, require_unit_mass=False), e, q, g, cfg.delta_reg)
        m = m + dt * rate * dx
        t += dt
        step += 1
        if step > cfg.max_steps:
            raise NumericalBlowupError(
                f"step budget {cfg.max_steps} exhausted at t={t:.6g}"
            )
        # m.max() / dx has the bits of (m / dx).max(): division is monotone
        if not np.isfinite(m).all() or m.max() / dx > BLOWUP_DENSITY:
            raise NumericalBlowupError(
                f"density blew up at t={t:.6g} (max {np.nanmax(m) / dx:.3e})"
            )
        if m.min() < -1e-12:
            raise NumericalBlowupError(
                f"density went negative at t={t:.6g} (min {m.min():.3e}); "
                "the explicit step lost monotonicity"
            )
        m = np.maximum(m, 0.0)
        if step % cfg.stride == 0 or t >= t_stop:
            rec = m * (total0 / m.sum())
            times.append(t)
            states.append(DensityField(rec, require_unit_mass=unit))

    return Trajectory(times=np.asarray(times), states=states, steps=None)


@dataclass(frozen=True)
class ComparisonReport:
    """Positive-part mismatch curve between two trajectories.

    positive_part[k] is the integral of (rho1 - rho2)^+ at sample k;
    worst_increase the largest rise between consecutive samples (a
    contraction property would keep it <= 0); max_positive_part the peak,
    which stays at rounding level when the initial data are ordered.
    """

    times: np.ndarray
    positive_part: np.ndarray
    worst_increase: float
    max_positive_part: float


def comparison_check(traj1: Trajectory, traj2: Trajectory, g: Grid) -> ComparisonReport:
    """Evaluate t -> integral of (rho1 - rho2)^+ on matched time samples."""
    if len(traj1) != len(traj2):
        raise SizeMismatchError(
            f"trajectories have {len(traj1)} and {len(traj2)} samples"
        )
    if np.max(np.abs(traj1.times - traj2.times)) > 1e-12 * max(1.0, traj1.times[-1]):
        raise ValueError("trajectories are sampled at different times")
    pos = np.empty(len(traj1))
    for k in range(len(traj1)):
        diff = traj1.states[k].density(g) - traj2.states[k].density(g)
        pos[k] = np.maximum(diff, 0.0).sum() * g.dx
    worst = float(np.diff(pos).max()) if pos.size > 1 else 0.0
    return ComparisonReport(
        times=traj1.times.copy(),
        positive_part=pos,
        worst_increase=worst,
        max_positive_part=float(pos.max()),
    )


def energy_series(traj: Trajectory, e: EnergyModel, g: Grid) -> np.ndarray:
    """Total energy at each recorded state."""
    return np.asarray([total_energy(s, e, g) for s in traj.states])
