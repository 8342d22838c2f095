"""Explicit finite-volume solver for the weighted q(x)-Laplacian flow.

The equation is d(rho)/dt = div(rho |grad G'(rho)|^(q(x)-2) grad G'(rho))
with no-flux boundary. Fluxes live on faces, densities on cells, and the
gradient magnitude is regularized by (|s|^2 + delta^2)^((q-2)/2), with
delta = DELTA_REG, so that exponents below 2 stay finite at critical points.

Deliberately plain: explicit Euler, with dt at a face bound that makes
each step a positive average of the old densities. Each face flux is
K_f (rho_{i+1} - rho_i) / dx with
K_f = rho_f (s_f^2 + delta^2)^((q_f-2)/2) (G'(rho_{i+1}) - G'(rho_i))
/ (rho_{i+1} - rho_i), which is >= 0 for a convex G, so a step of
dt <= dx^2 / max_i (K_{i-1/2} + K_{i+1/2}) keeps positivity, the maximum
principle and a non-increasing energy (Carrillo, Chertock & Huang,
Commun. Comput. Phys. 2015). This module is the slow, transparent
reference the step scheme is checked against, not a production
integrator; ``solve`` says what it builds once per solve and how it
records its states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, _energies, total_energy  # perfbench traces pde.total_energy
from .errors import (InvalidParameterError, NumericalBlowupError, SizeMismatchError,
                     check_count, check_nonnegative, check_positive)
from .grid import Grid, neighbor_mean
from .varexp import (DensityField, ExponentField, Trajectory, _by_blocks, _masses_on,
                     _put_row)

#: Regularization delta of the gradient magnitude in the flux.
DELTA_REG = 1e-8

#: Densities above this abort the run as a blow-up.
BLOWUP_DENSITY = 1e6

#: solve raises NumericalBlowupError rather than take more Euler steps.
MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class PdeConfig:
    """Run settings of the reference solver.

    t_end is the time to march to. cfl is the fraction of the positivity
    bound of the module docstring that each step takes, in (0, 1]; each
    such step keeps a convex G's invariants. Every stride-th Euler step is
    recorded, and the last one always is. fixed_dt, when set, replaces the
    adaptive step and must respect the bound at every step. The flux
    regularization DELTA_REG and the step budget MAX_STEPS are module
    constants.
    """

    t_end: float
    cfl: float = 1.0
    stride: int = 1
    fixed_dt: float | None = None

    def __post_init__(self):
        check_nonnegative(self.t_end, "t_end")
        if not 0.0 < self.cfl <= 1.0:
            raise InvalidParameterError(f"cfl must lie in (0, 1], got {self.cfl}")
        check_count(self.stride, "stride")
        if self.fixed_dt is not None:
            check_positive(self.fixed_dt, "fixed_dt")


class _Faces:
    """The face inputs of rhs for one exponent field, and its buffers.

    One zero-padded buffer holds the face slopes of G'(rho),
    [0 | interior face slopes (n-1) | 0], so that one square, one add of
    delta^2 and one power by the padded exponent [0 | (q_f-2)/2 | 0] give
    the face factor (s^2 + delta^2)^((q_f-2)/2), which is 1 on the walls.
    The exponent, delta^2 and the buffers are fixed through a solve. The
    caller writes the density into rv, then load()s G'(rho), which also
    weights the interior factors by rho_f; bound() reads solve's step
    bound from them, and rate() returns its own buffer, which the next
    call overwrites.
    """

    __slots__ = ("dx", "reg2", "half_q", "stack", "mag", "dgp", "rho_f", "drho", "flat",
                 "k", "k_sum", "out", "_load_views", "_bound_views", "_rate_views")

    def __init__(self, q_values: np.ndarray, dx: float, rv: np.ndarray):
        n = q_values.size
        self.dx = dx
        self.reg2 = DELTA_REG * DELTA_REG
        self.half_q = np.zeros(n + 1)
        self.half_q[1:n] = (neighbor_mean(q_values) - 2.0) / 2.0
        self.stack = np.zeros(n + 1)
        self.mag = np.empty(n + 1)
        self.dgp = np.empty(n - 1)
        self.rho_f = np.empty(n - 1)
        self.drho = np.empty(n - 1)
        self.flat = np.empty(n - 1, dtype=bool)
        self.k = np.zeros(n + 1)
        self.k_sum = np.empty(n)
        self.out = np.empty(n)
        stack, mag, k = self.stack, self.mag, self.k
        # the slices load(), bound() and rate() work on, taken once: a view
        # costs as much as a small ufunc call
        self._load_views = (stack[1:n], rv[:-1], rv[1:], mag[1:n])
        self._bound_views = (rv[:-1], rv[1:], mag[1:n], k[1:n], k[:n], k[1:])
        self._rate_views = (mag[1:], mag[:n])

    def load(self, gp: np.ndarray) -> None:
        """From gp = G'(rho) and rv, fill the slopes and the face weights
        rho_f (s^2 + reg2)^half_q, in place."""
        s, rv_left, rv_right, mag_inner = self._load_views
        dgp, rho_f, mag = self.dgp, self.rho_f, self.mag
        np.subtract(gp[1:], gp[:-1], out=dgp)
        np.divide(dgp, self.dx, out=s)
        np.multiply(self.stack, self.stack, out=mag)
        mag += self.reg2
        np.power(mag, self.half_q, out=mag)
        np.add(rv_left, rv_right, out=rho_f)
        rho_f *= 0.5
        mag_inner *= rho_f

    def bound(self) -> float:
        """max_i (K_{i-1/2} + K_{i+1/2}) for the loaded state: K_f is the
        face weight times (G'(rho_{i+1}) - G'(rho_i)) / (rho_{i+1} - rho_i)
        on interior faces, and 0 on the walls and where rho_{i+1} == rho_i."""
        rv_left, rv_right, weight, k_inner, k_left, k_right = self._bound_views
        drho, flat = self.drho, self.flat
        np.subtract(rv_right, rv_left, out=drho)
        # a flat face has a flat G' too, so its quotient reads 0 / 1 = 0
        np.equal(drho, 0.0, out=flat)
        drho += flat
        np.multiply(weight, self.dgp, out=k_inner)
        k_inner /= drho
        np.add(k_left, k_right, out=self.k_sum)
        return float(np.maximum.reduce(self.k_sum))

    def rate(self) -> np.ndarray:
        """divergence(flux), flux = rho_f (s^2 + reg2)^half_q s on the
        interior faces: the operations, in the order, of the plain formula.
        The boundary faces power to 1 and take slope 0, so their flux is 0."""
        flux_right, flux_left = self._rate_views
        flux, out = self.mag, self.out
        flux *= self.stack
        np.subtract(flux_right, flux_left, out=out)
        out /= self.dx
        return out


def rhs(rho: DensityField, e: EnergyModel, q: ExponentField, g: Grid, *,
        _faces: _Faces | None = None) -> np.ndarray:
    """Spatial operator div(rho |grad G'(rho)|^(q-2) grad G'(rho)) on cells.

    q must be the conjugate of the transport exponent p. Face values of rho
    and q are arithmetic means; boundary fluxes vanish identically, so the
    result integrates to exactly zero. The gradient magnitude is
    regularized by DELTA_REG, read at call time.

    _faces is solve's private path: face inputs it has already loaded for
    rho (density, slope, face exponent, delta^2), which this call uses in
    place of rho, q and DELTA_REG. The result then lives in a buffer that
    solve's next step overwrites. Either path returns the same bits.
    """
    if _faces is None:
        rv = rho.density(g)
        _faces = _Faces(g.check_cell_field(q.values, "exponent field"), g.dx, rv)
        _faces.load(e.deriv(rv))
    return _faces.rate()


@np.errstate(over="ignore", invalid="ignore")
def solve(rho0: DensityField, e: EnergyModel, q: ExponentField, cfg: PdeConfig,
          g: Grid) -> Trajectory:
    """March rho0 to cfg.t_end with explicit Euler steps.

    dt is cfl times the positivity bound of the module docstring, with
    K_f = 0 on the walls and on faces where rho_{i+1} == rho_i (such a face
    moves no mass), unless cfg.fixed_dt pins it (useful for comparing two
    runs on identical time samples; a fixed dt above the bound raises
    before the step it would take). When no K_f is positive, as for an
    energy whose G' decreases, the bound allows any dt, and the density
    guards are what catch the run. A dt so small that t + dt == t raises
    NumericalBlowupError before that step, as its update would move the
    masses but not the time; so does a bound that overflows, as dt is then 0.
    The solve silences overflow, since that check and the density guards
    read what it produces.
    Recorded states are renormalized to the initial total mass, hiding
    only rounding-level drift; the raw drift is observable through the
    returned times and the per-step mass balance, which telescopes exactly.

    Built once per solve, before the loop: the padded face exponent
    [0 | (q_f-2)/2 | 0] and the buffers of _Faces, delta^2, cfl * dx^2,
    the stop time, and one DensityField around the loop's masses m
    (validated once; the guards keep m finite and nonnegative after every
    step). Each Euler step divides m by dx once, evaluates G'(rho) once,
    loads the face slopes and face weights rho_f (s^2+delta^2)^((q_f-2)/2)
    and reads the bound from them; the module's rhs, called exactly once
    per step with the loaded face inputs through the private _faces
    keyword, turns them into the flux. It is looked up as a module
    attribute each time, so a wrapper installed on pde.rhs sees every step.
    m is updated in place, so len(traj) - 1 steps at stride 1 mean as many
    rhs calls.

    A recorded step writes m into the next row of the trajectory's (K, n)
    mass stack, after rho0's row; the stack grows in place (_put_row). When
    the loop ends, the recorded rows are rescaled in place by total0 /
    their row sums (the bits of m * (total0 / m.sum())), and the trajectory
    takes the stack over and checks it, so a bad state raises, as
    DensityField would, once the loop has ended. rho0.mass is never written.
    """
    m = g.check_cell_field(rho0.mass, "initial mass").copy()
    q_values = g.check_cell_field(q.values, "exponent field")
    total0 = m.sum()
    rho = DensityField(m, require_unit_mass=False)
    times = [0.0]
    stack = np.empty((16, m.size))
    stack[0] = m
    t = 0.0
    step = 0
    t_final = cfg.t_end
    t_stop = t_final - 1e-15 * max(1.0, t_final)
    dx = g.dx
    dt_scale = cfg.cfl * dx**2
    rv = np.empty_like(m)
    faces = _Faces(q_values, dx, rv)
    inc = np.empty_like(m)

    while t < t_stop:
        np.divide(m, dx, out=rv)
        faces.load(e.deriv(rv))
        k_max = faces.bound()
        dt_stable = dt_scale / k_max if k_max > 0.0 else math.inf
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
        t_next = t + dt
        if t_next == t:
            raise NumericalBlowupError(
                f"time step dt={dt:.3e} does not advance t={t:.6g}: the step "
                "bound fell below the resolution of t"
            )
        rate = rhs(rho, e, q, g, _faces=faces)
        # the bits of m + dt * rate * dx: (dt * rate) * dx, then the sum
        np.multiply(rate, dt, out=inc)
        inc *= dx
        m += inc
        t = t_next
        step += 1
        if step > MAX_STEPS:
            raise NumericalBlowupError(
                f"step budget {MAX_STEPS} exhausted at t={t:.6g}"
            )
        # a NaN reaches lo, -inf lo and +inf hi; hi / dx has the bits of
        # (m / dx).max() because division is monotone
        hi = np.maximum.reduce(m)
        lo = np.minimum.reduce(m)
        if not (math.isfinite(lo) and hi / dx <= BLOWUP_DENSITY):
            # fmax skips NaN as nanmax does, but does not warn when all are NaN
            raise NumericalBlowupError(
                f"density blew up at t={t:.6g} (max {np.fmax.reduce(m) / dx:.3e})"
            )
        if lo < -1e-12:
            raise NumericalBlowupError(
                f"density went negative at t={t:.6g} (min {lo:.3e}); "
                "the explicit step lost monotonicity"
            )
        # also at lo == 0, so -0.0 entries become +0.0 as well; with lo > 0
        # it would leave every bit as it is
        if not lo > 0.0:
            np.maximum(m, 0.0, out=m)
        if step % cfg.stride == 0 or t >= t_stop:
            _put_row(stack, len(times), m)
            times.append(t)

    k = len(times)
    # stack[1:k].sum(axis=1) has the bits of each row's own sum
    stack[1:k] *= (total0 / stack[1:k].sum(axis=1))[:, None]
    return Trajectory._of_stack(np.asarray(times), stack, rho0.require_unit_mass)


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
    """Evaluate t -> integral of (rho1 - rho2)^+ on matched time samples,
    _BLOCK states at a time."""
    if len(traj1) != len(traj2):
        raise SizeMismatchError(
            f"trajectories have {len(traj1)} and {len(traj2)} samples"
        )
    if np.max(np.abs(traj1.times - traj2.times)) > 1e-12 * max(1.0, traj1.times[-1]):
        raise InvalidParameterError("trajectories are sampled at different times")
    dx = g.dx
    pos = _by_blocks(lambda m1, m2: np.maximum(m1 / dx - m2 / dx, 0.0).sum(axis=1) * dx,
                     _masses_on(traj1, g), _masses_on(traj2, g))
    worst = float(np.diff(pos).max()) if pos.size > 1 else 0.0
    return ComparisonReport(
        times=traj1.times.copy(),
        positive_part=pos,
        worst_increase=worst,
        max_positive_part=float(pos.max()),
    )


def energy_series(traj: Trajectory, e: EnergyModel, g: Grid) -> np.ndarray:
    """Total energy at each recorded state, each with the bits of total_energy,
    _BLOCK states at a time."""
    return _by_blocks(lambda m: _energies(m, e, g), _masses_on(traj, g))
