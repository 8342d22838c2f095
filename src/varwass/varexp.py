"""Variable exponents, discrete densities, trajectories, and the Luxemburg norm.

A cell field u is measured against a density rho and an exponent field p
through the modular

    modular(u, rho, p, lam) = sum_i |u[i] / lam|^p[i] * rho[i] * dx,

and the Luxemburg norm is the unique lam > 0 at which the modular equals 1
(0 for u vanishing on the support of rho). With constant p this reduces to
the usual weighted p-norm. _norm_rows solves for a stack of norms in log lam
with one call of the shared root finder.

Trajectory, the states of a flow at increasing times over one (K, n)
stack of their masses, lives beside the state types for every module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._kernels import bisect, logsumexp
from .errors import (ExponentRangeError, InvalidDensityError, InvalidParameterError,
                     SizeMismatchError, check_positive)
from .grid import Grid

#: Below this, a density value counts as zero support for norm purposes.
SUPPORT_FLOOR = 0.0

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


def conjugate(p: ExponentField) -> ExponentField:
    """Pointwise conjugate exponent q = p / (p - 1).

    Swaps the bounds: q_minus = p_plus / (p_plus - 1) and vice versa, and
    conjugate(conjugate(p)) recovers p to rounding.
    """
    return ExponentField(p.values / (p.values - 1.0))


def _check_masses(m: np.ndarray, require_unit_mass: bool) -> None:
    """Raise InvalidDensityError unless each row of m (along its last axis)
    holds finite, nonnegative masses with a finite total, summing to 1
    within MASS_TOL when require_unit_mass is set. A stack of rows raises
    what its first bad row would raise alone.

    Two reductions per row; min never warns, and the sum's overflow and
    inf - inf are silenced because the checks below read them.
    """
    lo = np.minimum.reduce(m, axis=-1)  # shows a NaN or -inf entry
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(m, axis=-1)
    # a NaN lo fails lo >= 0; a +inf entry, or a sum that overflows on
    # finite entries, makes the total infinite
    bad = ~(lo >= 0.0) | ~np.isfinite(total)
    if require_unit_mass:
        bad |= abs(total - 1.0) > MASS_TOL
    if not bad.any():
        return
    if m.ndim > 1:
        k = int(np.argmax(bad))
        m, lo, total = m[k], lo[k], total[k]
    if not math.isfinite(lo):
        raise InvalidDensityError("mass must be finite")
    # only the full pass tells an overflowing sum from an infinite entry
    if not math.isfinite(total) and not np.isfinite(m).all():
        raise InvalidDensityError("mass must be finite")
    if lo < 0.0:
        raise InvalidDensityError(f"mass must be nonnegative, got min {lo}")
    rule = f"sum to 1 within {MASS_TOL}" if require_unit_mass else "have a finite total"
    raise InvalidDensityError(f"masses must {rule}, got {total!r}")


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
            raise InvalidDensityError("mass must be a nonempty 1-D array")
        _check_masses(m, self.require_unit_mass)
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
        _check_masses(v, False)
        total = v.sum() * g.dx
        if total <= 0.0:
            raise InvalidDensityError("density values must carry positive total mass")
        return cls(v * g.dx / total)

    @classmethod
    def uniform(cls, g: Grid) -> "DensityField":
        return cls(np.full(g.n_cells, 1.0 / g.n_cells))

    @classmethod
    def cosine_bump(cls, g: Grid, amplitude: float = 0.5) -> "DensityField":
        """Normalized 1 + amplitude*cos(pi*(x-a)/(b-a)); needs |amplitude| < 1."""
        if not abs(amplitude) < 1.0:  # NaN fails this too
            raise InvalidParameterError("cosine bump amplitude must lie in (-1, 1)")
        xi = (g.centers - g.a) / g.length
        return cls.from_cell_values(1.0 + amplitude * np.cos(np.pi * xi), g)

    @classmethod
    def gaussian(cls, g: Grid, center: float, width: float) -> "DensityField":
        check_positive(width, "gaussian width", InvalidParameterError)
        if not math.isfinite(center):
            raise InvalidParameterError("gaussian center must be finite")
        v = np.exp(-0.5 * ((g.centers - center) / width) ** 2)
        return cls.from_cell_values(v, g)


class _States(Sequence):
    """A trajectory's states: DensityFields over the rows of its stack, each
    with its own require_unit_mass flag, made when read. Slices are lists."""

    def __init__(self, masses: np.ndarray, unit: np.ndarray):
        self._masses, self._unit = masses, unit

    def __len__(self) -> int:
        return len(self._masses)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        s = DensityField.__new__(DensityField)  # its row was checked already
        object.__setattr__(s, "mass", self._masses[k])
        object.__setattr__(s, "require_unit_mass", bool(self._unit[k]))
        return s


class Trajectory:
    """Piecewise-constant-in-time sequence of density states.

    times[k] is the left endpoint of the k-th interval, a finite step after
    times[k-1], and every time is finite. masses is the read-only,
    C-contiguous (K, n) stack of the states' masses, row k at times[k], and
    states a read-only sequence of DensityFields over its rows. final owns
    a copy of the last row, so keeping it keeps no stack alive. steps holds
    the per-step diagnostics of jko.run_flow (None when assembled
    elsewhere), each without its n-by-n plan (coupling None), so a flow
    holds O(K n); jko.jko_step gives a step's plan. Trajectory(times,
    states) stacks the states once, and raises SizeMismatchError for a
    state of another shape than the first; another trajectory's states
    share its stack.
    """

    def __init__(self, times, states, steps: list | None = None):
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size != len(states):
            raise SizeMismatchError(
                f"times (len {t.size}) and states (len {len(states)}) disagree"
            )
        if not states:
            raise SizeMismatchError("trajectory is empty")
        check_positive(np.diff(t), "trajectory time steps")
        # finite steps from a finite start keep every time finite
        if not abs(t[0]) < math.inf:
            raise InvalidParameterError(f"trajectory start time must be finite, got {t[0]}")
        if not isinstance(states, _States):
            shape = states[0].mass.shape
            for s in states:
                if s.mass.shape != shape:
                    raise SizeMismatchError(f"mass must have shape {shape}, got {s.mass.shape}")
            states = _States(np.stack([s.mass for s in states]),
                             np.array([s.require_unit_mass for s in states]))
        self.times, self.states, self.steps = t, states, steps
        self.masses = states._masses
        self.masses.flags.writeable = False
        self.final = DensityField(self.masses[-1].copy(), bool(states._unit[-1]))

    @classmethod
    def _of_stack(cls, times, stack: np.ndarray, unit: bool, steps=None) -> "Trajectory":
        """The trajectory over the first len(times) rows of a stack that its
        caller filled and hands over, each state flagged unit: the stack is
        cut to them in place and checked in one pass, a bad row raising
        what DensityField(row, unit) would."""
        stack.resize((len(times), stack.shape[1]), refcheck=False)
        _check_masses(stack, unit)
        return cls(times, _States(stack, np.full(len(times), unit)), steps)

    def __len__(self) -> int:
        return len(self.masses)


def _masses_on(traj: Trajectory, g: Grid) -> np.ndarray:
    """traj.masses, once its rows are checked to have g's cells, as density(g) does."""
    g.check_cell_field(traj.masses[0], "mass")
    return traj.masses


#: Readers of a whole trajectory take this many states at a time, so that
#: a long run's temporaries stay small.
_BLOCK = 256


def _by_blocks(f, *stacks: np.ndarray) -> np.ndarray:
    """f of the same blocks of _BLOCK rows of each (K, n) stack, joined: the
    bits of f of the whole stacks for an f that reads each row alone. With
    no rows, f runs once, on them."""
    k = len(stacks[0])
    return np.concatenate([f(*(s[i:i + _BLOCK] for s in stacks))
                           for i in range(0, max(k, 1), _BLOCK)])


def _put_row(stack: np.ndarray, k: int, row: np.ndarray) -> None:
    """Write row into row k of a stack filled in order, growing it first, if
    full, in place by k rows, at most 1024: a realloc, never a second copy."""
    if k == len(stack):
        stack.resize((k + min(k, 1024), stack.shape[1]), refcheck=False)
    stack[k] = row


def _check_shapes(u: np.ndarray, rho: DensityField, p: ExponentField, g: Grid):
    u = g.check_cell_field(u, "u")
    if not np.isfinite(u).all():
        raise InvalidDensityError("u must be finite")
    g.check_cell_field(rho.mass, "density mass")
    g.check_cell_field(p.values, "exponent field")
    return u


def modular(u: np.ndarray, rho: DensityField, p: ExponentField, lam: float, g: Grid) -> float:
    """Weighted modular sum_i |u[i]/lam|^p[i] * rho[i] * dx.

    Since rho[i] * dx is exactly the cell mass, the quadrature never touches
    dx explicitly. lam must be positive and finite.
    """
    u = _check_shapes(u, rho, p, g)
    check_positive(lam, "lambda")
    return float(np.sum(np.abs(u / lam) ** p.values * rho.mass))


def luxemburg_norm(u: np.ndarray, rho: DensityField, p: ExponentField, g: Grid) -> float:
    """Luxemburg norm of u in the rho-weighted variable-exponent space.

    Returns the unique lam with modular(u, rho, p, lam) == 1, or 0.0 when u
    vanishes on the support of rho. Cells with zero mass never contribute,
    whatever u does there. This is the one-row case of _norm_rows.
    """
    u = _check_shapes(u, rho, p, g)
    return float(_norm_rows(u[None, :], rho.mass[None, :], p.values)[0])


def _norm_rows(u: np.ndarray, mass: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Luxemburg norms of the K rows of u (K, n), row k weighted by mass[k].

    In x = log lam, f(x) = -log modular(e^x) increases with slope the
    modular-weighted mean of p, so one call of the shared finder solves every
    row. With A = max |u| on the support, attained in cell k, the modular
    is at most the total mass at lam = A, and cell k's term alone is 1 at
    lam = A * mass[k]^(1/p[k]): that brackets the root, and the finder widens
    it should a mass above 1 or rounding put the root outside. Rows that
    vanish on the support get 0 and no solve.
    """
    au = np.where(mass > SUPPORT_FLOOR, np.abs(u), 0.0)
    top = au.max(axis=1)
    live = top > 0.0
    norms = np.zeros(u.shape[0])
    if not live.any():
        return norms
    au, w, top = au[live], mass[live], top[live]
    k = au.argmax(axis=1)
    with np.errstate(divide="ignore"):
        base = p * np.log(au) + np.log(w)  # log of each modular term at lam = 1

    def f(x):
        lse, share = logsumexp(base - p * x[:, None], axis=1, weights=True)
        return -lse, share @ p

    hi = np.log(top)
    lo = hi + np.log(w[np.arange(k.size), k]) / p[k]
    lo, hi = bisect(f, lo, hi)
    norms[live] = np.exp(0.5 * (lo + hi))
    return norms
