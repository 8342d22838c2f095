"""Reference explicit solver: spatial operator accuracy, conservation,
dissipation, ordering, and the stability guards."""

import math
from dataclasses import replace

import numpy as np
import pytest

from varwass import pde
from varwass.energy import builtin_energy, total_energy
from varwass.errors import (InvalidDensityError, InvalidParameterError,
                             NonpositiveParameterError, NumericalBlowupError,
                             SizeMismatchError, VarwassError)
from varwass.grid import integrate, make_grid
from varwass.varexp import DensityField, ExponentField, Trajectory, conjugate

ENTROPY = builtin_energy("entropy")


def uniform(g):
    return DensityField.from_cell_values(np.ones(g.n_cells), g)


def smooth_pair(g, seed):
    """Two smooth positive profiles with hi >= lo + 0.15 everywhere."""
    rng = np.random.default_rng(8100 + seed)
    x = g.centers
    a, b, c, ph = (rng.uniform(-0.3, 0.3) for _ in range(4))
    lo = 0.6 + a * np.sin(2 * np.pi * x + ph) + b * np.cos(np.pi * x)
    hi = lo + 0.15 + 0.25 * (1.0 + np.sin(np.pi * x + c))
    return (DensityField.from_masses(lo * g.dx, require_unit_mass=False),
            DensityField.from_masses(hi * g.dx, require_unit_mass=False))


def safe_dt(fields, g, q_max):
    """Fixed step bounded by the initial log-slope of every field."""
    smax = max(
        float(np.max(np.abs(np.diff(np.log(f.density(g))))) / g.dx)
        for f in fields
    )
    dmax = (smax * smax + 1e-16) ** ((q_max - 2.0) / 2.0)
    return 0.35 * g.dx**2 / max(dmax, 1.0)


# ----------------------------------------------------------------------- rhs

def test_rhs_vanishes_at_uniform():
    g = make_grid(0.0, 1.0, 16)
    q = ExponentField.affine(2.0, 1.0, g)
    assert np.all(pde.rhs(uniform(g), ENTROPY, q, g) == 0.0)


def test_rhs_matches_heat_operator_under_refinement():
    # entropy with q = 2 collapses the operator to the plain Laplacian, so
    # rho = 1 + 0.4 cos(pi x) must give back -pi^2 (rho - 1), second order
    errs = []
    for n in (32, 64, 128):
        g = make_grid(0.0, 1.0, n)
        rho = DensityField.cosine_bump(g, amplitude=0.4)
        q2 = ExponentField.constant(2.0, g.n_cells)
        target = -np.pi**2 * (rho.density(g) - 1.0)
        errs.append(float(np.max(np.abs(pde.rhs(rho, ENTROPY, q2, g) - target))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_rhs_integrates_to_zero():
    g = make_grid(0.0, 1.0, 48)
    rng = np.random.default_rng(31)
    x = g.centers
    vals = 1.0 + 0.4 * np.sin(2 * np.pi * x) + 0.2 * rng.random(48)
    rho = DensityField.from_masses(vals * g.dx, require_unit_mass=False)
    q = ExponentField.affine(1.8, 0.9, g)
    assert abs(integrate(pde.rhs(rho, ENTROPY, q, g), g)) <= 1e-14


def test_rhs_rejects_misshapen_exponent():
    g = make_grid(0.0, 1.0, 16)
    with pytest.raises(SizeMismatchError):
        pde.rhs(uniform(g), ENTROPY, ExponentField.constant(2.0, 8), g)


# --------------------------------------------------------------------- solve

def test_solve_keeps_uniform_exactly():
    g = make_grid(0.0, 1.0, 16)
    q = ExponentField.affine(2.0, 1.0, g)
    traj = pde.solve(uniform(g), ENTROPY, q, pde.PdeConfig(t_end=0.01), g)
    assert traj.times[-1] == pytest.approx(0.01, abs=1e-15)
    for s in traj.states:
        assert np.all(s.density(g) == 1.0)


def test_heat_mode_decays_at_the_exact_rate():
    # the lowest cosine mode of the heat equation decays like exp(-pi^2 t)
    g = make_grid(0.0, 1.0, 64)
    q2 = ExponentField.constant(2.0, g.n_cells)
    t_end = 0.02
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, q2,
                     pde.PdeConfig(t_end=t_end), g)
    amp = 2.0 * integrate(
        (traj.states[-1].density(g) - 1.0) * np.cos(np.pi * g.centers), g)
    assert amp == pytest.approx(0.5 * np.exp(-np.pi**2 * t_end), rel=0.10)


def test_porous_medium_energy_decreases():
    g = make_grid(0.0, 1.0, 32)
    e = builtin_energy("power", 2.0)
    q2 = ExponentField.constant(2.0, g.n_cells)
    rho0 = DensityField.cosine_bump(g, amplitude=0.6)
    traj = pde.solve(rho0, e, q2, pde.PdeConfig(t_end=5e-3, stride=20), g)
    es = pde.energy_series(traj, e, g)
    assert es.size == len(traj.states)
    assert np.all(np.diff(es) < 0.0)


def test_solve_conserves_mass():
    g = make_grid(0.0, 1.0, 32)
    q = ExponentField.affine(2.0, 1.0, g)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, q,
                     pde.PdeConfig(t_end=5e-3, stride=10), g)
    for s in traj.states:
        assert abs(integrate(s.density(g), g) - 1.0) <= 1e-12

    vals = 2.5 + np.sin(2 * np.pi * g.centers)
    rho0 = DensityField.from_masses(vals * g.dx, require_unit_mass=False)
    total0 = integrate(rho0.density(g), g)
    traj2 = pde.solve(rho0, ENTROPY, q, pde.PdeConfig(t_end=2e-3, cfl=0.25), g)
    assert abs(integrate(traj2.states[-1].density(g), g) - total0) <= 1e-12


def test_energy_never_increases_across_models_and_exponents():
    # smooth random data at the default cfl, the whole step bound
    models = [builtin_energy("entropy"), builtin_energy("quadratic"),
              builtin_energy("power", 2.5), builtin_energy("power", 3.0)]
    for k, e in enumerate(models):
        for j in range(5):
            rng = np.random.default_rng(9000 + 10 * k + j)
            g = make_grid(0.0, 1.0, 24)
            x = g.centers
            a, b = rng.uniform(-0.25, 0.25, 2)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            vals = 0.9 + a * np.sin(2 * np.pi * x + ph) + b * np.cos(np.pi * x)
            rho0 = DensityField.from_masses(vals * g.dx,
                                            require_unit_mass=False)
            q = ExponentField.constant(rng.uniform(1.5, 3.0), 24)
            traj = pde.solve(rho0, e, q,
                             pde.PdeConfig(t_end=2e-3, stride=25), g)
            es = pde.energy_series(traj, e, g)
            assert np.all(np.diff(es) <= 1e-12)


# ---------------------------------------------------------------- comparison

def test_comparison_of_identical_runs_is_zero():
    g = make_grid(0.0, 1.0, 24)
    q = ExponentField.affine(2.0, 1.0, g)
    cfg = pde.PdeConfig(t_end=2e-3, fixed_dt=2e-6, stride=100)
    rho0 = DensityField.cosine_bump(g, amplitude=0.4)
    t1 = pde.solve(rho0, ENTROPY, q, cfg, g)
    t2 = pde.solve(rho0, ENTROPY, q, cfg, g)
    report = pde.comparison_check(t1, t2, g)
    assert report.max_positive_part == 0.0
    assert report.worst_increase <= 0.0


@pytest.mark.parametrize("variable_q", [False, True])
def test_ordered_data_stays_ordered(variable_q):
    g = make_grid(0.0, 1.0, 32)
    q = (ExponentField.affine(2.0, 1.0, g) if variable_q
         else ExponentField.constant(2.0, 32))
    for seed in range(3):
        lo, hi = smooth_pair(g, seed)
        dt = safe_dt((lo, hi), g, float(q.values.max()))
        cfg = pde.PdeConfig(t_end=5e-3, fixed_dt=dt, stride=1)
        rep = pde.comparison_check(pde.solve(lo, ENTROPY, q, cfg, g),
                                   pde.solve(hi, ENTROPY, q, cfg, g), g)
        assert rep.max_positive_part == 0.0


@pytest.mark.parametrize("variable_q", [False, True])
def test_crossing_data_contracts(variable_q):
    # the positive part of the difference may start anywhere but never grows
    g = make_grid(0.0, 1.0, 32)
    x = g.centers
    q = (ExponentField.affine(2.0, 1.0, g) if variable_q
         else ExponentField.constant(2.0, 32))
    for seed in range(4):
        rng = np.random.default_rng(8200 + seed)
        a, b, c, ph = (rng.uniform(-0.3, 0.3) for _ in range(4))
        lo = 0.8 + a * np.sin(2 * np.pi * x + ph) + b * np.cos(np.pi * x)
        hi = 0.8 - b * np.sin(2 * np.pi * x + c) + a * np.cos(np.pi * x)
        r1 = DensityField.from_masses(lo * g.dx, require_unit_mass=False)
        r2 = DensityField.from_masses(hi * g.dx, require_unit_mass=False)
        dt = safe_dt((r1, r2), g, float(q.values.max())) * 0.857
        cfg = pde.PdeConfig(t_end=4e-3, fixed_dt=dt, stride=1)
        rep = pde.comparison_check(pde.solve(r1, ENTROPY, q, cfg, g),
                                   pde.solve(r2, ENTROPY, q, cfg, g), g)
        assert rep.positive_part[0] > 1e-3
        assert rep.worst_increase <= 1e-12


def test_comparison_rejects_mismatched_sampling():
    g = make_grid(0.0, 1.0, 16)
    q2 = ExponentField.constant(2.0, 16)
    rho0 = DensityField.cosine_bump(g, amplitude=0.4)
    cfg_a = pde.PdeConfig(t_end=1e-3, fixed_dt=1e-6, stride=200)
    cfg_b = pde.PdeConfig(t_end=1e-3, fixed_dt=1e-6, stride=100)
    ta = pde.solve(rho0, ENTROPY, q2, cfg_a, g)
    tb = pde.solve(rho0, ENTROPY, q2, cfg_b, g)
    with pytest.raises(SizeMismatchError):
        pde.comparison_check(ta, tb, g)


# ------------------------------------------------------------------- guards

def test_oversized_fixed_dt_raises():
    g = make_grid(0.0, 1.0, 32)
    q2 = ExponentField.constant(2.0, 32)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    with pytest.raises(NumericalBlowupError):
        pde.solve(rho0, ENTROPY, q2, pde.PdeConfig(t_end=0.1, fixed_dt=1.0), g)


def test_step_budget_raises(monkeypatch):
    g = make_grid(0.0, 1.0, 32)
    q2 = ExponentField.constant(2.0, 32)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    monkeypatch.setattr(pde, "MAX_STEPS", 3)
    with pytest.raises(NumericalBlowupError):
        pde.solve(rho0, ENTROPY, q2, pde.PdeConfig(t_end=0.1), g)


def test_config_validation():
    with pytest.raises(ValueError):
        pde.PdeConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        pde.PdeConfig(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        pde.PdeConfig(t_end=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        pde.PdeConfig(t_end=1.0, stride=0)
    with pytest.raises(ValueError):
        pde.PdeConfig(t_end=1.0, fixed_dt=0.0)


@pytest.mark.parametrize("kwargs,error", [
    ({"t_end": -1.0}, InvalidParameterError),
    ({"t_end": 1.0, "cfl": 1.5}, InvalidParameterError),
    ({"t_end": 1.0, "cfl": float("nan")}, InvalidParameterError),
    ({"t_end": 1.0, "stride": 0}, InvalidParameterError),
    ({"t_end": 1.0, "fixed_dt": 0.0}, NonpositiveParameterError),
])
def test_config_errors_are_typed(kwargs, error):
    with pytest.raises(error) as info:
        pde.PdeConfig(**kwargs)
    assert isinstance(info.value, VarwassError)


def test_comparison_time_mismatch_is_typed():
    g = make_grid(0.0, 1.0, 8)
    states = [uniform(g)] * 2
    with pytest.raises(InvalidParameterError) as info:
        pde.comparison_check(Trajectory([0.0, 1.0], states),
                             Trajectory([0.0, 2.0], states), g)
    assert isinstance(info.value, VarwassError)


def test_stride_thins_the_record():
    g = make_grid(0.0, 1.0, 24)
    q2 = ExponentField.constant(2.0, 24)
    rho0 = DensityField.cosine_bump(g, amplitude=0.4)
    dense = pde.solve(rho0, ENTROPY, q2,
                      pde.PdeConfig(t_end=1e-3, fixed_dt=2e-6, stride=1), g)
    thin = pde.solve(rho0, ENTROPY, q2,
                     pde.PdeConfig(t_end=1e-3, fixed_dt=2e-6, stride=100), g)
    assert len(thin.states) < len(dense.states)
    assert thin.times[-1] == dense.times[-1]
    assert np.array_equal(thin.states[-1].density(g),
                          dense.states[-1].density(g))


# ---------------------------------------------------------- reference loop

def _reference_rhs(rho, e, q, g):
    """The spatial operator as first written, np.diff on every difference."""
    delta_reg = pde.DELTA_REG
    rv = rho.density(g)
    s = np.diff(e.deriv(rv)) / g.dx
    flux = np.zeros(g.n_cells + 1)
    flux[1:-1] = (0.5 * (rv[:-1] + rv[1:]) * (s * s + delta_reg * delta_reg)
                  ** ((0.5 * (q.values[:-1] + q.values[1:]) - 2.0) / 2.0) * s)
    return np.diff(flux) / g.dx


def _reference_solve(rho0, e, q, cfg, g, steps):
    """The Euler loop that recomputed every invariant at every step, with
    dt = cfl dx^2 / max_i (K_{i-1/2} + K_{i+1/2}) written out: K_f =
    rho_f (s_f^2 + delta^2)^((q_f-2)/2) (G'(rho_{i+1}) - G'(rho_i))
    / (rho_{i+1} - rho_i) on interior faces, 0 on the walls and on faces
    with rho_{i+1} == rho_i.

    Returns the recorded times and masses; steps["n"] counts the Euler
    steps taken, also when a guard raises.
    """
    m = g.check_cell_field(rho0.mass, "initial mass").copy()
    total0 = m.sum()
    times, masses = [0.0], [rho0.mass]
    t = 0.0
    t_final = cfg.t_end
    while t < t_final - 1e-15 * max(1.0, t_final):
        rv = m / g.dx
        dgp = np.diff(e.deriv(rv))
        s = dgp / g.dx
        q_f = 0.5 * (q.values[:-1] + q.values[1:])
        mag = (s * s + pde.DELTA_REG * pde.DELTA_REG) ** ((q_f - 2.0) / 2.0)
        drho = np.diff(rv)
        k = np.zeros(g.n_cells + 1)
        k[1:-1] = np.where(drho != 0.0,
                           0.5 * (rv[:-1] + rv[1:]) * mag * dgp
                           / np.where(drho != 0.0, drho, 1.0), 0.0)
        k_max = float((k[:-1] + k[1:]).max())
        dt_stable = cfg.cfl * g.dx**2 / k_max if k_max > 0.0 else np.inf
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
        if t + dt == t:
            raise NumericalBlowupError(f"time step dt={dt:.3e} does not advance t={t:.6g}")
        rate = _reference_rhs(DensityField(m, require_unit_mass=False), e, q, g)
        m = m + dt * rate * g.dx
        t += dt
        steps["n"] += 1
        if steps["n"] > pde.MAX_STEPS:
            raise NumericalBlowupError(
                f"step budget {pde.MAX_STEPS} exhausted at t={t:.6g}"
            )
        if not np.all(np.isfinite(m)) or (m / g.dx).max() > pde.BLOWUP_DENSITY:
            # the NaN-skipping maximum of nanmax, without its warning on all NaN
            raise NumericalBlowupError(
                f"density blew up at t={t:.6g} (max {np.fmax.reduce(m) / g.dx:.3e})"
            )
        if m.min() < -1e-12:
            raise NumericalBlowupError(
                f"density went negative at t={t:.6g} (min {m.min():.3e}); "
                "the explicit step lost monotonicity"
            )
        m = np.maximum(m, 0.0)
        if steps["n"] % cfg.stride == 0 or t >= t_final - 1e-15 * max(1.0, t_final):
            times.append(t)
            masses.append(m * (total0 / m.sum()))
    return np.asarray(times), masses


def _counting_rhs(monkeypatch):
    calls = {"n": 0}
    original = pde.rhs

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pde, "rhs", counted)
    return calls


REFERENCE_ENERGIES = {"entropy": ENTROPY, "quadratic": builtin_energy("quadratic"),
                      "power3": builtin_energy("power", 3.0),
                      "power1.5": builtin_energy("power", 1.5)}
REFERENCE_EXPONENTS = {"2": (2.0, 0.0), "2+x": (2.0, 1.0), "1.5+1.5x": (1.5, 1.5)}


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("exponent", sorted(REFERENCE_EXPONENTS))
@pytest.mark.parametrize("name", sorted(REFERENCE_ENERGIES))
def test_solve_is_bit_identical_to_reference_loop(name, exponent, stride, fixed):
    # q is the conjugate of the transport exponent p, as the solver is used
    g = make_grid(0.0, 1.0, 24)
    e = REFERENCE_ENERGIES[name]
    q = conjugate(ExponentField.affine(*REFERENCE_EXPONENTS[exponent], g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    fixed_dt = None
    if fixed:
        free = pde.solve(rho0, e, q, pde.PdeConfig(t_end=0.02), g)
        fixed_dt = 0.5 * float(np.diff(free.times)[:-1].min())
    cfg = pde.PdeConfig(t_end=0.02, stride=stride, fixed_dt=fixed_dt)
    want_times, want_masses = _reference_solve(rho0, e, q, cfg, g, {"n": 0})
    traj = pde.solve(rho0, e, q, cfg, g)
    assert len(traj) > 3
    np.testing.assert_array_equal(traj.times, want_times)
    assert len(traj.states) == len(want_masses)
    for state, want in zip(traj.states, want_masses):
        np.testing.assert_array_equal(state.mass, want)


def test_solve_is_bit_identical_to_reference_loop_at_n64():
    # the README example's size: n = 64, p = 2 + x and the entropy, 952
    # Euler steps to t = 0.02, each one compared at stride 1
    g = make_grid(0.0, 1.0, 64)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    cfg = pde.PdeConfig(t_end=0.02)
    steps = {"n": 0}
    want_times, want_masses = _reference_solve(rho0, ENTROPY, q, cfg, g, steps)
    traj = pde.solve(rho0, ENTROPY, q, cfg, g)
    assert len(traj) - 1 == steps["n"] > 900
    np.testing.assert_array_equal(traj.times, want_times)
    for state, want in zip(traj.states, want_masses, strict=True):
        np.testing.assert_array_equal(state.mass, want)


def _assert_matches_reference(rho0, e, q, cfg, g):
    steps = {"n": 0}
    want_times, want_masses = _reference_solve(rho0, e, q, cfg, g, steps)
    traj = pde.solve(rho0, e, q, cfg, g)
    assert len(traj) - 1 == steps["n"]
    np.testing.assert_array_equal(traj.times, want_times)
    for state, want in zip(traj.states, want_masses, strict=True):
        np.testing.assert_array_equal(state.mass, want)
        assert state.require_unit_mass == rho0.require_unit_mass
    return traj


# recorded states fill blocks of 16, 32, ..., 1024 rows and then 1024 each:
# 2032 records fill the first seven, so more than 2047 states reach past the
# first 1024-row block into the next

def test_block_record_is_bit_identical_across_block_boundaries():
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    traj = _assert_matches_reference(rho0, ENTROPY, q, pde.PdeConfig(t_end=0.25), g)
    assert len(traj) > 3000


def test_block_record_is_bit_identical_at_n129_without_unit_mass():
    g = make_grid(0.0, 1.0, 129)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    rho0 = smooth_pair(g, 0)[1]
    assert not rho0.require_unit_mass and abs(rho0.total_mass - 1.0) > 0.1
    traj = _assert_matches_reference(rho0, ENTROPY, q, pde.PdeConfig(t_end=7e-3), g)
    assert len(traj) > 2047


@pytest.mark.parametrize("stride", [1, 7, 1_000_000_000])
def test_final_state_owns_its_masses(stride):
    # traj.final is what a caller that keeps only the end state holds on
    # to, so it must keep no block of recorded rows alive
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, q,
                     pde.PdeConfig(t_end=0.02, stride=stride), g)
    assert len(traj) > 1
    assert traj.final.mass.flags.owndata
    assert all(not s.mass.flags.owndata for s in traj.states[1:-1])


BAD_ROWS = {
    "nan": [0.25, np.nan, 0.25, 0.5],
    "inf": [0.25, np.inf, 0.25, 0.5],
    "negative": [0.75, -0.25, 0.25, 0.25],
    "off unit mass": [0.25, 0.25, 0.25, 0.5],
    "overflowing sum": [1e308, 1e308, 0.0, 0.0],
}


@pytest.mark.parametrize("unit", [True, False])
@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_a_bad_row_in_a_block_raises_what_a_density_field_would(case, k, unit):
    block = np.full((5, 4), 0.25)
    block[k] = BAD_ROWS[case]
    if not unit and case == "off unit mass":
        assert len(Trajectory._of_stack(np.arange(5.0), block, unit)) == 5
        return
    with pytest.raises(InvalidDensityError) as want:
        DensityField(block[k].copy(), require_unit_mass=unit)
    with pytest.raises(InvalidDensityError) as got:
        Trajectory._of_stack(np.arange(5.0), block, unit)
    assert str(got.value) == str(want.value)


def test_a_block_reports_its_first_bad_row():
    # the first bad row decides the message, whichever check fails later
    block = np.full((6, 4), 0.25)
    block[2] = BAD_ROWS["negative"]
    block[4] = BAD_ROWS["nan"]
    with pytest.raises(InvalidDensityError, match="nonnegative, got min -0.25"):
        Trajectory._of_stack(np.arange(6.0), block, True)
    block[1] = BAD_ROWS["off unit mass"]
    with pytest.raises(InvalidDensityError, match="sum to 1"):
        Trajectory._of_stack(np.arange(6.0), block, True)
    states = Trajectory._of_stack(np.arange(3.0), block[[0, 3, 5]], True).states
    assert [s.mass.tolist() for s in states] == [[0.25] * 4] * 3
    assert all(s.require_unit_mass for s in states)


def _recording_rhs(monkeypatch, check=None):
    """Wrap pde.rhs; keep a copy of each call's masses and rate."""
    seen = []
    original = pde.rhs

    def recording(rho, *args, **kwargs):
        rate = original(rho, *args, **kwargs)
        if check is not None:
            check(original, rho, args, kwargs, rate)
        seen.append((rho.mass.copy(), rate.copy()))
        return rate

    monkeypatch.setattr(pde, "rhs", recording)
    return seen


@pytest.mark.parametrize("delta_reg", [pde.DELTA_REG, 1e-3])
@pytest.mark.parametrize("name", sorted(REFERENCE_ENERGIES))
def test_rhs_on_the_loop_face_inputs_matches_a_plain_call(name, delta_reg, monkeypatch):
    # solve hands rhs its face inputs privately; on the same state a plain
    # call, which builds them itself, returns the same bits
    monkeypatch.setattr(pde, "DELTA_REG", delta_reg)
    g = make_grid(0.0, 1.0, 32)
    e = REFERENCE_ENERGIES[name]
    q = conjugate(ExponentField.affine(1.5, 1.5, g))

    def check(original, rho, args, kwargs, rate):
        assert set(kwargs) == {"_faces"}
        np.testing.assert_array_equal(rate, original(rho, *args))
        np.testing.assert_array_equal(rate, _reference_rhs(rho, *args))

    seen = _recording_rhs(monkeypatch, check)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), e, q,
                     pde.PdeConfig(t_end=2e-3), g)
    assert len(seen) == len(traj) - 1 > 3


@pytest.mark.parametrize("stride", [1, 7])
def test_solve_writes_neither_rho0_nor_a_shared_state(stride):
    # the loop updates its masses in place; rho0 and every recorded state
    # must stay arrays of their own
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    before = rho0.mass.copy()
    traj = pde.solve(rho0, ENTROPY, q, pde.PdeConfig(t_end=0.02, stride=stride), g)
    np.testing.assert_array_equal(rho0.mass, before)
    masses = [s.mass for s in traj.states]
    assert len(masses) > 3
    for i, a in enumerate(masses):
        for b in masses[i + 1:]:
            assert not np.shares_memory(a, b)


def _vacuum_spikes(seed):
    """Four isolated spikes between vacuum cells under the porous-medium
    energy with q = 2 and a fixed dt at the step bound (cfl = 1). A spike
    of density r has K_f = r / 2 on both faces, so K_{i-1/2} + K_{i+1/2}
    = r, and a vacuum cell between spikes r and r' has (r + r') / 2: the
    bound is dx^2 over the tallest density. In exact arithmetic the
    tallest spike empties in one step, so rounding leaves its cell a hair
    above or below zero."""
    rng = np.random.default_rng(seed)
    g = make_grid(0.0, 1.0, 24)
    vals = np.zeros(24)
    spikes = rng.choice(np.arange(1, 23, 2), size=4, replace=False)
    vals[spikes] = rng.uniform(0.5, 1.0, 4)
    rho0 = DensityField.from_cell_values(vals, g)
    dt = g.dx**2 / float(rho0.density(g).max())
    cfg = pde.PdeConfig(t_end=20 * dt, cfl=1.0, fixed_dt=dt)
    return rho0, builtin_energy("quadratic"), ExponentField.constant(2.0, 24), cfg, g


@pytest.mark.parametrize("seed", [5, 7])
def test_clamp_fires_on_a_vacuum_start(seed, monkeypatch):
    # seeds 0-4 of this generator round the emptied cell to +0.0 or above;
    # 5 and 7 are the first two that round it below zero
    rho0, e, q, cfg, g = _vacuum_spikes(seed)
    free = pde.solve(rho0, e, q, replace(cfg, fixed_dt=None), g)
    assert free.times[1] == pytest.approx(cfg.fixed_dt, rel=1e-15)
    seen = _recording_rhs(monkeypatch)
    traj = pde.solve(rho0, e, q, cfg, g)
    # the fixed dt rebuilds each step's masses before the guards; every
    # step but the last takes the whole fixed dt
    unclamped = [m + cfg.fixed_dt * rate * g.dx for m, rate in seen[:-1]]
    assert any(((u < 0.0) & (u >= -1e-12)).any() for u in unclamped)
    for u, (m_next, _) in zip(unclamped, seen[1:]):
        np.testing.assert_array_equal(m_next, np.maximum(u, 0.0))
        assert not np.signbit(m_next).any()
    want_times, want_masses = _reference_solve(rho0, e, q, cfg, g, {"n": 0})
    np.testing.assert_array_equal(traj.times, want_times)
    for state, want in zip(traj.states, want_masses, strict=True):
        np.testing.assert_array_equal(state.mass, want)


def test_clamp_turns_negative_zero_masses_positive():
    # -0.0 is a valid mass; the clamp runs on every step, not only when a
    # mass went below zero, so no recorded state keeps a -0.0
    rho0, e, q, cfg, g = _vacuum_spikes(0)
    signed = DensityField(np.where(rho0.mass > 0.0, rho0.mass, -0.0))
    assert np.signbit(signed.mass).any()
    traj = pde.solve(signed, e, q, cfg, g)
    for state in traj.states[1:]:
        assert not np.signbit(state.mass).any()


def _anti_diffusion(level, fixed_dt):
    """Quadratic energy with G' negated, so every K_f < 0: the step bound
    reads no positive K_f and allows any dt, and a fixed dt lets the cosine
    mode of the data, at the given density level, grow step by step."""
    quadratic = builtin_energy("quadratic")
    e = replace(quadratic, deriv=lambda t: -quadratic.deriv(t))
    g = make_grid(0.0, 1.0, 24)
    vals = level * (1.0 + 0.5 * np.cos(np.pi * g.centers))
    rho0 = DensityField.from_masses(vals * g.dx, require_unit_mass=False)
    cfg = pde.PdeConfig(t_end=1.0, fixed_dt=fixed_dt)
    return rho0, e, ExponentField.constant(2.0, 24), cfg, g


def _oversized_fixed_dt():
    # the stable bound shrinks as q = 1.5 flattens the slope: a fixed dt
    # just under the first bound passes step 1 and fails later
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.constant(3.0, 24))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    first_dt = pde.solve(rho0, ENTROPY, q, pde.PdeConfig(t_end=1e-3), g).times[1]
    cfg = pde.PdeConfig(t_end=1e-3, fixed_dt=0.999 * float(first_dt))
    return rho0, ENTROPY, q, cfg, g


def _nan_slope():
    """G' NaN everywhere: the first Euler step turns every mass NaN, and
    nanmax of those masses would warn "All-NaN slice encountered"."""
    quadratic = builtin_energy("quadratic")
    e = replace(quadratic, deriv=lambda t: np.full(np.shape(t), np.nan))
    g = make_grid(0.0, 1.0, 8)
    return (DensityField.uniform(g), e, ExponentField.constant(2.0, 8),
            pde.PdeConfig(t_end=0.01), g)


ERROR_CASES = {
    # case: (inputs, message, Euler steps taken when the guard fires); the
    # dt guard fires before a step, the density guards after it
    "all_nan": (_nan_slope, r"blew up at t=0\.01 \(max nan\)", 1),
    "fixed_dt": (_oversized_fixed_dt, "exceeds the stability bound", 1),
    "blowup": (lambda: _anti_diffusion(3e5, 1e-8), "blew up", 12),
    "negative": (lambda: _anti_diffusion(100.0, 1e-5), "went negative", 25),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_solve_raises_at_the_reference_step(case, monkeypatch):
    make, message, taken = ERROR_CASES[case]
    rho0, e, q, cfg, g = make()
    steps = {"n": 0}
    with pytest.raises(NumericalBlowupError, match=message) as want:
        _reference_solve(rho0, e, q, cfg, g, steps)
    calls = _counting_rhs(monkeypatch)
    with pytest.raises(NumericalBlowupError) as got:
        pde.solve(rho0, e, q, cfg, g)
    assert str(got.value) == str(want.value)
    assert calls["n"] == steps["n"] == taken


@pytest.mark.parametrize("t_end", [0.0, 2e-4, 1e-3])
def test_solve_calls_rhs_once_per_step(t_end, monkeypatch):
    # a tracer that wraps pde.rhs counts Euler steps from these calls
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    calls = _counting_rhs(monkeypatch)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, q,
                     pde.PdeConfig(t_end=t_end), g)
    assert calls["n"] == len(traj) - 1


def test_solve_evaluates_the_energy_slope_once_per_step(monkeypatch):
    # the dt estimate and rhs share one G'(rho) per Euler step
    g = make_grid(0.0, 1.0, 24)
    q = conjugate(ExponentField.affine(2.0, 1.0, g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    evaluations = []

    def counted(t):
        evaluations.append(1)
        return ENTROPY.deriv(t)

    calls = _counting_rhs(monkeypatch)
    traj = pde.solve(rho0, replace(ENTROPY, deriv=counted), q,
                     pde.PdeConfig(t_end=1e-3), g)
    assert len(evaluations) == calls["n"] == len(traj) - 1


# ---------------------------------------------------------- rough-data sweep

SWEEP_ENERGIES = {"entropy": ENTROPY, "quadratic": builtin_energy("quadratic"),
                  "power3": builtin_energy("power", 3.0)}


def _rough_case(seed):
    """n in [16, 32] cells of uniform(0, 2) density with n // 8 of them
    emptied, and a transport exponent p uniform in (1.02, 8) per cell; the
    flow runs with q its conjugate, so q reaches about 50."""
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(16, 33))
    g = make_grid(0.0, 1.0, n)
    vals = rng.uniform(0.0, 2.0, n)
    vals[rng.choice(n, size=n // 8, replace=False)] = 0.0
    q = conjugate(ExponentField(rng.uniform(1.02, 8.0, n)))
    return DensityField.from_cell_values(vals, g), q, g


@pytest.mark.parametrize("name", sorted(SWEEP_ENERGIES))
def test_rough_data_keeps_mass_positivity_maximum_principle_and_descent(name, monkeypatch):
    # every run at the default cfl keeps the invariants of a positive
    # average; a run may only stop on the step budget, and only where a
    # face exponent q_f above 20 meets a steep slope. Those 6 stops (seeds
    # 8 and 11, every energy) are the instability of a step past
    # 1 / (q_f - 1) of the bound (ROADMAP item 15), not stiffness: at cfl
    # 0.5 no run reaches the budget and the longest that ends takes 20 steps
    e = SWEEP_ENERGIES[name]
    monkeypatch.setattr(pde, "MAX_STEPS", 5000)
    for seed in range(20):
        rho0, q, g = _rough_case(seed)
        try:
            traj = pde.solve(rho0, e, q, pde.PdeConfig(t_end=1e-4), g)
        except NumericalBlowupError as exc:
            assert "step budget" in str(exc), (seed, str(exc))
            assert (0.5 * (q.values[:-1] + q.values[1:])).max() > 20.0, seed
            continue
        d0 = rho0.density(g)
        for state in traj.states:
            d = state.density(g)
            assert abs(state.mass.sum() - rho0.mass.sum()) <= 1e-12, seed
            assert d.min() >= 0.0, seed
            assert d.max() <= d0.max() * (1.0 + 1e-12), seed
        assert np.all(np.diff(pde.energy_series(traj, e, g)) <= 1e-12), seed


@pytest.mark.parametrize("name,cfl", [("entropy", 0.5), ("power3", 0.5), ("power3", 0.25),
                                      ("power10", 1.0)])
@pytest.mark.parametrize("stride", [1, 10**9])
def test_a_step_that_does_not_advance_t_raises(name, cfl, stride):
    # rough seed 8 (n=27, largest q_f 25.3): the bound falls below half an
    # ulp of t, so t + dt == t while the masses would still change. Unless
    # that step raises, repeated times fail later in Trajectory at stride 1
    # with a misleading message, and a large stride returns without a sign.
    # power10: a spike of 1.0 on 1e-3 at p = 1.04 (q_f = 26) overflows the
    # bound to inf at t = 0, so dt is exactly 0; unless that step raises,
    # the solve returns its one state at t = 0, with an overflow warning
    if name == "power10":
        g = make_grid(0.0, 1.0, 64)
        values = np.full(64, 1e-3)
        values[32] = 1.0
        rho0, e = DensityField.from_cell_values(values, g), builtin_energy("power", 10.0)
        q, t_end = conjugate(ExponentField.constant(1.04, 64)), 0.01
    else:
        (rho0, q, g), e, t_end = _rough_case(8), SWEEP_ENERGIES[name], 1e-4
    with pytest.raises(NumericalBlowupError, match=r"dt=.* does not advance t="):
        pde.solve(rho0, e, q, pde.PdeConfig(t_end=t_end, cfl=cfl, stride=stride), g)


# ------------------------------------------------- exact self-similar profiles

def _profile(m, q):
    """Constants of the self-similar solution of the power(m) flow at
    constant q (ROADMAP item 16): rho(t, x) = t^-a f((x - c) t^-a) with
    a = 1 / (1 + m (q - 1)) and f(xi) = k (C - b |xi|^r)_+^beta, where
    beta = 1/(m-1), r = q/(q-1), b = a^(1/(q-1)) (q-1)/q, k = ((m-1)/m)^beta.
    The integral of f is (2 k / r) B(1/r, beta + 1) C^(beta + 1/r) / b^(1/r),
    which C sets to 1. Returns a, k, b, r, beta, C and the half-width
    (C / b)^(1/r) of the support in xi."""
    a = 1.0 / (1.0 + m * (q - 1.0))
    beta, r = 1.0 / (m - 1.0), q / (q - 1.0)
    b = a ** (1.0 / (q - 1.0)) * (q - 1.0) / q
    k = ((m - 1.0) / m) ** beta
    beta_fn = math.exp(math.lgamma(1.0 / r) + math.lgamma(beta + 1.0)
                       - math.lgamma(1.0 / r + beta + 1.0))
    c = (b ** (1.0 / r) * r / (2.0 * k * beta_fn)) ** (1.0 / (beta + 1.0 / r))
    return a, k, b, r, beta, c, (c / b) ** (1.0 / r)


def exact_masses(m, q, t, center, g):
    """Cell masses of the self-similar solution at time t, centred at center:
    each cell's average of the closed form over 64 midpoint sub-cells, times
    dx. Against 4096 sub-cells the masses differ by at most 3e-7 in L1 for
    the profiles below, far under the errors they gate."""
    a, k, b, r, beta, c, _ = _profile(m, q)
    sub = 64
    x = g.a + (np.arange(g.n_cells * sub) + 0.5) * (g.dx / sub)
    f = k * np.maximum(c - b * np.abs((x - center) * t ** -a) ** r, 0.0) ** beta
    return (t ** -a * f).reshape(g.n_cells, sub).mean(axis=1) * g.dx


def _support_time(m, q, width):
    """The time at which the support of the profile is width wide."""
    a, *_, half = _profile(m, q)
    return (width / (2.0 * half)) ** (1.0 / a)


PROFILE_CASES = [
    # q: L1 bounds at n = 64 and 128, and the least observed order between
    # them. Measured at the default cfl: q=2 7.05e-4 and 2.24e-4 (order
    # 1.66), q=1.6 1.13e-3 and 2.86e-4 (order 1.98). At q=3 the default cfl
    # gives 7.0e-2 and 3.8e-2, as its step bound ignores the flux's growth
    # in the slope (ROADMAP item 15); a step of 0.49 of the bound gives
    # 5.19e-4 and 1.30e-4 (order 2.0), which the bounds follow
    pytest.param(2.0, (8.0e-4, 2.6e-4), 1.5, id="q2"),
    pytest.param(1.6, (1.3e-3, 3.3e-4), 1.8, id="q1.6"),
    pytest.param(3.0, (6.0e-4, 1.5e-4), 1.8, id="q3", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 15: at q_f > 2 the step bound is not stable")),
]


@pytest.mark.parametrize("q, bounds, order", PROFILE_CASES)
def test_solve_converges_to_the_exact_self_similar_profile(q, bounds, order):
    # power(2), centred on [0, 1], from support width 0.4 to 0.8: the
    # support stays off the walls, so the closed form is the exact solution
    e = builtin_energy("power", 2.0)
    t0, t1 = _support_time(2.0, q, 0.4), _support_time(2.0, q, 0.8)
    errors = []
    for n in (64, 128):
        g = make_grid(0.0, 1.0, n)
        rho0 = DensityField(exact_masses(2.0, q, t0, 0.5, g), require_unit_mass=False)
        traj = pde.solve(rho0, e, ExponentField.constant(q, n),
                         pde.PdeConfig(t_end=t1 - t0, stride=10**9), g)
        errors.append(float(np.abs(traj.final.mass - exact_masses(2.0, q, t1, 0.5, g)).sum()))
    assert errors[0] <= bounds[0] and errors[1] <= bounds[1], errors
    assert math.log2(errors[0] / errors[1]) >= order, errors


# ------------------------------------------------ method-of-lines reference

def mol_final_masses(rho0, e, q, t_end, g):
    """Masses at t_end of dm/dt = pde.rhs(m) dx, integrated by scipy's Radau
    at rtol 1e-10 and atol 1e-14 (ROADMAP item 19(a)). It has the space
    discretization of pde.solve and no step rule, so its gap to pde.solve
    is pde.solve's time error alone, at any q(x). The Jacobian pattern is
    tridiagonal. A trial state of Radau may dip below 0 by rounding, and a
    DensityField holds no negative mass, so trial masses are clamped at 0."""
    integrate = pytest.importorskip("scipy.integrate")
    sparse = pytest.importorskip("scipy.sparse")
    n = g.n_cells

    def rate(t, m):
        return pde.rhs(DensityField(np.maximum(m, 0.0), require_unit_mass=False), e, q, g) * g.dx

    # a float pattern, as scipy warns on an integer one
    pattern = sparse.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1], dtype=float)
    sol = integrate.solve_ivp(rate, (0.0, t_end), rho0.mass, method="Radau", rtol=1e-10,
                              atol=1e-14, jac_sparsity=pattern)
    assert sol.success, sol.message
    return sol.y[:, -1]


MOL_CASES = [
    # exponent p0 + p1 x, n, cfl, and the L1 bound on the end state. Measured:
    # p = 2+x (q <= 2) 4.30e-6 at n=64 and 5.33e-7 at n=128, 1.93e-6 at n=64
    # with cfl 0.45; p = 2 (q = 2) 3.11e-5 at n=64. Each is O(dt). At
    # p = 1.4+0.4x (q up to 3.5) the default cfl is 1.33e-2 off, as the step
    # bound ignores the flux's growth in the slope; a step of 0.45 of the
    # bound gives 2.40e-5, and the bound follows that
    pytest.param((2.0, 1.0), 64, 1.0, 5e-6, id="2+x-n64"),
    pytest.param((2.0, 1.0), 128, 1.0, 6e-7, id="2+x-n128"),
    pytest.param((2.0, 1.0), 64, 0.45, 2.2e-6, id="2+x-n64-cfl0.45"),
    pytest.param((2.0, 0.0), 64, 1.0, 3.5e-5, id="2-n64"),
    pytest.param((1.4, 0.4), 64, 1.0, 5e-5, id="1.4+0.4x-n64", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 15: at q_f > 2 the step bound is not stable")),
]


@pytest.mark.parametrize("exponent, n, cfl, bound", MOL_CASES)
def test_solve_matches_the_method_of_lines_reference(exponent, n, cfl, bound):
    # entropy from a cosine bump of amplitude 0.5 to t = 0.02; every step is
    # recorded, so the end state is the last row of a grown stack
    g = make_grid(0.0, 1.0, n)
    q = conjugate(ExponentField.affine(*exponent, g))
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    traj = pde.solve(rho0, ENTROPY, q, pde.PdeConfig(t_end=0.02, cfl=cfl), g)
    assert len(traj) > 16
    error = float(np.abs(traj.final.mass - mol_final_masses(rho0, ENTROPY, q, 0.02, g)).sum())
    assert error <= bound, error
