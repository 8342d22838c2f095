"""Minimizing-movement stepper: stationarity, comparisons against the
explicit solver, optimality diagnostics, and bookkeeping invariants."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from varwass import jko, pde
from varwass._kernels import bisect
from varwass.energy import builtin_energy, total_energy
from varwass.errors import (NonpositiveParameterError, NumericalBlowupError,
                             SizeMismatchError)
from varwass.grid import integrate, make_grid
from varwass.varexp import DensityField, ExponentField

ENTROPY = builtin_energy("entropy")
QUADRATIC = builtin_energy("quadratic")


def affine_p(g, p0=2.0, p1=1.0):
    return ExponentField.affine(p0, p1, g)


def uniform(g):
    return DensityField.from_cell_values(np.ones(g.n_cells), g)


def blur_opts(h, factor=0.8, exact=False):
    return jko.JkoOptions(backend="entropic",
                          smoothing=float(np.sqrt(factor * h)),
                          exact_coupling=exact)


# ---------------------------------------------------------------- stationarity

@pytest.mark.parametrize("backend", ["mirror", "projected"])
def test_uniform_is_exactly_stationary(backend):
    g = make_grid(0.0, 1.0, 16)
    step = jko.jko_step(uniform(g), ENTROPY, affine_p(g), 1e-3, g,
                        jko.JkoOptions(backend=backend))
    assert np.max(np.abs(step.rho_next.density(g) - 1.0)) == 0.0
    assert step.transport_cost == 0.0
    assert step.converged


def test_uniform_near_stationary_under_blur():
    # the blur backend ships mass both ways; uniform is its fixed point only
    # up to the lattice asymmetry of the reflected kernel
    g = make_grid(0.0, 1.0, 16)
    step = jko.jko_step(uniform(g), ENTROPY, affine_p(g), 1e-3, g,
                        blur_opts(1e-3))
    assert np.max(np.abs(step.rho_next.density(g) - 1.0)) <= 5e-4
    assert step.transport_cost > 0.0


# ------------------------------------------------------- one-step max principle

@pytest.mark.parametrize("backend", ["mirror", "projected", "entropic"])
def test_one_step_max_principle(backend):
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    h = 1e-3
    m2 = 3.0
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        v = 0.1 + 0.9 * rng.random(g.n_cells)
        d = m2 * v / v.max()
        rho = DensityField.from_masses(d * g.dx, require_unit_mass=False)
        if backend == "entropic":
            opts = blur_opts(h)
        else:
            opts = jko.JkoOptions(backend=backend)
        step = jko.jko_step(rho, ENTROPY, p, h, g, opts)
        assert float(step.rho_next.density(g).max()) <= m2 + 1e-8


# ------------------------------------------- agreement with one explicit step

def test_single_step_matches_explicit_solver_under_h_refinement():
    # entropy energy, p constant 2: one movement step should reproduce one
    # explicit heat update to leading order, with the gap shrinking as h does
    g = make_grid(0.0, 1.0, 16)
    p2 = ExponentField.constant(2.0, g.n_cells)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    dx = g.dx
    errs = []
    for h in (1e-3, 5e-4):
        step = jko.jko_step(rho0, ENTROPY, p2, h, g,
                            blur_opts(h, factor=1.0))
        explicit = rho0.density(g) + h * pde.rhs(rho0, ENTROPY, p2, g)
        err = float(np.sum(np.abs(step.rho_next.density(g) - explicit)) * dx)
        assert err <= 300.0 * (h * h + h * dx * dx)
        errs.append(err)
    assert errs[1] <= 0.35 * errs[0]


# ------------------------------------------------------------------- run_flow

def test_run_flow_zero_horizon_returns_initial_state_only():
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    traj = jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-2, 0.0, g)
    assert len(traj.states) == 1
    assert traj.steps == []
    assert traj.times.tolist() == [0.0]
    assert traj.states[0] is rho0


def test_run_flow_energies_nonincreasing():
    g = make_grid(0.0, 1.0, 16)
    h = 5e-3
    traj = jko.run_flow(DensityField.cosine_bump(g, amplitude=0.7), ENTROPY,
                        affine_p(g), h, 40 * h, g, blur_opts(h))
    energies = [total_energy(s, ENTROPY, g) for s in traj.states]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)


def test_run_flow_mass_conserved_every_step():
    g = make_grid(0.0, 1.0, 16)
    h = 5e-3
    traj = jko.run_flow(DensityField.cosine_bump(g, amplitude=0.7), ENTROPY,
                        affine_p(g), h, 20 * h, g, blur_opts(h))
    for state in traj.states:
        assert abs(integrate(state.density(g), g) - 1.0) <= 1e-9


def test_long_run_settles_at_the_energy_floor():
    # blur drives any start toward uniform, whose energy is the Jensen floor:
    # here |domain| * G(1) = 0 for the entropy model
    g = make_grid(0.0, 1.0, 16)
    h = 0.02
    traj = jko.run_flow(DensityField.cosine_bump(g, amplitude=0.9), ENTROPY,
                        affine_p(g), h, 2.0, g, blur_opts(h))
    assert abs(total_energy(traj.states[-1], ENTROPY, g)) <= 1e-3


def test_run_flow_rejects_bad_horizon_and_step():
    g = make_grid(0.0, 1.0, 8)
    rho0 = uniform(g)
    with pytest.raises(ValueError):
        jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-2, -1.0, g)
    with pytest.raises(NonpositiveParameterError):
        jko.run_flow(rho0, ENTROPY, affine_p(g), 0.0, 1.0, g)


def test_run_flow_prefixes_step_index_on_failure():
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.6)
    with pytest.raises(NumericalBlowupError, match=r"^step 1:"):
        jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-3, 1e-3, g, opts)


class _CodedError(RuntimeError):
    """An exception whose constructor takes more than a message."""

    def __init__(self, message, code):
        super().__init__(message, code)
        self.code = code


def test_run_flow_reraises_the_step_exception_itself(monkeypatch):
    g = make_grid(0.0, 1.0, 8)
    rho0 = uniform(g)
    calls, raised = [], []

    def failing_step(rho, *args):
        calls.append(rho)
        if len(calls) == 2:
            raised.append(_CodedError("solver gave up", 7))
            raise raised[0]
        return SimpleNamespace(rho_next=rho)

    monkeypatch.setattr(jko, "jko_step", failing_step)
    with pytest.raises(_CodedError) as info:
        jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-2, 3e-2, g)
    assert info.value is raised[0]
    assert info.value.code == 7
    assert info.value.args == ("step 2: solver gave up", 7)


# ------------------------------------------------------------ shared bisection

def _fixed_count_halving(f, lo, hi, step, halvings):
    """Bracket growth then exactly `halvings` halvings: the reference loop."""
    for _ in range(200):
        bad = f(lo) > 0.0
        if not np.any(bad):
            break
        lo = np.where(bad, lo - step, lo)
    for _ in range(200):
        bad = f(hi) < 0.0
        if not np.any(bad):
            break
        hi = np.where(bad, hi + step, hi)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        up = f(mid) >= 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("with_zero", [True, False])
def test_bisection_is_bit_identical_to_fixed_count_halving(with_zero):
    # -7.3 needs the lower end grown, 3.7 and 40/3 the upper end; a root at
    # exactly 0 never reaches adjacent doubles, so only the cap stops it
    roots = np.array([-7.3, 0.0, 3.7, 40.0 / 3.0] if with_zero else [-7.3, 3.7, 40.0 / 3.0])
    evaluations = {"shared": 0, "reference": 0}

    def counted(key):
        def f(x):
            evaluations[key] += 1
            return np.sinh(x - roots)
        return f

    start = np.full(roots.size, 1.5)
    lo, hi = bisect(counted("shared"), start - 1.0, start + 1.0, 1.0, 120)
    want = _fixed_count_halving(counted("reference"), start - 1.0, start + 1.0, 1.0, 120)
    np.testing.assert_array_equal(0.5 * (lo + hi), want)
    np.testing.assert_allclose(want, roots, rtol=1e-15, atol=1e-30)
    if with_zero:
        assert evaluations["shared"] == evaluations["reference"]
    else:
        assert evaluations["shared"] < evaluations["reference"] - 50


def _column(e, log_target, dx=1.0 / 32.0, eps=0.5):
    """The scalar column equation and its slope, as _solve_column_scalar poses it."""
    def pair(sig):
        t = np.exp(sig) / dx
        return sig + e.deriv(t) / eps - log_target, 1.0 + jko._clamped_curvature(e, t) / eps
    return pair


ENERGIES = {"entropy": ENTROPY, "quadratic": QUADRATIC,
            "power1.5": builtin_energy("power", m=1.5),
            "power3": builtin_energy("power", m=3.0)}

# Increasing functions that are exactly 0 over a run of doubles around the
# root, with the bracket each starts from: each one-ulp Newton push lands on
# another zero.
FLAT = {"absorbed_by_one": (lambda x: (x + 1.0) - 1.0, -1.0, 1.0),
        "absorbed_by_1e8": (lambda x: (x - 3.0 + 1e8) - 1e8, 2.0, 4.5)}

# exp(sigma)/dx <= RHO_FLOOR below sigma = -31.1: the first three roots sit in
# the clamp, where the slope drops to 1; the bracket midpoint -25 is far from
# all of them. The near-unit roots, within 0.05 of sigma = 0, are columns
# holding almost all the mass, where the column function is flat in floating
# point around its root.
COLUMN_ROOTS = {name: [-45.0, -36.0, -31.5, -20.0, -3.0, 0.7, 4.2] for name in ENERGIES}
COLUMN_ROOTS["near_unit_column"] = np.linspace(-0.05, 0.05, 20)


@pytest.mark.parametrize("name", sorted(ENERGIES) + ["near_unit_column"] + sorted(FLAT))
def test_newton_mode_agrees_with_bisection(name):
    if name in FLAT:
        f, lo, hi = FLAT[name]
        pair, roots = (lambda x: (f(x), np.ones_like(x))), None
        lo, hi = np.array([lo]), np.array([hi])
    else:
        roots = np.asarray(COLUMN_ROOTS[name])
        e = ENERGIES.get(name, ENTROPY)
        pair = _column(e, _column(e, np.zeros(roots.size))(roots)[0])
        lo, hi = np.full(roots.size, -60.0), np.full(roots.size, 10.0)
    evaluations = {"slope": 0, "plain": 0}

    def counted(key):
        def f(x):
            evaluations[key] += 1
            value, slope = pair(x)
            return (value, slope) if key == "slope" else value
        return f

    newton = 0.5 * np.add(*bisect(counted("slope"), lo, hi, 1.0, 120, with_slope=True))
    plain = 0.5 * np.add(*bisect(counted("plain"), lo, hi, 1.0, 120))
    ulp = np.spacing(np.maximum(1.0, np.abs(plain)))
    assert np.all(np.abs(newton - plain) <= 4.0 * ulp)
    if name == "near_unit_column":
        # near 0 the error is absolute: a few ulps of the right side, about 7
        np.testing.assert_allclose(plain, roots, rtol=0.0, atol=4e-15)
    if name in ENERGIES:
        np.testing.assert_allclose(plain, roots, rtol=1e-13)
        if name == "entropy":
            assert evaluations["slope"] <= 8
        assert evaluations["slope"] < evaluations["plain"]


# ---------------------------------------------------------------- step plan

def test_step_plan_is_reused_and_read_only(monkeypatch):
    monkeypatch.setattr(jko, "_PLANS", {})
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    opts = blur_opts(1e-3)
    first = jko.jko_step(rho0, ENTROPY, p, 1e-3, g, opts)
    plan = jko._step_plan(g, p, 1e-3, opts)
    second = jko.jko_step(rho0, ENTROPY, p, 1e-3, g, opts)
    assert jko._step_plan(g, p, 1e-3, opts) is plan
    assert np.array_equal(first.rho_next.mass, second.rho_next.mass)
    assert first.iterations == second.iterations
    for arr in (plan[0].values, plan[1], plan[2]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_step_plan_follows_its_inputs(monkeypatch):
    monkeypatch.setattr(jko, "_PLANS", {})
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    h = 1e-3
    opts = blur_opts(h)
    plan = jko._step_plan(g, p, h, opts)
    wider = jko._step_plan(g, p, h, blur_opts(h, factor=1.0))
    longer = jko._step_plan(g, p, 2 * h, opts)
    assert wider is not plan and not np.array_equal(wider[1], plan[1])
    assert longer is not plan and not np.array_equal(longer[0].values, plan[0].values)
    p.values[0] += 0.5
    edited = jko._step_plan(g, p, h, opts)
    assert edited is not plan
    np.testing.assert_array_equal(edited[0].values,
                                  jko.transport.build_cost(g, p, h).values)


def test_run_flow_builds_the_temperatures_once(monkeypatch):
    monkeypatch.setattr(jko, "_PLANS", {})
    calls = []
    original = jko._entropic_temperatures

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(jko, "_entropic_temperatures", counted)
    g = make_grid(0.0, 1.0, 16)
    h = 1e-3
    traj = jko.run_flow(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY,
                        affine_p(g), h, 5 * h, g, blur_opts(h))
    assert len(traj.steps) == 5
    assert len(calls) == 1


# ----------------------------------------------------------- invariant sweep

# Total dual iterations of each 5-step flow, taken once with the plain
# bisection column solves that the safeguarded Newton ones replaced.
SWEEP_ITERATIONS = {
    ("entropy", "constant", None): 622, ("entropy", "constant", 0.03): 188,
    ("entropy", "ramp", None): 546, ("entropy", "ramp", 0.03): 475,
    ("quadratic", "constant", None): 824, ("quadratic", "constant", 0.03): 229,
    ("quadratic", "ramp", None): 895, ("quadratic", "ramp", 0.03): 610,
    ("power1.5", "constant", None): 965, ("power1.5", "constant", 0.03): 266,
    ("power1.5", "ramp", None): 940, ("power1.5", "ramp", 0.03): 714,
    ("power3", "constant", None): 2572, ("power3", "constant", 0.03): 633,
    ("power3", "ramp", None): 5820, ("power3", "ramp", 0.03): 1535,
}


@pytest.mark.parametrize("name,exponent,smoothing", sorted(
    SWEEP_ITERATIONS, key=lambda k: (k[0], k[1], k[2] is not None)))
def test_entropic_sweep_keeps_iterations_and_invariants(name, exponent, smoothing):
    # n=32 with 10 vacuum cells (about 30%), eps=0.2; the uniform-temperature
    # cases run the scalar column solve, the smoothed ramp ones the mixed one
    g = make_grid(0.0, 1.0, 32)
    h = 1e-3
    rng = np.random.default_rng(2024)
    v = 0.1 + rng.random(g.n_cells)
    v[rng.choice(g.n_cells, size=10, replace=False)] = 0.0
    rho0 = DensityField.from_masses(v / v.sum())
    p = (ExponentField.constant(2.0, g.n_cells) if exponent == "constant"
         else ExponentField.affine(1.5, 3.0, g))
    opts = jko.JkoOptions(backend="entropic", eps=0.2, smoothing=smoothing,
                          exact_coupling=False)
    traj = jko.run_flow(rho0, ENERGIES[name], p, h, 5 * h, g, opts)
    assert all(step.converged for step in traj.steps)
    assert sum(step.iterations for step in traj.steps) == SWEEP_ITERATIONS[
        (name, exponent, smoothing)]
    for state in traj.states:
        assert abs(state.total_mass - 1.0) <= 1e-12
        assert state.mass.min() >= 0.0


@pytest.mark.parametrize("smoothing", [None, 0.05])
@pytest.mark.parametrize("exact", [True, False])
def test_entropic_step_on_zero_mass_is_silent(smoothing, exact):
    # every row potential is -inf at zero mass; the dual loop must not run
    g = make_grid(0.0, 1.0, 8)
    rho = DensityField(np.zeros(g.n_cells), require_unit_mass=False)
    opts = jko.JkoOptions(backend="entropic", smoothing=smoothing,
                          exact_coupling=exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = jko.jko_step(rho, ENTROPY, affine_p(g), 1e-3, g, opts)
    assert step.iterations == 0
    assert step.converged
    assert np.all(step.rho_next.mass == 0.0)
    assert np.all(step.coupling.gamma == 0.0)
    assert step.transport_cost == 0.0


# ------------------------------------------------------- optimality residual

def test_el_residual_zero_at_uniform():
    g = make_grid(0.0, 1.0, 16)
    step = jko.jko_step(uniform(g), ENTROPY, affine_p(g), 1e-3, g,
                        jko.JkoOptions(backend="mirror"))
    assert jko.el_residual(step, ENTROPY, affine_p(g), 1e-3, g) == 0.0


def _one_step_residual(n, h):
    g = make_grid(0.0, 1.0, n)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    step = jko.jko_step(rho0, ENTROPY, p, h, g, blur_opts(h, exact=True))
    return jko.el_residual(step, ENTROPY, p, h, g)


def test_el_residual_halves_with_h():
    r_coarse = _one_step_residual(16, 2e-3)
    r_fine = _one_step_residual(16, 1e-3)
    assert r_fine <= 0.75 * r_coarse


def test_el_residual_shrinks_under_joint_refinement():
    r_coarse = _one_step_residual(16, 2e-3)
    r_fine = _one_step_residual(32, 1e-3)
    assert r_fine <= 0.75 * r_coarse


# ------------------------------------------------------------- dissipation

def test_dissipation_check_trivial_on_stationary_flow():
    g = make_grid(0.0, 1.0, 12)
    p = affine_p(g)
    traj = jko.run_flow(uniform(g), ENTROPY, p, 1e-3, 5e-3, g,
                        jko.JkoOptions(backend="mirror"))
    report = jko.dissipation_check(traj, ENTROPY, p, 1e-3, g)
    assert np.max(np.abs(report.per_step_slack)) <= 1e-12
    assert report.total_dissipation <= 1e-12


def test_dissipation_slack_shrinks_with_h():
    g = make_grid(0.0, 1.0, 32)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    worsts = []
    for h in (2e-3, 1e-3):
        traj = jko.run_flow(rho0, ENTROPY, p, h, 20 * h, g, blur_opts(h))
        report = jko.dissipation_check(traj, ENTROPY, p, h, g)
        assert report.worst_step_slack >= -1e-6
        worsts.append(float(np.max(np.abs(report.per_step_slack))))
    assert worsts[1] <= 0.75 * worsts[0]


def test_dissipation_check_takes_one_dt_per_step():
    # a reference-PDE trajectory has uneven steps; each slack uses its own
    # dt, exactly as a loop over the steps would, and a scalar h is the same
    # as an array of it
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY,
                     p.conjugate(), pde.PdeConfig(t_end=0.02, stride=3), g)
    dt = np.diff(traj.times)
    assert dt.min() < dt.max()
    report = jko.dissipation_check(traj, ENTROPY, p, dt, g)
    energies = [total_energy(s, ENTROPY, g) for s in traj.states]
    by_loop = [(energies[k - 1] - energies[k])
               - float(traj.times[k] - traj.times[k - 1])
               * jko.dissipation_rate(traj.states[k], ENTROPY, p, g)
               for k in range(1, len(traj))]
    assert report.per_step_slack.tolist() == by_loop
    assert report.energies.tolist() == energies
    h = float(dt[0])
    same = jko.dissipation_check(traj, ENTROPY, p, np.full(dt.size, h), g)
    scalar = jko.dissipation_check(traj, ENTROPY, p, h, g)
    assert np.array_equal(same.per_step_slack, scalar.per_step_slack)
    assert same.cumulative_slack == scalar.cumulative_slack
    with pytest.raises(SizeMismatchError):
        jko.dissipation_check(traj, ENTROPY, p, dt[1:], g)


def test_dissipation_rate_positive_off_uniform():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    rate = jko.dissipation_rate(rho, ENTROPY, affine_p(g), g)
    assert rate > 0.0
    assert jko.dissipation_rate(uniform(g), ENTROPY, affine_p(g), g) == 0.0


# ----------------------------------------------------------- step inequality

@pytest.mark.parametrize("backend", ["mirror", "projected"])
def test_step_never_raises_energy_plus_cost(backend):
    g = make_grid(0.0, 1.0, 12)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.7)
    opts = jko.JkoOptions(backend=backend, exact_coupling=True)
    for h in (5e-2, 1e-2):
        step = jko.jko_step(rho0, ENTROPY, p, h, g, opts)
        assert (step.energy_after + step.transport_cost
                <= step.energy_before + 1e-8)
        assert step.energy_before == pytest.approx(
            total_energy(rho0, ENTROPY, g), abs=1e-14)


def test_mirror_and_projected_land_close():
    g = make_grid(0.0, 1.0, 12)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.7)
    a = jko.jko_step(rho0, ENTROPY, p, 0.05, g,
                     jko.JkoOptions(backend="mirror"))
    b = jko.jko_step(rho0, ENTROPY, p, 0.05, g,
                     jko.JkoOptions(backend="projected"))
    gap = np.sum(np.abs(a.rho_next.density(g) - b.rho_next.density(g))) * g.dx
    assert gap <= 5e-4


def test_jko_step_is_deterministic():
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    for opts in (jko.JkoOptions(backend="mirror"), blur_opts(1e-3)):
        s1 = jko.jko_step(rho0, ENTROPY, p, 1e-3, g, opts)
        s2 = jko.jko_step(rho0, ENTROPY, p, 1e-3, g, opts)
        assert np.array_equal(s1.rho_next.density(g), s2.rho_next.density(g))
        assert s1.transport_cost == s2.transport_cost


def test_quadratic_energy_also_descends():
    g = make_grid(0.0, 1.0, 16)
    h = 5e-3
    traj = jko.run_flow(DensityField.cosine_bump(g, amplitude=0.6), QUADRATIC,
                        affine_p(g), h, 20 * h, g, blur_opts(h))
    energies = [total_energy(s, QUADRATIC, g) for s in traj.states]
    assert np.all(np.diff(energies) <= 1e-12)


# ------------------------------------------------------------------ options

def test_options_validation():
    with pytest.raises(ValueError):
        jko.JkoOptions(backend="simplex")
    with pytest.raises(NonpositiveParameterError):
        jko.JkoOptions(eps=0.0)
    with pytest.raises(NonpositiveParameterError):
        jko.JkoOptions(smoothing=-0.1)
    with pytest.raises(ValueError):
        jko.JkoOptions(max_iters=0)
    with pytest.raises(NonpositiveParameterError):
        jko.JkoOptions(tol=0.0)


def test_too_wide_smoothing_is_rejected():
    # the lattice displacement second moment saturates; a requested blur
    # past that cap has no matching temperature
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.6)
    with pytest.raises(NumericalBlowupError):
        jko.jko_step(rho0, ENTROPY, affine_p(g), 1e-3, g, opts)
