"""Minimizing-movement stepper: stationarity, comparisons against the
explicit solver, optimality diagnostics, and bookkeeping invariants."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from varwass import cli, finsler, jko, pde, transport
from varwass._kernels import bisect, logsumexp
from varwass.energy import RHO_FLOOR, builtin_energy, total_energy
from varwass.errors import (InvalidParameterError, NonpositiveParameterError,
                             NumericalBlowupError, SizeMismatchError, VarwassError)
from varwass.grid import integrate, make_grid
from varwass.varexp import DensityField, ExponentField, conjugate

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

@pytest.mark.parametrize("backend", ["mirror"])
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

@pytest.mark.parametrize("backend", ["mirror", "entropic"])
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
    assert traj.states[0].mass.tobytes() == rho0.mass.tobytes()
    assert traj.states[0].require_unit_mass == rho0.require_unit_mass


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


def test_run_flow_with_a_vast_step_count_raises_its_first_steps_error():
    # 5e298 steps: the flow grows its mass stack as it goes, so the step
    # whose cost underflows raises its typed error, not the allocation
    g = make_grid(0.0, 1.0, 8)
    with pytest.raises(InvalidParameterError, match=r"^step 1: smallest and largest cost"):
        jko.run_flow(uniform(g), ENTROPY, affine_p(g), 1e-300, 0.05, g)


def test_run_flow_writes_every_state_into_one_read_only_stack():
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField(0.5 * DensityField.cosine_bump(g, amplitude=0.3).mass,
                        require_unit_mass=False)
    traj = jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-2, 0.2, g)
    assert traj.masses.shape == (21, 8) and not traj.masses.flags.writeable
    assert traj.masses.flags.c_contiguous and traj.masses.flags.owndata
    for k, step in enumerate(traj.steps, start=1):
        assert traj.masses[k].tobytes() == step.rho_next.mass.tobytes()
    assert all(not s.require_unit_mass for s in traj.states)


def test_run_flow_prefixes_step_index_on_failure():
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.6)
    with pytest.raises(NumericalBlowupError, match=r"^step 1:"):
        jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-3, 1e-3, g, opts)


def _capture_plans(monkeypatch):
    """A function from a step to its plan, for every jko_step call from here
    on. A flow's steps keep no plan, so the plan is taken where the step
    forms its coupling: from Coupling.of_plan (the solver's own plan) or
    from solve_exact (the exact one)."""
    plans, built = {}, []
    real_step, real_of_plan, real_exact = (jko.jko_step, transport.Coupling.of_plan,
                                           transport.solve_exact)

    def of_plan(*args):
        built.append(real_of_plan(*args))
        return built[-1]

    def solve_exact(*args):
        result = real_exact(*args)
        built.append(result.coupling)
        return result

    def step(*args, **kwargs):
        result = real_step(*args, **kwargs)
        plans[id(result)] = built.pop().gamma
        return result

    monkeypatch.setattr(transport.Coupling, "of_plan", of_plan)
    monkeypatch.setattr(transport, "solve_exact", solve_exact)
    monkeypatch.setattr(jko, "jko_step", step)
    return lambda result: plans[id(result)]


@pytest.mark.parametrize("flow", ["readme", "jko_config"])
def test_a_flow_keeps_no_plan(flow):
    # what the trajectory of a flow keeps, traced once the plan cache is
    # warm: its (K, n) stack and each step's diagnostics and new state. The
    # README compare flow (100 entropic steps) kept 3.52 MB and the CI jko
    # config (5 default steps, exact couplings) 0.15 MB while each step held
    # its n-by-n plan; 0.153 and 0.017 MB were measured without
    if flow == "readme":
        run, bound = lambda: _readme_flow(100), 0.25e6
    else:
        cfg = cli.load_config(Path(__file__).parent / "configs" / "jko.yaml")
        bound = 0.05e6

        def run():
            return jko.run_flow(cfg.rho0, cfg.energy, cfg.p, cfg.h, cfg.t_end, cfg.grid,
                                cfg.jko_opts)
    run()
    tracemalloc.start()
    try:
        traj = run()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < bound, kept
    assert all(s.coupling is None for s in traj.steps)


def test_run_flow_reuses_a_step_that_returns_its_input(monkeypatch):
    # the CI jko config: step 4 keeps the stay-put plan and returns its input
    # masses bit for bit, so step 5 would solve the same problem again
    g = make_grid(0.0, 1.0, 64)
    rho0 = DensityField.cosine_bump(g, amplitude=0.4)
    calls = []
    plan_of = _capture_plans(monkeypatch)
    real = jko.jko_step

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(jko, "jko_step", counted)
    traj = jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-2, 0.05, g)
    assert len(calls) == 4 and len(traj.steps) == 5
    assert traj.steps[4] is traj.steps[3]
    assert traj.states[4].mass.tobytes() == traj.states[3].mass.tobytes()
    again = real(traj.states[4], ENTROPY, affine_p(g), 1e-2, g)
    assert again.rho_next.mass.tobytes() == traj.states[5].mass.tobytes()
    assert dataclasses.replace(again, rho_next=None, coupling=None) == dataclasses.replace(
        traj.steps[4], rho_next=None, coupling=None)
    np.testing.assert_array_equal(again.coupling.gamma, plan_of(traj.steps[4]))


def test_run_flow_reuses_an_entropic_step_once_its_guess_repeats(monkeypatch):
    # zero mass stays put; step 1 runs without a guess and step 2 with the
    # guess 2 * 0 - 0, so only from step 3 on do a step's inputs repeat
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField(np.zeros(g.n_cells), require_unit_mass=False)
    guesses = []
    real = jko.jko_step

    def counted(*args, _warm=None):
        guesses.append(_warm.guess)
        return real(*args, _warm=_warm)

    monkeypatch.setattr(jko, "jko_step", counted)
    traj = jko.run_flow(rho0, ENTROPY, affine_p(g), 1e-3, 5e-3, g, blur_opts(1e-3))
    assert len(traj.steps) == 5
    assert guesses[0] is None and len(guesses) == 2
    np.testing.assert_array_equal(guesses[1], rho0.mass)
    assert all(s is traj.steps[1] for s in traj.steps[2:])


class _CodedError(RuntimeError):
    """An exception whose constructor takes more than a message."""

    def __init__(self, message, code):
        super().__init__(message, code)
        self.code = code


def test_run_flow_reraises_the_step_exception_itself(monkeypatch):
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    calls, raised = [], []

    def failing_step(rho, *args, **kwargs):
        # a step that moves its masses, so run_flow calls the next one
        calls.append(rho)
        if len(calls) == 2:
            raised.append(_CodedError("solver gave up", 7))
            raise raised[0]
        return SimpleNamespace(rho_next=DensityField(rho.mass[::-1].copy()), energy_after=0.0)

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
    # exactly 0 never reaches adjacent doubles by halving, so only the cap
    # stops the reference there
    roots = np.array([-7.3, 0.0, 3.7, 40.0 / 3.0] if with_zero else [-7.3, 3.7, 40.0 / 3.0])
    evaluations = {"shared": 0, "reference": 0}

    def counted(key):
        def f(x):
            evaluations[key] += 1
            value = np.sinh(x - roots)
            return (value, np.cosh(x - roots)) if key == "shared" else value
        return f

    start = np.full(roots.size, 1.5)
    lo, hi = bisect(counted("shared"), start - 1.0, start + 1.0)
    want = _fixed_count_halving(counted("reference"), start - 1.0, start + 1.0, 1.0, 120)
    got = 0.5 * (lo + hi)
    nonzero = roots != 0.0
    np.testing.assert_array_equal(got[nonzero], want[nonzero])
    np.testing.assert_allclose(want, roots, rtol=1e-15, atol=1e-30)
    np.testing.assert_allclose(got, roots, rtol=1e-15, atol=1e-30)
    # Newton steps close every bracket to adjacent doubles, the one around
    # 0 too, long before the cap
    assert evaluations["shared"] < evaluations["reference"] - 50


def _column(e, log_target, dx=1.0 / 32.0, eps=0.5):
    """The scalar column equation and its slope, as _solve_column_scalar poses it:
    sigma + G'(exp(sigma)/dx)/eps = log_target."""
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

    newton = 0.5 * np.add(*bisect(counted("slope"), lo, hi))
    plain = _fixed_count_halving(counted("plain"), lo, hi, 1.0, 120)
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


def test_entropy_column_root_in_closed_form_agrees_with_newton():
    # the oracle's closed form: three roots in the RHO_FLOOR clamp, and one at
    # the clamp point itself, where the free and the clamped branch meet
    dx, eps = 1.0 / 32.0, 0.5
    roots = np.append(COLUMN_ROOTS["entropy"], math.log(RHO_FLOOR * dx))
    target = _column(ENTROPY, np.zeros(roots.size), dx, eps)(roots)[0]
    lo, hi = np.full(roots.size, -60.0), np.full(roots.size, 10.0)
    newton = 0.5 * np.add(*bisect(_column(ENTROPY, target, dx, eps), lo, hi))
    closed = _solve_column_scalar(target, ENTROPY, dx, eps)
    ulp = np.spacing(np.maximum(1.0, np.abs(newton)))
    assert np.all(np.abs(closed - newton) <= 4.0 * ulp)


def _readme_flow(steps):
    """The README compare flow: n=64, p=2, entropy, smoothing dx/2, h=2e-4."""
    g = make_grid(0.0, 1.0, 64)
    h = 2e-4
    p = ExponentField.constant(2.0, g.n_cells)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.5 * g.dx, exact_coupling=False)
    return jko.run_flow(rho0, ENTROPY, p, h, steps * h, g, opts)


def test_bisection_raises_when_its_bracket_cannot_grow_to_the_root():
    # 200 unit steps take hi from 1 to 201, short of the root at 500: a
    # bracket that does not hold the root is an error, not an answer
    with pytest.raises(NumericalBlowupError, match="200 steps"):
        bisect(lambda x: (x - 500.0, np.ones_like(x)), np.zeros(1), np.ones(1))


@pytest.mark.parametrize("shape", ["linear", "sinh"])
@pytest.mark.parametrize("root,lo,hi", [(0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (-2.0, -2.0, 1.0),
                                        (1.0, 0.0, 1.0), (1e-300, 1e-300, 1.0)])
def test_a_root_on_a_bracket_end_closes_the_bracket_in_a_few_evaluations(shape, root, lo, hi):
    # the converged Newton point lands on the end, and its one-ulp push
    # takes it past; halving alone took 55 evaluations for the root at 1 and
    # stopped on the cap, bracket unclosed, for the roots at 0. At 1e-300
    # the target x - f(x) / f'(x) cancels to 0, just past the end, which
    # took the cap too (122 evaluations, bracket (1e-300, 7.5e-37) on the
    # line). 4 (linear) and 7 or 8 (sinh) evaluations, the two checks of
    # the bracket included, were measured
    evaluations = []

    def f(x):
        evaluations.append(1)
        if shape == "linear":
            return x - root, np.ones_like(x)
        return np.sinh(x - root), np.cosh(x - root)

    got_lo, got_hi = bisect(f, np.array([lo]), np.array([hi]))
    assert np.nextafter(got_lo[0], np.inf) == got_hi[0]
    assert root in (got_lo[0], got_hi[0])
    assert len(evaluations) <= 8


def test_dual_loop_never_calls_the_root_finder(monkeypatch):
    # the README compare flow, 15 steps: the finder runs once, for the
    # temperatures, and the Newton loop solves no column equation
    monkeypatch.setattr(jko, "_PLANS", {})
    calls = []
    real = jko.bisect

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jko, "bisect", counted)
    traj = _readme_flow(15)
    assert len(calls) == 1
    assert all(s.converged for s in traj.steps)


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
    np.testing.assert_array_equal(plan.q, conjugate(p).values)
    # one temperature for every row: the same flow at constant p has a kernel
    flat = jko._step_plan(g, ExponentField.constant(2.0, g.n_cells), 1e-3, opts)
    np.testing.assert_array_equal(flat.kernel, np.exp(flat.log_ref))
    for arr in (plan.cost.values, plan.eps_vec, plan.log_ref, plan.q, flat.kernel):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("p_kind,smoothing,has_kernel", [
    ("affine", False, True), ("constant", True, True), ("affine", True, False),
], ids=["eps", "smoothed-constant-p", "per-row"])
def test_step_plan_builds_the_kernel_only_for_one_temperature(monkeypatch, p_kind, smoothing,
                                                              has_kernel):
    # the plan, not the dual loop, decides whether the loop runs on kernel
    # products: a per-row plan holds no kernel at all
    monkeypatch.setattr(jko, "_PLANS", {})
    g = make_grid(0.0, 1.0, 16)
    h = 1e-3
    p = affine_p(g) if p_kind == "affine" else ExponentField.constant(2.0, g.n_cells)
    opts = blur_opts(h) if smoothing else jko.JkoOptions(backend="entropic", eps=0.2)
    plan = jko._step_plan(g, p, h, opts)
    assert bool(np.all(plan.eps_vec == plan.eps_vec[0])) is has_kernel
    if has_kernel:
        np.testing.assert_array_equal(plan.kernel, np.exp(plan.log_ref))
    else:
        assert plan.kernel is None


def test_every_cost_is_the_one_power_cost(monkeypatch):
    # build_cost, the temperatures' lattice costs and starting guess, and the
    # three terms of the reflected kernel all go through transport._power_cost
    monkeypatch.setattr(jko, "_PLANS", {})
    calls = []
    real = jko.transport._power_cost

    def counted(*args):
        calls.append(len(args))
        return real(*args)

    monkeypatch.setattr(jko.transport, "_power_cost", counted)
    g = make_grid(0.0, 1.0, 16)
    h = 1e-3
    jko.transport.build_cost(g, affine_p(g), h)
    assert calls == [3]
    jko._entropic_temperatures(blur_opts(h), affine_p(g), h, g)
    assert calls == [3, 3, 3]
    jko._log_reference(g, affine_p(g), h, np.full(g.n_cells, 0.2))
    assert calls == [3, 3, 3, 4, 4, 4]
    calls.clear()
    jko._step_plan(g, affine_p(g), h, blur_opts(h))
    assert calls == [3, 3, 3, 4, 4, 4]


def test_step_plan_kernel_holds_zero_where_its_exponential_is_subnormal(monkeypatch):
    # the README compare plan: a subnormal operand slows every kernel product
    monkeypatch.setattr(jko, "_PLANS", {})
    g = make_grid(0.0, 1.0, 64)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.5 * g.dx)
    plan = jko._step_plan(g, ExponentField.constant(2.0, g.n_cells), 2e-4, opts)
    full = np.exp(plan.log_ref)
    tiny = np.finfo(float).tiny
    assert np.count_nonzero((full > 0.0) & (full < tiny))
    np.testing.assert_array_equal(plan.kernel, np.where(full < tiny, 0.0, full))


def test_step_plan_follows_its_inputs(monkeypatch):
    monkeypatch.setattr(jko, "_PLANS", {})
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    h = 1e-3
    opts = blur_opts(h)
    plan = jko._step_plan(g, p, h, opts)
    wider = jko._step_plan(g, p, h, blur_opts(h, factor=1.0))
    longer = jko._step_plan(g, p, 2 * h, opts)
    assert wider is not plan and not np.array_equal(wider.eps_vec, plan.eps_vec)
    assert longer is not plan and not np.array_equal(longer.cost.values, plan.cost.values)
    p.values[0] += 0.5
    edited = jko._step_plan(g, p, h, opts)
    assert edited is not plan
    np.testing.assert_array_equal(edited.cost.values,
                                  jko.transport.build_cost(g, p, h).values)
    np.testing.assert_array_equal(edited.q, conjugate(p).values)


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


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_temperatures_meet_their_moment_target_silently(n):
    # rough exponents, 1.05 to 6 shuffled over the cells, and smoothing down
    # to dx/100, where the moment's slope in log eps is so small that a
    # Newton quotient can overflow
    g = make_grid(0.0, 1.0, n)
    disp = g.dx * np.arange(1 - n, n)
    for seed, factor, h in itertools.product((0, 1, 2), (0.01, 0.1, 0.5, 1.0), (1e-3, 1e-2)):
        p = ExponentField(np.random.default_rng(seed).permutation(np.linspace(1.05, 6.0, n)))
        opts = jko.JkoOptions(backend="entropic", smoothing=factor * g.dx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = jko._entropic_temperatures(opts, p, h, g)
        pv = p.values[:, None]
        w = np.exp(-np.abs(disp) ** pv / (pv * h ** (pv - 1.0)) / eps[:, None])
        moment = (disp**2 * w).sum(axis=1) / w.sum(axis=1)
        np.testing.assert_allclose(moment, opts.smoothing**2, rtol=1e-13)


@pytest.mark.parametrize("p1,h,smoothing,most", [
    (0.0, 2e-4, 1.0 / 128.0, 12),  # the README compare config
    (1.0, 1e-2, math.sqrt(0.8e-2), 30),
], ids=["readme", "affine"])
def test_temperatures_take_few_evaluations(monkeypatch, p1, h, smoothing, most):
    evaluations = []
    real = jko.bisect

    def counted(f, *args):
        def f_counted(x):
            evaluations.append(1)
            return f(x)
        return real(f_counted, *args)

    monkeypatch.setattr(jko, "bisect", counted)
    g = make_grid(0.0, 1.0, 64)
    opts = jko.JkoOptions(backend="entropic", smoothing=smoothing)
    jko._entropic_temperatures(opts, affine_p(g, 2.0, p1), h, g)
    assert len(evaluations) <= most


# ----------------------------------------------------------- invariant sweep

# Total dual iterations of each 5-step flow: (Newton-loop updates, the plain
# fixed-point loop that the Newton loop replaced). The plain counts were
# taken with bisection column solves; they stay as the ceiling that the
# Newton counts must not pass. The Newton counts are warm-started from the
# extrapolated masses and count chord updates from a carried matrix as well
# as fresh Newton steps: 419 in all, 305 of them fresh, where fresh steps
# alone took 383.
SWEEP_ITERATIONS = {
    ("entropy", "constant", None): (28, 622), ("entropy", "constant", 0.03): (21, 188),
    ("entropy", "ramp", None): (26, 546), ("entropy", "ramp", 0.03): (25, 475),
    ("quadratic", "constant", None): (27, 824), ("quadratic", "constant", 0.03): (23, 229),
    ("quadratic", "ramp", None): (26, 895), ("quadratic", "ramp", 0.03): (22, 610),
    ("power1.5", "constant", None): (27, 965), ("power1.5", "constant", 0.03): (24, 266),
    ("power1.5", "ramp", None): (27, 940), ("power1.5", "ramp", 0.03): (23, 714),
    ("power3", "constant", None): (34, 2572), ("power3", "constant", 0.03): (28, 633),
    ("power3", "ramp", None): (32, 5820), ("power3", "ramp", 0.03): (26, 1535),
}


def _vacuum_flow(name, exponent, smoothing, eps=0.2, steps=5):
    """n=32 with 10 vacuum cells (about 30%), h=1e-3: the sweep's flow."""
    g = make_grid(0.0, 1.0, 32)
    h = 1e-3
    rng = np.random.default_rng(2024)
    v = 0.1 + rng.random(g.n_cells)
    v[rng.choice(g.n_cells, size=10, replace=False)] = 0.0
    rho0 = DensityField.from_masses(v / v.sum())
    p = (ExponentField.constant(2.0, g.n_cells) if exponent == "constant"
         else ExponentField.affine(1.5, 3.0, g))
    opts = jko.JkoOptions(backend="entropic", eps=eps, smoothing=smoothing,
                          exact_coupling=False)
    return jko.run_flow(rho0, ENERGIES[name], p, h, steps * h, g, opts)


#: The sweep's flows, computed once and shared with the parity test below.
_sweep_flow = functools.lru_cache(maxsize=None)(_vacuum_flow)


@pytest.mark.parametrize("name,exponent,smoothing", sorted(
    SWEEP_ITERATIONS, key=lambda k: (k[0], k[1], k[2] is not None)))
def test_entropic_sweep_keeps_iterations_and_invariants(name, exponent, smoothing):
    # eps=0.2; the uniform-temperature cases run on kernel products, the
    # smoothed ramp ones on per-row temperatures in the log domain
    traj = _sweep_flow(name, exponent, smoothing)
    assert all(step.converged for step in traj.steps)
    newton, plain = SWEEP_ITERATIONS[(name, exponent, smoothing)]
    assert sum(step.iterations for step in traj.steps) == newton
    assert newton <= plain
    for state in traj.states:
        assert abs(state.total_mass - 1.0) <= 1e-12
        assert state.mass.min() >= 0.0


# ------------------------------------------- kernel products vs log domain

def _solve_column_scalar(log_target, e, dx, eps, start=None):
    """Roots sigma of the column equation (_column), per column.

    For the builtin entropy, G'(t) = log max(t, RHO_FLOOR) + 1, the left
    side is linear in sigma on each side of the clamp point
    sigma = log(RHO_FLOOR dx), with slope 1 + 1/eps above it and 1 below;
    it is increasing and continuous, so the root is the free branch's where
    that lies above the clamp point and the clamped branch's otherwise.
    The power energies take safeguarded Newton steps in bisect. G' >= 0
    puts the root at or below log_target L, and where it lies below L - 1,
    G'(exp(sigma)/dx) > eps puts it above log(dx (G')^-1(eps)) =
    log(dx e.legendre_deriv(eps)), so it lies at or above the lower of
    that and L - 1. Without a start that is the bracket (L alone lay more
    than 200 units above the root on rough steps, out of bisect's reach);
    with one, the bracket is start +- 1, for a start at the previous root.
    """
    if e is ENTROPY:
        free = (log_target + (math.log(dx) - 1.0) / eps) / (1.0 + 1.0 / eps)
        clamped = log_target - (math.log(RHO_FLOOR) + 1.0) / eps
        return np.where(free > math.log(RHO_FLOOR * dx), free, clamped)
    if start is None:
        lo = np.minimum(log_target - 1.0, math.log(dx * float(e.legendre_deriv(eps))))
        hi = log_target
    else:
        lo, hi = start - 1.0, start + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = bisect(_column(e, log_target, dx, eps), lo, hi)
    return 0.5 * (lo + hi)


def _solve_columns_mixed(W, eps_vec, e, dx, start=None):
    """Roots sigma_j = log sum_i exp(W_ij - G'(exp(sigma_j)/dx)/eps_i), per column.

    The column equation with per-row temperatures: the left-minus-right
    side increases in sigma_j with slope 1 + (sum_i q_ij/eps_i) G''(t_j) t_j,
    q the column softmax of its exponent. The bracket starts at start +- 1,
    by default at the column log-sum-exp of W.
    """
    inv_eps = 1.0 / eps_vec

    def f(sig):
        t = np.exp(sig) / dx
        lse, q = logsumexp(W - e.deriv(t)[None, :] / eps_vec[:, None], axis=0, weights=True)
        return sig - lse, 1.0 + (inv_eps @ q) * jko._clamped_curvature(e, t)

    start = logsumexp(W.T, axis=1) if start is None else start
    lo, hi = bisect(f, start - 1.0, start + 1.0)
    return 0.5 * (lo + hi)


def _log_domain_backend(plan, mu, e, dx, warm=None):
    """The dual block ascent that the Newton loop replaced, as the oracle
    of that loop: two n-by-n log-sum-exps per iteration, the row update in
    closed form and the column equations solved by root finding (the mixed
    solve for per-row temperatures), and the plain fixed-point step on the
    column potential. It stops at 1e-14 relative, so that the comparisons
    see the Newton loop's distance to the fixed point more than the
    oracle's own stopping error; where the plain loop contracts slowly,
    that error can still reach a few 1e-13. It always starts cold and
    ignores what the flow carries (warm). It reads the plan's log_ref and
    eps_vec, and takes the scalar column solve where the plan holds a
    kernel, that is where every row has the same temperature."""
    n = mu.size
    if mu.sum() == 0.0:
        return np.zeros((n, n)), 0, True
    log_ref, eps_vec = plan.log_ref, plan.eps_vec
    uniform = plan.kernel is not None
    epsr = eps_vec[:, None]
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    phi = e.deriv(mu / dx)
    u = np.zeros(n)
    sigma = None
    converged = False
    it = 0
    for it in range(1, jko.MAX_ITERS + 1):
        u = eps_vec * (log_mu - logsumexp(log_ref - phi[None, :] / epsr, axis=1))
        u = np.where(np.isfinite(log_mu), u, -np.inf)
        with np.errstate(invalid="ignore"):
            w_log = u[:, None] / epsr + log_ref
        if uniform:
            sigma = _solve_column_scalar(logsumexp(w_log.T, axis=1), e, dx,
                                         float(eps_vec[0]), sigma)
        else:
            sigma = _solve_columns_mixed(w_log, eps_vec, e, dx, sigma)
        phi_new = e.deriv(np.exp(sigma) / dx)
        delta = float(np.max(np.abs(phi_new - phi)))
        phi = phi_new
        if delta <= 1e-14 * (1.0 + float(np.max(np.abs(phi)))):
            converged = True
            break
    with np.errstate(invalid="ignore"):
        gam = np.exp(u[:, None] / epsr + log_ref - phi[None, :] / epsr)
    return _reference_rescale_rows(np.nan_to_num(gam, nan=0.0), mu), it, converged


def _assert_matches_log_domain(fast, monkeypatch, run):
    """run() again on the log-domain loop: at most its iterations in every
    step, every state's masses within 1e-12."""
    monkeypatch.setattr(jko, "_entropic_backend", _log_domain_backend)
    slow = run()
    assert all(a.iterations <= b.iterations for a, b in zip(fast.steps, slow.steps, strict=True))
    assert [s.converged for s in fast.steps] == [s.converged for s in slow.steps]
    for a, b in zip(fast.states, slow.states, strict=True):
        np.testing.assert_allclose(a.mass, b.mass, rtol=0.0, atol=1e-12)


def _count_log_sum_exps(monkeypatch):
    calls = []
    real = jko.logsumexp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jko, "logsumexp", counted)
    return calls


def test_readme_flow_runs_on_kernel_products_only(monkeypatch):
    # one temperature for every row and no sum near underflow: not a single
    # n-by-n log-sum-exp in the dual loops
    calls = _count_log_sum_exps(monkeypatch)
    fast = _readme_flow(15)
    assert not calls
    assert all(s.converged for s in fast.steps)
    _assert_matches_log_domain(fast, monkeypatch, lambda: _readme_flow(15))


def test_readme_flow_is_bit_identical_across_runs():
    first, second = _readme_flow(100), _readme_flow(100)
    # 6678 with the plain fixed-point step, 800 with Anderson mixing, 200
    # with Newton from the previous masses and 101 from the extrapolated
    # masses; with one Newton matrix carried through the flow every step
    # takes two updates, 200 in all, each a chord step but the first
    iterations = sum(s.iterations for s in first.steps)
    assert iterations == 200
    assert iterations <= 3339
    for a, b in zip(first.states, second.states, strict=True):
        np.testing.assert_array_equal(a.mass, b.mass)


# ------------------------------------------------ warm start from extrapolation

def _criterion3_flow():
    """Criterion 3's flow: n=32, p=2+x, smoothing sqrt(0.8 h), h=1e-3, 50 steps."""
    g = make_grid(0.0, 1.0, 32)
    h = 1e-3
    return jko.run_flow(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, affine_p(g),
                        h, 50 * h, g, blur_opts(h))


def test_readme_flow_states_match_a_cold_step_from_the_state_before():
    traj = _readme_flow(100)
    assert all(s.converged for s in traj.steps)
    assert [s.iterations for s in traj.steps] == [2] * 100
    g = make_grid(0.0, 1.0, 64)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.5 * g.dx, exact_coupling=False)
    p = ExponentField.constant(2.0, g.n_cells)
    for before, after in zip(traj.states, traj.states[1:]):
        cold = jko.jko_step(before, ENTROPY, p, 2e-4, g, opts)
        np.testing.assert_allclose(after.mass, cold.rho_next.mass, rtol=0.0, atol=1e-13)


def _count_newton_matrices(monkeypatch):
    """Record each Newton matrix the entropic loop builds (one inverse each)."""
    built = []
    real = jko.np.linalg.inv

    def counted(a):
        built.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(jko.np.linalg, "inv", counted)
    return built


@pytest.mark.parametrize("flow,warm_counts,cold_counts", [
    (lambda: _readme_flow(100), (1, 200), (100, 200)),
    (_criterion3_flow, (1, 150), (50, 101)),
], ids=["readme", "criterion3"])
def test_warm_start_takes_at_most_the_cold_newton_steps(monkeypatch, flow, warm_counts,
                                                        cold_counts):
    # (Newton matrices built, dual updates): the warm flow builds one matrix
    # and carries it through every step; the cold one, every step without
    # its guess and its carried matrix, builds one per step and reuses it
    # within that step only
    built = _count_newton_matrices(monkeypatch)
    warm = flow()
    warm_built = len(built)
    real = jko.jko_step
    monkeypatch.setattr(jko, "jko_step", lambda *args, _warm=None: real(*args))
    cold = flow()
    counts = [(n, sum(s.iterations for s in traj.steps))
              for n, traj in ((warm_built, warm), (len(built) - warm_built, cold))]
    assert counts == [warm_counts, cold_counts]
    assert counts[0][0] <= counts[1][0]
    assert all(s.converged for s in warm.steps + cold.steps)
    for a, b in zip(warm.states, cold.states, strict=True):
        np.testing.assert_allclose(a.mass, b.mass, rtol=0.0, atol=1e-13)


def test_step_rebuilds_when_the_carried_matrix_does_not_contract(monkeypatch):
    # the matrix that criterion 3's first step leaves behind (p=2+x,
    # entropy, per-row temperatures) is useless to a power(3) step on the
    # sweep's vacuum data at constant p: its chord try is dropped, and the
    # step lands where a step that carries nothing lands
    g = make_grid(0.0, 1.0, 32)
    donor = jko._Warm()
    jko.jko_step(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, affine_p(g), 1e-3, g,
                 blur_opts(1e-3), _warm=donor)
    useless = donor.jinv
    assert useless is not None and useless.shape == (32, 32)
    rho = _vacuum_flow("power3", "constant", None, steps=0).final
    args = (rho, ENERGIES["power3"], ExponentField.constant(2.0, 32), 1e-3, g,
            jko.JkoOptions(backend="entropic", eps=0.2, exact_coupling=False))
    built = _count_newton_matrices(monkeypatch)
    carried = jko._Warm(jinv=useless)
    step = jko.jko_step(*args, _warm=carried)
    assert built and carried.jinv is not useless
    assert step.converged
    plain = jko.jko_step(*args)
    np.testing.assert_allclose(step.rho_next.mass, plain.rho_next.mass, rtol=0.0, atol=1e-12)


def test_a_fresh_step_whose_halvings_all_fail_drops_its_inverse(monkeypatch):
    # with no halving allowed, every fresh Newton step fails its line search:
    # the step stops after one update, unconverged and with its mass kept,
    # and hands on no inverse, so the next step makes no chord try and
    # evaluates only its start
    monkeypatch.setattr(jko, "_HALVINGS", 0)
    g = make_grid(0.0, 1.0, 16)
    args = (ENTROPY, affine_p(g), 1e-2, g, blur_opts(1e-2))
    warm = jko._Warm()
    step = jko.jko_step(DensityField.cosine_bump(g, amplitude=0.5), *args, _warm=warm)
    assert (step.iterations, step.converged) == (1, False)
    assert step.mass_error <= 1e-15
    assert warm.jinv is None
    pictures = []
    real = jko._column_picture
    monkeypatch.setattr(jko, "_column_picture", lambda *a: pictures.append(1) or real(*a))
    jko.jko_step(step.rho_next, *args, _warm=warm)
    assert len(pictures) == 1


def test_run_flow_hands_each_step_its_energy_before(monkeypatch):
    # one energy evaluation per state: the first step evaluates its input,
    # every later one takes the energy_after of the step before, bit for bit
    calls = []
    real = jko.total_energy

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(jko, "total_energy", counted)
    traj = _readme_flow(15)
    assert len(calls) == 16
    g = make_grid(0.0, 1.0, 64)
    for state, step in zip(traj.states, traj.steps):
        assert step.energy_before == real(state, ENTROPY, g)
    for before, after in zip(traj.steps, traj.steps[1:]):
        assert after.energy_before == before.energy_after


def test_vacuum_flow_falls_back_to_the_cold_start(monkeypatch):
    # extrapolating into and out of vacuum cells mispredicts by more than
    # half the predicted change, so every step from the second on evaluates
    # the cold start too
    starts = []
    real = jko._column_picture

    def recorded(sigma, *args):
        starts.append(sigma.copy())
        return real(sigma, *args)

    monkeypatch.setattr(jko, "_column_picture", recorded)
    traj = _vacuum_flow("entropy", "constant", None, eps=0.02)
    assert all(s.converged for s in traj.steps)
    clamp = RHO_FLOOR * make_grid(0.0, 1.0, 32).dx
    m = [s.mass for s in traj.states[:-1]]
    guesses = [np.log(np.maximum(2.0 * b - a, clamp)) for a, b in zip(m, m[1:])]
    cold = [np.log(np.maximum(b, clamp)) for b in m]
    for start in guesses + cold:
        assert any(np.array_equal(start, sigma) for sigma in starts)


@pytest.mark.parametrize("name,exponent,smoothing", sorted(
    (k for k in SWEEP_ITERATIONS if k[1] == "constant" or k[2] is None),
    key=lambda k: (k[0], k[1], k[2] is not None)))
def test_sweep_kernel_products_match_the_log_domain_loop(monkeypatch, name, exponent,
                                                        smoothing):
    # the sweep's uniform-temperature cases: no smoothing, or smoothing with
    # constant p, where every row gets the same temperature
    fast = _sweep_flow(name, exponent, smoothing)
    _assert_matches_log_domain(fast, monkeypatch,
                               lambda: _vacuum_flow(name, exponent, smoothing))


@pytest.mark.parametrize("eps,steps", [(0.02, 5), (0.005, 2)])
def test_underflow_guard_falls_back_to_the_log_domain(monkeypatch, eps, steps):
    # vacuum columns start at G'(RHO_FLOOR), so -phi/eps spreads far past the
    # guard's e^-600; at eps=0.005 the Newton loop takes the log-sum-exps
    calls = _count_log_sum_exps(monkeypatch)
    fast = _vacuum_flow("entropy", "constant", None, eps=eps, steps=steps)
    if eps == 0.005:
        assert calls
    _assert_matches_log_domain(
        fast, monkeypatch,
        lambda: _vacuum_flow("entropy", "constant", None, eps=eps, steps=steps))


def _rough_flow(name, temperatures, seed):
    """Two steps at n=16, h=1e-3: a quarter of the cells vacuum, the rest
    squared uniform draws, and the exponents 1.05 ... 6 shuffled over the
    cells. One temperature eps=0.1 for every row, or per-row ones from
    smoothing dx."""
    g = make_grid(0.0, 1.0, 16)
    rng = np.random.default_rng(seed)
    v = rng.random(g.n_cells) ** 2
    v[rng.choice(g.n_cells, size=4, replace=False)] = 0.0
    p = ExponentField(rng.permutation(np.linspace(1.05, 6.0, g.n_cells)))
    opts = jko.JkoOptions(backend="entropic", eps=0.1,
                          smoothing=g.dx if temperatures == "per_row" else None,
                          exact_coupling=False)
    return jko.run_flow(DensityField.from_masses(v / v.sum()), ENERGIES[name], p,
                        1e-3, 2e-3, g, opts)


@pytest.mark.parametrize("temperatures", ["uniform", "per_row"])
@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_rough_data_matches_the_log_domain_loop(monkeypatch, name, temperatures):
    seed = 90 + sorted(ENERGIES).index(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _rough_flow(name, temperatures, seed)
        assert all(s.converged for s in fast.steps)
        _assert_matches_log_domain(fast, monkeypatch,
                                   lambda: _rough_flow(name, temperatures, seed))


# ---------------------------------------------------- the entropic plan as built

def _worst_row_ulps(traj, plan_of):
    """Largest gap, in ulps of mu_i, between a positive row sum of a step's
    plan (plan_of, see _capture_plans) and the row's mass mu_i; every empty
    row must be exactly 0."""
    worst = 0.0
    for before, step in zip(traj.states[:-1], traj.steps, strict=True):
        mu, gam = before.mass, plan_of(step)
        pos = mu > 0.0
        assert not gam[~pos].any()
        gap = np.abs(gam[pos].sum(axis=1) - mu[pos]) / np.spacing(mu[pos])
        worst = max(worst, float(gap.max()))
    return worst


@pytest.mark.parametrize("temperatures", ["uniform", "per_row"])
def test_entropic_plan_rows_hold_their_masses_to_a_few_ulps(monkeypatch, temperatures):
    # the plan mu_i P_ij is returned as built, without a row rescale. The
    # worst gaps measured are 3 ulps on kernel products (one temperature)
    # and 29 on per-row temperatures, whose plan is the exponential of a
    # log-domain sum tens in size. The sweep's flows are solved again, not
    # read from _sweep_flow's cache, so that their plans are captured
    uniform = temperatures == "uniform"
    plan_of = _capture_plans(monkeypatch)
    flows = [_rough_flow(name, temperatures, 90 + k) for k, name in enumerate(sorted(ENERGIES))]
    flows += [_vacuum_flow(*key) for key in SWEEP_ITERATIONS
              if (key[1] == "constant" or key[2] is None) == uniform]
    if uniform:
        flows.append(_readme_flow(100))
    assert max(_worst_row_ulps(traj, plan_of) for traj in flows) <= (4.0 if uniform else 32.0)


def _benchmark_step(seed):
    """One per-row-temperature step as the exact_steps benchmark takes it:
    n=64, p=2+x, smoothing sqrt(0.8 h), h=1e-2, masses 0.1 + 0.9 U."""
    g = make_grid(0.0, 1.0, 64)
    v = 0.1 + 0.9 * np.random.default_rng(seed).random(g.n_cells)
    return jko.run_flow(DensityField.from_masses(v / v.sum()), ENTROPY, affine_p(g),
                        1e-2, 1e-2, g, blur_opts(1e-2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_row_step_at_benchmark_size_matches_the_log_domain_loop(monkeypatch, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _benchmark_step(seed)
        assert all(s.converged for s in fast.steps)
        _assert_matches_log_domain(fast, monkeypatch, lambda: _benchmark_step(seed))


@pytest.mark.parametrize("n,amplitude", [(128, 0.4), (128, 0.5), (256, 0.5)])
def test_variable_p_step_converges_at_large_n(n, amplitude):
    # p=2+x, smoothing dx/2, h=1e-2: the block ascent overflowed here in its
    # first iteration, and took 5-80 s once its brackets were mended
    g = make_grid(0.0, 1.0, n)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.5 * g.dx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = jko.jko_step(DensityField.cosine_bump(g, amplitude=amplitude), ENTROPY,
                            affine_p(g), 1e-2, g, opts)
    assert step.converged
    assert step.mass_error <= 1e-12
    assert step.rho_next.mass.min() >= 0.0


def test_power_energy_at_small_eps_converges_silently():
    # far above the root the power G' overflows: a trial point there must
    # read as no decrease and be halved, without a warning, and the dual loop
    # must still converge (the block ascent once ran into the iteration cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = _vacuum_flow("power3", "constant", None, eps=0.005, steps=1)
    step = traj.steps[0]
    assert step.converged
    assert step.iterations < 2000
    assert abs(traj.final.total_mass - 1.0) <= 1e-12
    assert traj.final.mass.min() >= 0.0


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
    assert step.el_residual == 0.0


def _one_step_residual(n, h):
    g = make_grid(0.0, 1.0, n)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    step = jko.jko_step(rho0, ENTROPY, p, h, g, blur_opts(h, exact=True))
    return step.el_residual


def test_el_residual_halves_with_h():
    r_coarse = _one_step_residual(16, 2e-3)
    r_fine = _one_step_residual(16, 1e-3)
    assert r_fine <= 0.75 * r_coarse


def test_el_residual_shrinks_under_joint_refinement():
    r_coarse = _one_step_residual(16, 2e-3)
    r_fine = _one_step_residual(32, 1e-3)
    assert r_fine <= 0.75 * r_coarse


def _criterion3_step(backend, exact, h=1e-3):
    """One step of criterion 3's setup: n=32, p=2+x, cosine 0.5, by default h=1e-3."""
    g = make_grid(0.0, 1.0, 32)
    opts = (blur_opts(h, exact=exact) if backend == "entropic"
            else jko.JkoOptions(backend=backend, exact_coupling=exact))
    step = jko.jko_step(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY, affine_p(g),
                        h, g, opts)
    return step, transport.build_cost(g, affine_p(g), h).values


@pytest.mark.parametrize("backend", jko.VALID_BACKENDS)
def test_el_residual_is_measured_on_exact_couplings_only(backend):
    inexact, _ = _criterion3_step(backend, exact=False)
    assert not inexact.coupling_is_exact
    assert math.isnan(inexact.el_residual)
    exact, _ = _criterion3_step(backend, exact=True)
    assert exact.coupling_is_exact
    assert 0.0 < exact.el_residual < math.inf


@pytest.mark.parametrize("backend", jko.VALID_BACKENDS)
def test_inexact_transport_cost_is_the_plans_inner_product_with_the_cost(backend):
    # at h=3e-2, as the mirror step stays put at 1e-3
    step, C = _criterion3_step(backend, exact=False, h=3e-2)
    ref = float((C * step.coupling.gamma).sum())
    assert ref > 0.0
    assert abs(step.transport_cost - ref) <= 1e-14 * ref


def test_readme_flow_transport_costs_are_the_plans_inner_products(monkeypatch):
    g = make_grid(0.0, 1.0, 64)
    C = transport.build_cost(g, ExponentField.constant(2.0, g.n_cells), 2e-4).values
    plan_of = _capture_plans(monkeypatch)
    for step in _readme_flow(100).steps:
        ref = float((C * plan_of(step)).sum())
        assert abs(step.transport_cost - ref) <= 1e-14 * ref


# ------------------------------------------------------------- dissipation

def test_dissipation_check_trivial_on_stationary_flow():
    g = make_grid(0.0, 1.0, 12)
    p = affine_p(g)
    traj = jko.run_flow(uniform(g), ENTROPY, p, 1e-3, 5e-3, g,
                        jko.JkoOptions(backend="mirror"))
    report = finsler.dissipation_check(traj, ENTROPY, p, g)
    assert np.max(np.abs(report.per_step_slack)) <= 1e-12
    assert report.total_dissipation <= 1e-12


def test_dissipation_slack_shrinks_with_h():
    g = make_grid(0.0, 1.0, 32)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    worsts = []
    for h in (2e-3, 1e-3):
        traj = jko.run_flow(rho0, ENTROPY, p, h, 20 * h, g, blur_opts(h))
        report = finsler.dissipation_check(traj, ENTROPY, p, g)
        assert report.worst_step_slack >= -1e-6
        worsts.append(float(np.max(np.abs(report.per_step_slack))))
    assert worsts[1] <= 0.75 * worsts[0]


def test_dissipation_check_takes_one_dt_per_step():
    # a reference-PDE trajectory has uneven steps; each slack uses its own
    # dt, exactly as a loop over the steps would
    g = make_grid(0.0, 1.0, 16)
    p = affine_p(g)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY,
                     conjugate(p), pde.PdeConfig(t_end=0.02, stride=3), g)
    dt = np.diff(traj.times)
    assert dt.min() < dt.max()
    report = finsler.dissipation_check(traj, ENTROPY, p, g)
    energies = [total_energy(s, ENTROPY, g) for s in traj.states]
    by_loop = [(energies[k - 1] - energies[k])
               - float(traj.times[k] - traj.times[k - 1])
               * finsler.dissipation_rate(traj.states[k], ENTROPY, p, g)
               for k in range(1, len(traj))]
    assert report.per_step_slack.tolist() == by_loop
    assert report.energies.tolist() == energies


@pytest.mark.parametrize("run", ["readme_compare", "pde_config"])
def test_cumulative_slack_is_positive(run):
    # the energy headroom exceeds what the flow dissipates: measured 0.054
    # on the README compare flow and 0.030 on the PDE run of the CI config
    if run == "readme_compare":
        g = make_grid(0.0, 1.0, 64)
        traj, e, p = _readme_flow(100), ENTROPY, ExponentField.constant(2.0, g.n_cells)
    else:
        cfg = cli.load_config(Path(__file__).parent / "configs" / "pde.yaml")
        g, e, p = cfg.grid, cfg.energy, cfg.p
        traj = pde.solve(cfg.rho0, e, conjugate(p), cfg.pde_cfg, g)
    assert finsler.dissipation_check(traj, e, p, g).cumulative_slack > 0.0


def test_dissipation_rate_positive_off_uniform():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    rate = finsler.dissipation_rate(rho, ENTROPY, affine_p(g), g)
    assert rate > 0.0
    assert finsler.dissipation_rate(uniform(g), ENTROPY, affine_p(g), g) == 0.0


# ----------------------------------------------------------- step inequality

@pytest.mark.parametrize("backend", ["mirror"])
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


def test_mirror_step_lies_within_its_duality_gap_bound():
    # at h=0.05 the step moves the n=12 bump; the monotone Newton step
    # certifies it, and the objective of its exact coupling lies 5.6e-17
    # above the Fenchel bound taken at G' of its new density
    g = make_grid(0.0, 1.0, 12)
    p = affine_p(g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.7)
    step = jko.jko_step(rho0, ENTROPY, p, 0.05, g, jko.JkoOptions(backend="mirror"))
    assert step.transport_cost > 0.0
    gap = _duality_gap(step.energy_after + step.transport_cost, step.rho_next.mass,
                       transport.build_cost(g, p, 0.05).values, rho0.mass, ENTROPY, g.dx)
    assert GAP_FLOOR <= gap <= 1e-14


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


# --------------------------------------------- descent loop vs its reference

def _reference_objective(gam, C, e, dx):
    col = gam.sum(axis=0)
    return float((C * gam).sum() + dx * e.value(col / dx).sum())


def _reference_objective_gradient(gam, C, e, dx):
    col = gam.sum(axis=0)
    return C + e.deriv(col / dx)[None, :]


def _reference_armijo_descent(C, mu, e, dx):
    """The descent loop before it cached the column sums, the cost and the
    linear gain and kept the plan's live entries: the oracle of
    jko._armijo_descent, with its cap and tolerance, on dense plans."""
    gam = jko._uniform_rows(mu)
    f_cur = _reference_objective(gam, C, e, dx)
    eta = 1.0 / (1.0 + np.abs(C).max())
    quiet = 0
    converged = False
    it = 0
    for it in range(1, jko.MAX_ITERS + 1):
        grad = _reference_objective_gradient(gam, C, e, dx)
        accepted = tried = False
        while eta >= 1e-16:
            tried = True
            cand = _reference_mirror_update(gam, grad, eta, mu)
            f_cand = _reference_objective(cand, C, e, dx)
            lin_gain = float(((gam - cand) * grad).sum())
            if f_cand <= f_cur - 1e-4 * max(lin_gain, 0.0) + 1e-15 * (1.0 + abs(f_cur)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = tried
            break
        drop = f_cur - f_cand
        gam, f_cur = cand, f_cand
        eta = min(eta * 1.3, 1e6)
        if drop <= jko.DESCENT_TOL * max(1.0, abs(f_cur)):
            quiet += 1
            if quiet >= 3:
                converged = True
                break
        else:
            quiet = 0
    return gam, it, converged


def _reference_rescale_rows(gam, mu):
    rs = gam.sum(axis=1)
    scale = np.where(rs > 0.0, mu / np.where(rs > 0.0, rs, 1.0), 0.0)
    return gam * scale[:, None]


def _reference_mirror_update(gam, grad, eta, mu):
    z = grad - grad.min(axis=1, keepdims=True)
    return _reference_rescale_rows(gam * np.exp(-eta * z), mu)


def _duality_gap(objective, col, C, mu, e, dx):
    """objective minus the Fenchel dual bound of the step program at
    phi = G'(col / dx): sum_i mu_i min_j (C_ij + phi_j) - dx sum_j G*(phi_j)
    bounds every plan with row masses mu from below."""
    phi = e.deriv(col / dx)
    return objective - float(mu @ (C + phi).min(axis=1) - dx * e.legendre(phi).sum())


#: The duality gap of the descent's plan, or of the stay-put plan where
#: that is lower, lies in [GAP_FLOOR, GAP_BOUND]: weak duality keeps it >= 0
#: up to rounding (-8.9e-16 the lowest measured over the descent cases
#: below, where a step stays put), and it was 9.2e-6 to 8.9e-5 where the
#: descent moved mass (1.4e-5 to 5.6e-5 on the 16 exact_steps instances).
#: A certified Newton step's gap is rounding, so GAP_FLOOR bounds it too.
GAP_FLOOR, GAP_BOUND = -1e-13, 2e-4


def _assert_descent_matches_reference(g, p, h, e, mu):
    """Same iterations and converged flag as the reference loop, column
    masses within 1e-12, the returned objective that of the plan, each
    positive row's mass to rounding, and a duality gap in [GAP_FLOOR,
    GAP_BOUND] for the plan a step keeps: the descent's, or the stay-put
    diagonal where that is lower, as jko_step picks."""
    C = transport.build_cost(g, p, h).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gam, f, it, converged = jko._armijo_descent(C, mu, e, g.dx)
    ref, ref_it, ref_converged = _reference_armijo_descent(C, mu, e, g.dx)
    assert (it, converged) == (ref_it, ref_converged)
    np.testing.assert_allclose(gam.sum(axis=0), ref.sum(axis=0), rtol=0.0, atol=1e-12)
    assert f == pytest.approx(_reference_objective(gam, C, e, g.dx), rel=1e-13, abs=1e-15)
    # rescaled on its live entries, each positive row keeps its mass mu_i
    # within 4 ulps (at most 2 measured over every case here), and no
    # positive row ends up empty
    rows, pos = gam.sum(axis=1), mu > 0.0
    assert np.all(rows[pos] > 0.0) and np.all(rows[~pos] == 0.0)
    assert np.all(np.abs(rows[pos] - mu[pos]) <= 4 * np.spacing(mu[pos]))
    stay = float(g.dx * e.value(mu / g.dx).sum())
    col = mu if stay < f else gam.sum(axis=0)
    assert GAP_FLOOR <= _duality_gap(min(f, stay), col, C, mu, e, g.dx) <= GAP_BOUND


def _rough_masses(g, seed):
    """Squared uniform draws with three vacuum cells, normalised."""
    rng = np.random.default_rng(seed)
    v = rng.random(g.n_cells) ** 2
    v[rng.choice(g.n_cells, size=3, replace=False)] = 0.0
    return v / v.sum()


def _exact_steps_instance(index):
    """The benchmark's exact_steps instance: n=64, p=2+x, entropy, h=1e-2,
    masses of the seed-1 block."""
    g = make_grid(0.0, 1.0, 64)
    v = 0.1 + 0.9 * np.random.default_rng([1, 0, index]).random(g.n_cells)
    return g, affine_p(g), v / v.sum()


# the ids keep their -mirror suffix, so the case names stay stable
@pytest.mark.parametrize("index", range(16), ids=lambda i: f"{i}-mirror")
def test_descent_matches_the_reference_on_exact_steps_instances(index):
    # the whole seed-1 block of the benchmark
    g, p, mu = _exact_steps_instance(index)
    _assert_descent_matches_reference(g, p, 1e-2, ENTROPY, mu)


def _rough_case(p0, h, name):
    """(g, p, e, mu) of a rough case: n=16, p = p0 + x, rough masses."""
    g = make_grid(0.0, 1.0, 16)
    seed = 700 + 10 * sorted(ENERGIES).index(name) + [1e-3, 1e-2, 5e-2].index(h)
    return g, affine_p(g, p0), ENERGIES[name], _rough_masses(g, seed)


ROUGH = pytest.mark.parametrize("p0,h,name", list(itertools.product(
    [1.05, 6.0], [1e-3, 1e-2, 5e-2], sorted(ENERGIES))))


@pytest.mark.parametrize("p0", [1.05, 6.0], ids=lambda p0: f"{p0}-mirror")
@pytest.mark.parametrize("h", [1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_descent_matches_the_reference_on_rough_data(p0, h, name):
    g, p, e, mu = _rough_case(p0, h, name)
    _assert_descent_matches_reference(g, p, h, e, mu)


@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_a_descent_that_tries_no_step_does_not_claim_convergence(name):
    # at p0=6 and h=1e-3 the largest cost is about 1e17: the first step size
    # 1 / (1 + max |C|) already lies below the 1e-16 floor, no step is tried,
    # and the uniform-row start, whose duality gap is above 1e14, is not
    # reported as converged
    g, p, e, mu = _rough_case(6.0, 1e-3, name)
    C = transport.build_cost(g, p, 1e-3).values
    assert 1.0 / (1.0 + np.abs(C).max()) < 1e-16
    gam, f, it, converged = jko._armijo_descent(C, mu, e, g.dx)
    assert (it, converged) == (1, False)
    assert _duality_gap(f, gam.sum(axis=0), C, mu, e, g.dx) > 1e14


@pytest.mark.parametrize("name,seed", [("power3", 721), ("power3", 809),
                                       ("quadratic", 806), ("quadratic", 807)])
def test_descent_matches_the_reference_at_the_rounding_floor(name, seed, monkeypatch):
    # with a tolerance of 1e-12 the last drops are rounding noise, and the
    # 1e-15 slack of the Armijo test decides whether they are accepted
    monkeypatch.setattr(jko, "DESCENT_TOL", 1e-12)
    g = make_grid(0.0, 1.0, 16)
    _assert_descent_matches_reference(g, affine_p(g, 6.0), 1e-2, ENERGIES[name],
                                      _rough_masses(g, seed))


# ------------------------------------------ monotone Newton step, certified

def _assert_newton_certified(g, p, h, e, mu):
    """The monotone Newton step certifies its answer: its objective is that
    of the monotone plan of its columns, the duality gap of that plan lies
    in [GAP_FLOOR, GAP_TOL (1 + |f|)], and the objective is at most the
    descent's plus 1e-15. Returns the iteration count."""
    C = transport.build_cost(g, p, h).values
    col, f, it, certified = jko._monotone_newton(C, mu, e, g.dx)
    assert certified
    seg, rows, cols = transport._quantile_segments(mu, col)
    plan = float(seg @ C[rows, cols]) * mu.sum() + g.dx * float(e.value(col / g.dx).sum())
    assert f == pytest.approx(plan, rel=1e-13, abs=1e-16)
    assert GAP_FLOOR <= _duality_gap(plan, col, C, mu, e, g.dx) <= jko.GAP_TOL * (1.0 + abs(f))
    assert f <= jko._armijo_descent(C, mu, e, g.dx)[1] + 1e-15
    return it


@pytest.mark.parametrize("index", range(16))
def test_newton_certifies_the_exact_steps_block(index):
    # 14 to 23 iterations each, where the descent takes 448 to 937; the new
    # masses hold no cheaper plan than the monotone one, so the exact
    # coupling of the step takes no pivot
    g, p, mu = _exact_steps_instance(index)
    assert _assert_newton_certified(g, p, 1e-2, ENTROPY, mu) <= 30
    step = jko.jko_step(DensityField.from_masses(mu), ENTROPY, p, 1e-2, g)
    assert step.converged
    assert transport.solve_exact(transport.build_cost(g, p, 1e-2), mu,
                                 step.rho_next.mass).pivots == 0


def test_tridiagonal_solve_matches_the_dense_solve():
    # the Newton matrix's shape: free rows couple to free neighbours, pinned
    # rows are rows of the identity; curvatures over six decades
    rng = np.random.default_rng(5)
    k = 10.0 ** rng.uniform(-3.0, 3.0, 41)
    free = rng.random(40) < 0.8
    diag = np.where(free, k[:-1] + k[1:], 1.0)
    off = -k[1:-1] * (free[:-1] & free[1:])
    rhs = rng.standard_normal(40)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = jko._tridiagonal_solve(diag, off, rhs)
    # a componentwise backward error at rounding level, as elimination
    # without pivoting gives on a diagonally dominant matrix
    bound = 16 * np.finfo(float).eps * (np.abs(T) @ np.abs(x) + np.abs(rhs))
    assert np.all(np.abs(T @ x - rhs) <= bound)
    np.testing.assert_allclose(x, np.linalg.solve(T, rhs), rtol=1e-9, atol=0.0)
    with pytest.raises(ZeroDivisionError):
        jko._tridiagonal_solve(np.zeros(3), np.zeros(2), np.ones(3))


def test_an_inexact_default_step_returns_the_monotone_plan():
    # without the exact coupling, the coupling is the Newton step's own
    # plan: monotone (its support a staircase), with the row masses, the
    # new masses of the exact-coupled step and the exact plan's cost
    g, p, mu = _exact_steps_instance(0)
    rho = DensityField.from_masses(mu)
    inexact = jko.jko_step(rho, ENTROPY, p, 1e-2, g, jko.JkoOptions(exact_coupling=False))
    exact = jko.jko_step(rho, ENTROPY, p, 1e-2, g)
    gam = inexact.coupling.gamma
    assert inexact.converged and inexact.iterations == exact.iterations
    assert np.all(np.diff(np.nonzero(gam)[1]) >= 0)
    np.testing.assert_allclose(gam.sum(axis=1), mu, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(inexact.rho_next.mass, exact.rho_next.mass, rtol=0.0, atol=1e-15)
    assert inexact.transport_cost == pytest.approx(exact.transport_cost, rel=1e-12)


def test_newton_certifies_criterion_5():
    # acceptance criterion 5's 50 instances: 1 to 6 iterations each
    g = make_grid(0.0, 1.0, 12)
    for seed in range(50):
        v = 0.1 + 0.9 * np.random.default_rng(7000 + seed).random(g.n_cells)
        mu = v * g.dx / (v.sum() * g.dx)
        assert _assert_newton_certified(g, affine_p(g), 0.01, ENTROPY, mu) <= 10


#: Rough cases whose gap the monotone step cannot close: at p0=1.05 the cost
#: breaks the Monge condition on 61 to 88 of the 225 adjacent 2x2 blocks,
#: and the descent's plan, which is not monotone, is cheaper.
ROUGH_FALLBACKS = {(1.05, 1e-3, "entropy"), (1.05, 1e-3, "power1.5"),
                   (1.05, 1e-2, "entropy"), (1.05, 1e-2, "quadratic"),
                   (1.05, 5e-2, "power3")}


@ROUGH
def test_newton_on_rough_data_certifies_or_falls_back_to_the_descent(p0, h, name):
    g, p, e, mu = _rough_case(p0, h, name)
    if (p0, h, name) not in ROUGH_FALLBACKS:
        _assert_newton_certified(g, p, h, e, mu)
        return
    C = transport.build_cost(g, p, h).values
    assert not jko._monotone_newton(C, mu, e, g.dx)[3]
    gam, _, it, converged = jko._armijo_descent(C, mu, e, g.dx)
    step = jko.jko_step(DensityField.from_masses(mu), e, p, h, g,
                        jko.JkoOptions(exact_coupling=False))
    assert (step.iterations, step.converged) == (it, converged)
    assert np.array_equal(step.coupling.gamma, gam)


NEWTON_ENERGIES = {"power2": builtin_energy("power", m=2.0),
                   "power3": ENERGIES["power3"], "quadratic": QUADRATIC}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("p_kind", ["2", "2+x", "1.5", "3"])
@pytest.mark.parametrize("h", [1e-3, 1e-2])
@pytest.mark.parametrize("name", sorted(NEWTON_ENERGIES))
def test_newton_certifies_compact_support(n, p_kind, h, name):
    # a bump on [0.2, 0.6] with vacuum around it: the columns outside the
    # support stay at 0 with their breakpoints pinned at 0 or at the total
    g = make_grid(0.0, 1.0, n)
    p = (affine_p(g) if p_kind == "2+x"
         else ExponentField.constant(float(p_kind), n))
    v = np.maximum(0.0, 1.0 - ((g.centers - 0.4) / 0.2) ** 2)
    _assert_newton_certified(g, p, h, NEWTON_ENERGIES[name], v / v.sum())


def test_a_frozen_step_of_the_jko_config_is_certified_stay_put_in_one_iteration():
    # tests/configs/jko.yaml freezes after three steps: steps 4 and 5 keep
    # their input masses bit for bit, certified at the first iteration
    # (the descent took 2,739 iterations on the frozen step of its flow)
    cfg = cli.load_config(Path(__file__).parent / "configs" / "jko.yaml")
    traj = jko.run_flow(cfg.rho0, cfg.energy, cfg.p, cfg.h, cfg.t_end, cfg.grid,
                        cfg.jko_opts)
    assert [s.iterations for s in traj.steps[3:]] == [1, 1]
    assert all(s.converged and s.transport_cost == 0.0 for s in traj.steps[3:])
    assert np.array_equal(traj.states[4].mass, traj.states[3].mass)
    assert all(s.converged and s.iterations <= 30 for s in traj.steps)


class _CountingNumpy:
    """numpy, with the size of every exp argument recorded."""

    def __init__(self):
        self.exp_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_sizes.append(np.size(x))
        return np.exp(x, *args, **kwargs)


def test_mirror_trials_run_on_the_live_support(monkeypatch):
    # every exp of the descent is a trial's; the last one must touch the
    # plan's live entries, not all n^2 (about 600 of 4096 here)
    g, p, mu = _exact_steps_instance(0)
    counting = _CountingNumpy()
    monkeypatch.setattr(jko, "np", counting)
    C = transport.build_cost(g, p, 1e-2).values
    jko._armijo_descent(C, mu, ENTROPY, g.dx)
    assert counting.exp_sizes[0] == g.n_cells**2
    assert counting.exp_sizes[-1] <= g.n_cells**2 // 4


def test_default_step_evaluates_the_energy_slope_once_per_iteration():
    # one G' per Newton iteration, the certificate reading the same one, and
    # one in the EL residual; at h=5e-2 the step moves (at 1e-2 it is a
    # stay-put step, certified in one iteration)
    g = make_grid(0.0, 1.0, 16)
    evaluations = []

    def counted(t):
        evaluations.append(1)
        return ENTROPY.deriv(t)

    step = jko.jko_step(DensityField.cosine_bump(g, amplitude=0.5),
                        dataclasses.replace(ENTROPY, deriv=counted), affine_p(g), 5e-2, g)
    assert step.converged and step.iterations > 1
    assert len(evaluations) == step.iterations + 1


# ------------------------------------------------------------ iteration cap

@pytest.mark.parametrize("opts,h", [(jko.JkoOptions(), 5e-2), (blur_opts(1e-2), 1e-2)],
                         ids=["mirror", "entropic"])
def test_a_step_stopped_by_the_cap_reports_it(opts, h, monkeypatch):
    # a cold step that needs more iterations than the patched cap stops at
    # the cap and says it did not converge, with the masses still conserved;
    # the default step moves at h=5e-2 (at 1e-2 it stays put, certified in
    # one iteration), and its Newton loop and the descent that follows it
    # share the cap
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    free = jko.jko_step(rho, ENTROPY, affine_p(g), h, g, opts)
    assert free.converged and free.iterations > 2
    monkeypatch.setattr(jko, "MAX_ITERS", 2)
    capped = jko.jko_step(rho, ENTROPY, affine_p(g), h, g, opts)
    assert (capped.iterations, capped.converged) == (2, False)
    assert capped.mass_error <= 1e-15


def test_an_entropic_step_can_stop_on_the_rounding_floor(monkeypatch):
    # a cold power(3) step at eps=1e-3 on p=2+x tilts the plan so far that
    # its column-mass error cannot reach _MASS_RTOL of the mass (1e-14):
    # the loop stops below the rounding floor (7.5e-13 here) after 20
    # updates and counts as converged, and a larger cap changes nothing
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    opts = jko.JkoOptions(backend="entropic", eps=1e-3, exact_coupling=False)
    args = (rho, ENERGIES["power3"], affine_p(g), 1e-2, g, opts)
    real = jko._column_picture
    returned = []

    def spy(*picture_args):
        # record the picture whose plan the loop returns
        picture = real(*picture_args)

        def plan():
            returned.append(picture)
            return picture[4]()
        return picture[:4] + (plan,)

    monkeypatch.setattr(jko, "_column_picture", spy)
    step = jko.jko_step(*args)
    (log_col, s, phi, _, _), = returned
    err = float(np.abs(s - np.exp(log_col)).max())
    total = rho.mass.sum()
    floor = np.finfo(float).eps * total * (1.0 + float(np.abs(phi).max()) / opts.eps)
    assert step.converged
    assert jko._MASS_RTOL * total < err <= floor
    monkeypatch.setattr(jko, "MAX_ITERS", 100 * jko.MAX_ITERS)
    assert jko.jko_step(*args).iterations == step.iterations == 20


# ------------------------------------------------------------------ options

def test_options_validation():
    with pytest.raises(ValueError):
        jko.JkoOptions(backend="simplex")
    with pytest.raises(NonpositiveParameterError):
        jko.JkoOptions(eps=0.0)
    with pytest.raises(NonpositiveParameterError):
        jko.JkoOptions(smoothing=-0.1)


#: The message of a bad backend name lists the names there are.
BACKENDS_NAMED = r"\('mirror', 'entropic'\)"


@pytest.mark.parametrize("call,error,match", [
    (lambda g: jko.JkoOptions(backend="simplex"), InvalidParameterError, BACKENDS_NAMED),
    # the retired projected backend is an unknown name like any other
    (lambda g: jko.JkoOptions(backend="projected"), InvalidParameterError, BACKENDS_NAMED),
    (lambda g: jko.Trajectory(times=np.zeros(2), states=[uniform(g)]), SizeMismatchError,
     None),
    (lambda g: jko.run_flow(uniform(g), ENTROPY, affine_p(g), 1e-2, math.inf, g),
     InvalidParameterError, None),
    (lambda g: finsler.dissipation_check(jko.Trajectory(times=np.zeros(0), states=[]),
                                     ENTROPY, affine_p(g), g), SizeMismatchError, None),
], ids=["backend", "retired_backend", "trajectory_length", "t_end", "empty_trajectory"])
def test_bad_arguments_raise_typed_value_errors(call, error, match):
    with pytest.raises(error, match=match) as info:
        call(make_grid(0.0, 1.0, 8))
    assert isinstance(info.value, VarwassError)
    assert isinstance(info.value, ValueError)


def test_too_wide_smoothing_is_rejected():
    # the lattice displacement second moment saturates; a requested blur
    # past that cap has no matching temperature
    g = make_grid(0.0, 1.0, 8)
    rho0 = DensityField.cosine_bump(g, amplitude=0.3)
    opts = jko.JkoOptions(backend="entropic", smoothing=0.6)
    with pytest.raises(NumericalBlowupError):
        jko.jko_step(rho0, ENTROPY, affine_p(g), 1e-3, g, opts)
