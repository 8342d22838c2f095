"""Tangent-space geometry: velocity reconstruction, norm axioms, energy
gradient, and discrete curve lengths against the transport distance."""

import numpy as np
import pytest

from varwass import finsler, pde, transport, varexp
from varwass.energy import builtin_energy, total_energy
from varwass.errors import NonzeroMeanError, VanishingDensityError, VarwassError
from varwass.grid import integrate, make_grid
from varwass.jko import Trajectory
from varwass.varexp import DensityField, ExponentField, conjugate

ENTROPY = builtin_energy("entropy")


def zero_mean_vector(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    return finsler.TangentVector(v - v.mean())


def displacement_path(r0, r1, n_steps, g):
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    states = [transport.displacement_interpolant(r0, r1, float(t), g)
              for t in ts]
    return Trajectory(times=ts, states=states, steps=None)


# ----------------------------------------------------- velocity reconstruction

def test_zero_tangent_gives_zero_velocity():
    g = make_grid(0.0, 1.0, 8)
    rho = DensityField.cosine_bump(g, amplitude=0.3)
    v = finsler.min_norm_velocity(rho, finsler.TangentVector(np.zeros(8)), g)
    assert np.all(v.v_face == 0.0)


def test_two_cell_velocity_by_hand():
    # moving mass rate 2 from the left cell to the right one across the
    # single interior face of (0,1) needs rho*v = 1 there, and rho is 1
    g = make_grid(0.0, 1.0, 2)
    rho = DensityField.from_cell_values(np.ones(2), g)
    nu = finsler.TangentVector(np.array([-2.0, 2.0]))
    v = finsler.min_norm_velocity(rho, nu, g)
    assert v.v_face.tolist() == [0.0, 1.0, 0.0]


def test_velocity_reproduces_tangent():
    g = make_grid(0.0, 1.0, 32)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    nu = zero_mean_vector(32, 11)
    v = finsler.min_norm_velocity(rho, nu, g).v_face
    rho_face = np.zeros(33)
    rv = rho.density(g)
    rho_face[1:-1] = 0.5 * (rv[:-1] + rv[1:])
    recovered = -np.diff(rho_face * v) / g.dx
    assert np.max(np.abs(recovered - nu.values)) <= 1e-10


def test_nonzero_mean_is_rejected():
    g = make_grid(0.0, 1.0, 4)
    rho = DensityField.from_cell_values(np.ones(4), g)
    with pytest.raises(NonzeroMeanError):
        finsler.min_norm_velocity(rho, finsler.TangentVector(np.ones(4)), g)


def test_flux_through_dead_face_is_rejected():
    g = make_grid(0.0, 1.0, 4)
    rho = DensityField.from_cell_values(np.array([2.0, 0.0, 0.0, 2.0]), g)
    nu = finsler.TangentVector(np.array([-1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(VanishingDensityError):
        finsler.min_norm_velocity(rho, nu, g)


def test_tangent_vector_validation():
    with pytest.raises(ValueError):
        finsler.TangentVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        finsler.VelocityField(np.array([1.0, 0.0, 0.0]))


def _bad_finsler_calls():
    g = make_grid(0.0, 1.0, 4)
    r = DensityField.from_cell_values(np.ones(4), g)
    p = ExponentField.constant(2.0, 4)

    def curve(times):
        return finsler.curve_length(Trajectory(times=np.array(times), states=[r, r]), p, g)

    def overflowing_quotient():
        # a subnormal dt makes the difference quotient overflow to inf
        s = DensityField.from_cell_values(np.array([2.0, 1.0, 1.0, 1.0]), g)
        with np.errstate(over="ignore"):
            finsler.curve_length(Trajectory(times=np.array([0.0, 5e-324]),
                                            states=[r, s]), p, g)

    return {
        "empty tangent": lambda: finsler.TangentVector(np.array([])),
        "non-finite tangent": lambda: finsler.TangentVector(np.array([1.0, np.nan])),
        "quotient dt": lambda: finsler.metric_derivative(
            Trajectory(times=np.array([0.0, 0.0]), states=[r, r]), p, g, 0),
        "short velocity": lambda: finsler.VelocityField(np.array([0.0, 0.0])),
        "boundary velocity": lambda: finsler.VelocityField(np.array([1.0, 0.0, 0.0])),
        "curve dt": lambda: curve([0.0, 0.0]),
        "non-finite quotient": overflowing_quotient,
        "one state": lambda: finsler.curve_length(
            Trajectory(times=np.array([0.0]), states=[r]), p, g),
    }


@pytest.mark.parametrize("case", sorted(_bad_finsler_calls()))
def test_finsler_errors_are_typed(case):
    # typed, and still ValueError for callers that catch the builtin
    with pytest.raises(VarwassError) as info:
        _bad_finsler_calls()[case]()
    assert isinstance(info.value, ValueError)


# -------------------------------------------------------------- tangent norm

def test_tangent_norm_zero_and_homogeneous():
    g = make_grid(0.0, 1.0, 24)
    rho = DensityField.cosine_bump(g, amplitude=0.4)
    p = ExponentField.affine(1.7, 1.1, g)
    assert finsler.tangent_norm(rho, finsler.TangentVector(np.zeros(24)),
                                p, g) == 0.0
    nu = zero_mean_vector(24, 3)
    base = finsler.tangent_norm(rho, nu, p, g)
    for a in (2.7, -2.7, 0.125):
        scaled = finsler.tangent_norm(
            rho, finsler.TangentVector(a * nu.values), p, g)
        assert scaled == pytest.approx(abs(a) * base, rel=1e-10)


def test_tangent_norm_subadditive():
    g = make_grid(0.0, 1.0, 24)
    rho = DensityField.cosine_bump(g, amplitude=0.4)
    p = ExponentField.affine(1.7, 1.1, g)
    for seed in range(10):
        n1 = zero_mean_vector(24, 2 * seed)
        n2 = zero_mean_vector(24, 2 * seed + 1)
        both = finsler.TangentVector(n1.values + n2.values)
        assert (finsler.tangent_norm(rho, both, p, g)
                <= finsler.tangent_norm(rho, n1, p, g)
                + finsler.tangent_norm(rho, n2, p, g) + 1e-10)


def test_tangent_norm_weighted_l2_at_p_two():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.3)
    nu = zero_mean_vector(16, 7)
    v = finsler.min_norm_velocity(rho, nu, g).v_face
    v_cell = 0.5 * (v[:-1] + v[1:])
    closed = np.sqrt(integrate(v_cell * v_cell * rho.density(g), g))
    got = finsler.tangent_norm(rho, nu, ExponentField.constant(2.0, 16), g)
    assert got == pytest.approx(closed, rel=1e-10)


# ------------------------------------------------------------ energy gradient

def test_gradient_vanishes_at_uniform():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.from_cell_values(np.ones(16), g)
    q = ExponentField.affine(2.0, 1.0, g)
    assert np.all(finsler.finsler_gradient(rho, ENTROPY, q, g).values == 0.0)


def test_gradient_is_negated_reference_operator():
    g = make_grid(0.0, 1.0, 32)
    rho = DensityField.cosine_bump(g, amplitude=0.5)
    q = ExponentField.affine(1.8, 0.9, g)
    grad = finsler.finsler_gradient(rho, ENTROPY, q, g)
    assert np.array_equal(grad.values, -pde.rhs(rho, ENTROPY, q, g))


def test_negative_gradient_is_a_descent_direction():
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        g = make_grid(0.0, 1.0, 24)
        x = g.centers
        a, b = rng.uniform(-0.3, 0.3, 2)
        vals = 0.9 + a * np.sin(2 * np.pi * x) + b * np.cos(np.pi * x)
        rho = DensityField.from_masses(vals * g.dx, require_unit_mass=False)
        q = ExponentField.affine(1.8, 0.9, g)
        direction = -finsler.finsler_gradient(rho, ENTROPY, q, g).values
        tau = 1e-2 * float(vals.min()) / max(float(np.abs(direction).max()),
                                             1e-30)
        moved = DensityField.from_masses((vals + tau * direction) * g.dx,
                                         require_unit_mass=False)
        assert total_energy(moved, ENTROPY, g) < total_energy(rho, ENTROPY, g)


def test_chain_rule_under_dt_refinement():
    # (E(dt) - E(0)) / dt approaches the pairing of G'(rho0) with the
    # difference quotient at first order in dt
    g = make_grid(0.0, 1.0, 32)
    q = ExponentField.affine(2.0, 1.0, g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    errs = []
    for dt in (4e-5, 2e-5):
        traj = pde.solve(rho0, ENTROPY, q,
                         pde.PdeConfig(t_end=dt, fixed_dt=dt), g)
        nu = (traj.states[-1].density(g) - rho0.density(g)) / dt
        lhs = (total_energy(traj.states[-1], ENTROPY, g)
               - total_energy(rho0, ENTROPY, g)) / dt
        rhs_pair = integrate(ENTROPY.deriv(rho0.density(g)) * nu, g)
        errs.append(abs(lhs - rhs_pair))
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.6 * errs[0]


# ------------------------------------------------------------- curve lengths

def test_constant_curve_has_zero_length():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.cosine_bump(g, amplitude=0.4)
    traj = Trajectory(times=np.array([0.0, 0.5, 1.0]),
                      states=[rho, rho, rho], steps=None)
    p = ExponentField.affine(2.0, 1.0, g)
    assert finsler.curve_length(traj, p, g) == 0.0
    assert finsler.metric_derivative(traj, p, g, 0) == 0.0


def test_metric_derivative_scales_with_the_step():
    g = make_grid(0.0, 1.0, 24)
    rho0 = DensityField.cosine_bump(g, amplitude=0.4)
    nu = zero_mean_vector(24, 13)
    p = ExponentField.affine(2.0, 1.0, g)
    scale = 1e-3
    near = DensityField.from_masses(
        (rho0.density(g) + scale * nu.values) * g.dx)
    far = DensityField.from_masses(
        (rho0.density(g) + 2.0 * scale * nu.values) * g.dx)
    t_near = Trajectory(times=np.array([0.0, 1.0]), states=[rho0, near])
    t_far = Trajectory(times=np.array([0.0, 1.0]), states=[rho0, far])
    a = finsler.metric_derivative(t_near, p, g, 0)
    b = finsler.metric_derivative(t_far, p, g, 0)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_metric_derivative_index_bounds():
    g = make_grid(0.0, 1.0, 8)
    rho = DensityField.cosine_bump(g, amplitude=0.2)
    traj = Trajectory(times=np.array([0.0, 1.0]), states=[rho, rho])
    p = ExponentField.constant(2.0, 8)
    with pytest.raises(IndexError):
        finsler.metric_derivative(traj, p, g, 1)
    with pytest.raises(IndexError):
        finsler.metric_derivative(traj, p, g, -1)
    single = Trajectory(times=np.array([0.0]), states=[rho])
    with pytest.raises(ValueError):
        finsler.curve_length(single, p, g)


def test_displacement_path_length_matches_distance_at_constant_p():
    g = make_grid(0.0, 1.0, 32)
    r0 = DensityField.cosine_bump(g, amplitude=0.4)
    r1 = DensityField.gaussian(g, 0.65, 0.18)
    p2 = ExponentField.constant(2.0, 32)
    w2 = transport.wasserstein_1d(2.0, r0, r1, g)
    length = finsler.curve_length(displacement_path(r0, r1, 20, g), p2, g)
    assert length == pytest.approx(w2, abs=2e-3)


def test_variable_exponent_length_dominates_half_the_frozen_distance():
    # norm embedding: the variable-exponent speed is at least half the speed
    # measured at the lower exponent bound, so lengths inherit the bound
    g = make_grid(0.0, 1.0, 64)
    r0 = DensityField.cosine_bump(g, amplitude=0.4)
    r1 = DensityField.gaussian(g, 0.65, 0.18)
    p = ExponentField.affine(2.0, 1.0, g)
    length = finsler.curve_length(displacement_path(r0, r1, 20, g), p, g)
    w_low = transport.wasserstein_1d(float(p.p_minus), r0, r1, g)
    assert length >= 0.5 * w_low


def _pde_path(stride, n=32):
    g = make_grid(0.0, 1.0, n)
    p = ExponentField.affine(2.0, 1.0, g)
    traj = pde.solve(DensityField.cosine_bump(g, amplitude=0.5), ENTROPY,
                     conjugate(p), pde.PdeConfig(t_end=0.01, stride=stride), g)
    return traj, p, g


def _interpolation_path():
    g = make_grid(0.0, 1.0, 64)
    r0 = DensityField.cosine_bump(g, amplitude=0.4)
    r1 = DensityField.gaussian(g, 0.65, 0.18)
    return displacement_path(r0, r1, 32, g), ExponentField.affine(2.0, 1.0, g), g


@pytest.mark.parametrize("path", ["interpolation", "pde_stride_1"])
def test_curve_length_is_one_finder_call_summing_segment_speeds(monkeypatch, path):
    traj, p, g = _interpolation_path() if path == "interpolation" else _pde_path(1)
    calls = []
    real = varexp.bisect

    def counted(*args, **kwargs):
        calls.append(args[1].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(varexp, "bisect", counted)
    length = finsler.curve_length(traj, p, g)
    assert calls == [len(traj) - 1]
    by_segment = sum(finsler.metric_derivative(traj, p, g, k)
                     * float(traj.times[k + 1] - traj.times[k])
                     for k in range(len(traj) - 1))
    assert length == pytest.approx(by_segment, rel=1e-12)


def test_pde_curve_length_agrees_across_strides():
    # consecutive recorded states differ in mass by rounding, which over a
    # step of dt ~ 1e-4 gives a difference quotient a mean far above
    # MEAN_TOL; the quotient's check is relative to the masses over dt
    lengths = []
    for stride in (1, 10, 100):
        traj, p, g = _pde_path(stride)
        lengths.append(finsler.curve_length(traj, p, g))
    lower = 0.5 * transport.wasserstein_1d(p.p_minus, traj.states[0], traj.final, g)
    assert len(traj) == 2
    assert min(lengths) > lower
    assert max(lengths) <= 1.01 * min(lengths)


def test_tangent_norm_of_a_quotient_matches_the_metric_derivative():
    # metric_derivative checks a quotient's mean against the mass-relative
    # scale that curve speeds use, so it measures every segment; a plain
    # tangent vector with the same values keeps the strict MEAN_TOL check;
    # at n = 48 the Euler steps are short enough that the mass rounding of
    # many segments, divided by dt, fails that strict check
    traj, p, g = _pde_path(1, n=48)
    strict_rejects = 0
    for k in range(len(traj) - 1):
        dt = float(traj.times[k + 1] - traj.times[k])
        nu = (traj.states[k + 1].density(g) - traj.states[k].density(g)) / dt
        speed = finsler.metric_derivative(traj, p, g, k)
        try:
            norm = finsler.tangent_norm(traj.states[k], finsler.TangentVector(nu), p, g)
        except NonzeroMeanError:
            strict_rejects += 1
            continue
        assert norm == pytest.approx(speed, rel=1e-12)
    assert strict_rejects > 0


def test_quotient_of_unequal_masses_still_needs_zero_mean():
    # the quotient's tolerance follows its masses: two states whose masses
    # differ by far more than MASS_TOL are not a curve of densities
    g = make_grid(0.0, 1.0, 8)
    rho = DensityField.cosine_bump(g, amplitude=0.3)
    heavier = DensityField.from_masses(1.001 * rho.mass, require_unit_mass=False)
    traj = Trajectory(times=np.array([0.0, 1e-3]), states=[rho, heavier])
    p = ExponentField.constant(2.0, 8)
    with pytest.raises(NonzeroMeanError):
        finsler.curve_length(traj, p, g)
