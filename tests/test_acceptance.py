"""Acceptance gate: one test per shipping criterion, each printing a
single PASS line with the measured numbers once its assertions clear.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines."""

import numpy as np
import pytest

from varwass import finsler, jko, pde, transport
from varwass.energy import builtin_energy, total_energy
from varwass.grid import integrate, make_grid
from varwass.jko import Trajectory
from varwass.varexp import (
    DensityField,
    ExponentField,
    conjugate,
    luxemburg_norm,
    modular,
)

ENTROPY = builtin_energy("entropy")
QUADRATIC = builtin_energy("quadratic")


def _cross_validate(energy):
    """Shared N=64 flow for the first two criteria; returns (L1, jko traj,
    pde traj, grid)."""
    g = make_grid(0.0, 1.0, 64)
    p2 = ExponentField.constant(2.0, g.n_cells)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    h, t_end = 2e-4, 0.02
    opts = jko.JkoOptions(backend="entropic", smoothing=0.5 * g.dx,
                          exact_coupling=False)
    flow = jko.run_flow(rho0, energy, p2, h, t_end, g, opts)
    ref = pde.solve(rho0, energy, p2, pde.PdeConfig(t_end=t_end, stride=10**9),
                    g)
    l1 = float(np.abs(flow.states[-1].density(g)
                      - ref.states[-1].density(g)).sum() * g.dx)
    return l1, flow, ref, g


def test_criterion_01_heat_cross_validation():
    l1, _, ref, g = _cross_validate(ENTROPY)
    assert l1 <= 5e-2
    target = 0.5 * np.exp(-np.pi**2 * 0.02)
    amp = 2.0 * integrate(
        (ref.states[-1].density(g) - 1.0) * np.cos(np.pi * g.centers), g)
    assert amp == pytest.approx(target, rel=0.10)
    print(f"criterion 1: PASS (L1={l1:.2e}, mode amplitude {amp:.5f} "
          f"vs {target:.5f})")


def test_criterion_02_nonlinear_cross_validation():
    l1, flow, ref, g = _cross_validate(QUADRATIC)
    assert l1 <= 5e-2
    e_flow = [total_energy(s, QUADRATIC, g) for s in flow.states]
    e_ref = [total_energy(s, QUADRATIC, g) for s in ref.states]
    assert np.all(np.diff(e_flow) <= 1e-12)
    assert np.all(np.diff(e_ref) <= 1e-12)
    print(f"criterion 2: PASS (L1={l1:.2e}, both energy series "
          f"nonincreasing)")


def test_criterion_03_variable_exponent_smoke():
    g = make_grid(0.0, 1.0, 32)
    p = ExponentField.affine(2.0, 1.0, g)
    rho0 = DensityField.cosine_bump(g, amplitude=0.5)
    h = 1e-3
    opts = jko.JkoOptions(backend="entropic",
                          smoothing=float(np.sqrt(0.8 * h)),
                          exact_coupling=False)
    traj = jko.run_flow(rho0, ENTROPY, p, h, 50 * h, g, opts)
    assert len(traj.steps) == 50

    worst_mass = max(s.mass_error for s in traj.steps)
    assert worst_mass <= 1e-9

    m0 = float(rho0.density(g).max())
    worst_max = max(float(s.density(g).max()) for s in traj.states)
    assert worst_max <= m0 * (1.0 + 1e-6)

    report = jko.dissipation_check(traj, ENTROPY, p, g)
    assert report.worst_step_slack >= -1e-6

    residuals = []
    for hh in (h, h / 2.0):
        o = jko.JkoOptions(backend="entropic",
                           smoothing=float(np.sqrt(0.8 * hh)),
                           exact_coupling=True)
        step = jko.jko_step(rho0, ENTROPY, p, hh, g, o)
        residuals.append(step.el_residual)
    assert residuals[1] <= 0.75 * residuals[0]
    print(f"criterion 3: PASS (mass={worst_mass:.1e}, "
          f"max {worst_max:.6f} <= {m0 * (1 + 1e-6):.6f}, "
          f"slack>={report.worst_step_slack:+.1e}, "
          f"residual ratio {residuals[1] / residuals[0]:.3f})")


def test_criterion_04_maximum_principle():
    g = make_grid(0.0, 1.0, 16)
    p = ExponentField.affine(2.0, 1.0, g)
    h = 1e-3
    opts = jko.JkoOptions(backend="entropic",
                          smoothing=float(np.sqrt(0.8 * h)),
                          exact_coupling=False)
    worst_ratio = 0.0
    runs = 0
    for m2, n_seeds in ((1.5, 7), (3.0, 7), (10.0, 6)):
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 * seed + int(10 * m2))
            v = 0.05 + 0.95 * rng.random(g.n_cells)
            d = m2 * v / v.max()
            rho = DensityField.from_masses(d * g.dx, require_unit_mass=False)
            traj = jko.run_flow(rho, ENTROPY, p, h, 10 * h, g, opts)
            peak = max(float(s.density(g).max()) for s in traj.states)
            worst_ratio = max(worst_ratio, peak / m2)
            runs += 1
    assert runs == 20
    assert worst_ratio <= 1.0 + 1e-6
    print(f"criterion 4: PASS (20 runs, worst max/M2 = {worst_ratio:.12f})")


def test_criterion_05_step_optimality():
    g = make_grid(0.0, 1.0, 12)
    p = ExponentField.affine(2.0, 1.0, g)
    h = 0.01
    cost = transport.build_cost(g, p, h)
    opts = jko.JkoOptions(backend="mirror", exact_coupling=True)
    worst_margin = -np.inf
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        v = 0.1 + 0.9 * rng.random(g.n_cells)
        rho_prev = DensityField.from_masses(v * g.dx / (v.sum() * g.dx))
        step = jko.jko_step(rho_prev, ENTROPY, p, h, g, opts)
        value_k = step.transport_cost + step.energy_after
        comp_masses = rng.dirichlet(np.full(g.n_cells, 2.0))
        comp = DensityField.from_masses(comp_masses)
        plan = transport.solve_exact(cost, rho_prev.mass, comp.mass)
        value_comp = plan.value + total_energy(comp, ENTROPY, g)
        worst_margin = max(worst_margin, value_k - value_comp)
        assert value_k <= value_comp + 1e-7
    print(f"criterion 5: PASS (50 instances, worst I(rho_k)-I(comp) = "
          f"{worst_margin:+.3e})")


def test_criterion_06_transport_oracles():
    # 4-point exact solver vs vertex enumeration
    g4 = make_grid(0.0, 1.0, 4)
    p4 = ExponentField.affine(1.6, 1.2, g4)
    cost4 = transport.build_cost(g4, p4, 0.7)
    worst_lp = 0.0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        mu = rng.dirichlet(np.full(4, 1.5))
        nu = rng.dirichlet(np.full(4, 1.5))
        fast = transport.solve_exact(cost4, mu, nu)
        _, slow_value = transport.solve_brute_force(cost4, mu, nu)
        worst_lp = max(worst_lp, abs(fast.value - slow_value))
        assert abs(fast.value - slow_value) <= 1e-9

    # entropic solver at eps = 1e-3 * median cost
    g16 = make_grid(0.0, 1.0, 16)
    p16 = ExponentField.affine(2.0, 1.0, g16)
    cost16 = transport.build_cost(g16, p16, 1.0)
    off = cost16.values[~np.eye(16, dtype=bool)]
    eps = 1e-3 * float(np.median(off))
    worst_gap = 0.0
    for seed in range(5):
        rng = np.random.default_rng(640 + seed)
        mu = rng.dirichlet(np.full(16, 2.0))
        nu = rng.dirichlet(np.full(16, 2.0))
        exact = transport.solve_exact(cost16, mu, nu)
        ent = transport.solve_entropic(cost16, mu, nu, eps)
        assert ent.converged
        gap = abs(ent.value - exact.value) / max(abs(exact.value), 1e-300)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.02

    # quantile distance vs the LP on shared grids
    g32 = make_grid(0.0, 1.0, 32)
    r0 = DensityField.cosine_bump(g32, amplitude=0.4)
    r1 = DensityField.gaussian(g32, 0.65, 0.18)
    worst_w = 0.0
    for p_const in (1.5, 2.0, 3.0):
        x = g32.centers
        plain = transport.CostMatrix(
            np.abs(x[:, None] - x[None, :]) ** p_const, 1.0,
            ExponentField.constant(p_const, 32))
        lp = transport.solve_exact(plain, r0.mass, r1.mass)
        w = transport.wasserstein_1d(p_const, r0, r1, g32)
        dev = abs(w - lp.value ** (1.0 / p_const))
        worst_w = max(worst_w, dev)
        assert dev <= 1e-9
    print(f"criterion 6: PASS (LP dev {worst_lp:.1e}, entropic gap "
          f"{worst_gap:.2%}, quantile dev {worst_w:.1e})")


def test_criterion_07_norm_properties():
    g = make_grid(0.0, 1.0, 24)
    worst_mod, worst_hom, worst_tri = 0.0, 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        rho = DensityField.from_masses(rng.dirichlet(np.full(24, 3.0)))
        p = ExponentField(rng.uniform(1.2, 4.0, 24))
        u = rng.standard_normal(24) * rng.uniform(0.1, 5.0)
        w = rng.standard_normal(24) * rng.uniform(0.1, 5.0)
        c = float(rng.uniform(0.1, 10.0))
        nu_ = luxemburg_norm(u, rho, p, g)
        if nu_ > 0.0:
            worst_mod = max(worst_mod, abs(modular(u, rho, p, nu_, g) - 1.0))
        worst_hom = max(worst_hom,
                        abs(luxemburg_norm(c * u, rho, p, g) - c * nu_))
        worst_tri = max(worst_tri,
                        luxemburg_norm(u + w, rho, p, g) - nu_
                        - luxemburg_norm(w, rho, p, g))
    assert worst_mod <= 1e-9
    assert worst_hom <= 1e-10
    assert worst_tri <= 1e-10

    worst_emb, worst_hold = -np.inf, -np.inf
    for seed in range(100):
        rng = np.random.default_rng(4200 + seed)
        rho = DensityField.from_masses(rng.dirichlet(np.full(24, 3.0)))
        lo = rng.uniform(1.2, 2.5, 24)
        p1 = ExponentField(lo)
        p2 = ExponentField(lo + rng.uniform(0.0, 1.5, 24))
        u = rng.standard_normal(24)
        worst_emb = max(worst_emb, luxemburg_norm(u, rho, p1, g)
                        - 2.0 * luxemburg_norm(u, rho, p2, g))

        p = ExponentField(rng.uniform(1.3, 3.5, 24))
        q = conjugate(p)
        v = rng.standard_normal(24)
        lhs = integrate(np.abs(u * v) * rho.density(g), g)
        bound = ((1.0 / p.p_minus + 1.0 / q.p_minus)
                 * luxemburg_norm(u, rho, p, g)
                 * luxemburg_norm(v, rho, q, g))
        worst_hold = max(worst_hold, lhs - bound)
    assert worst_emb <= 1e-10
    assert worst_hold <= 1e-10
    print(f"criterion 7: PASS (modular dev {worst_mod:.1e}, homogeneity "
          f"{worst_hom:.1e}, triangle {worst_tri:.1e}, embedding slack "
          f"{worst_emb:+.1e}, Holder slack {worst_hold:+.1e})")


def test_criterion_08_comparison_principle():
    g = make_grid(0.0, 1.0, 32)
    x = g.centers
    worst = -np.inf
    for variable_q in (False, True):
        q = (ExponentField.affine(2.0, 1.0, g) if variable_q
             else ExponentField.constant(2.0, 32))
        for seed in range(10):
            rng = np.random.default_rng(8100 + seed)
            a, b, c, ph = (rng.uniform(-0.3, 0.3) for _ in range(4))
            lo_v = 0.6 + a * np.sin(2 * np.pi * x + ph) + b * np.cos(np.pi * x)
            hi_v = lo_v + 0.15 + 0.25 * (1.0 + np.sin(np.pi * x + c))
            lo = DensityField.from_masses(lo_v * g.dx, require_unit_mass=False)
            hi = DensityField.from_masses(hi_v * g.dx, require_unit_mass=False)
            smax = max(
                float(np.max(np.abs(np.diff(np.log(f.density(g))))) / g.dx)
                for f in (lo, hi))
            dmax = (smax * smax + 1e-16) ** ((float(q.values.max()) - 2.0) / 2.0)
            dt = 0.35 * g.dx**2 / max(dmax, 1.0)
            cfg = pde.PdeConfig(t_end=5e-3, fixed_dt=dt, stride=1)
            rep = pde.comparison_check(pde.solve(lo, ENTROPY, q, cfg, g),
                                       pde.solve(hi, ENTROPY, q, cfg, g), g)
            worst = max(worst, rep.max_positive_part, rep.worst_increase)
            assert rep.max_positive_part <= 1e-9
            assert rep.worst_increase <= 1e-9
    print(f"criterion 8: PASS (20 ordered pairs, worst positive part / "
          f"increase = {worst:+.1e})")


def test_criterion_09_finsler_sandwich():
    g = make_grid(0.0, 1.0, 64)
    r0 = DensityField.cosine_bump(g, amplitude=0.4)
    r1 = DensityField.gaussian(g, 0.65, 0.18)
    p2 = ExponentField.constant(2.0, g.n_cells)
    w2 = transport.wasserstein_1d(2.0, r0, r1, g)
    gaps = []
    for path_h in (0.1, 0.05):
        n_steps = round(1.0 / path_h)
        ts = np.linspace(0.0, 1.0, n_steps + 1)
        states = [transport.displacement_interpolant(r0, r1, float(t), g)
                  for t in ts]
        length = finsler.curve_length(
            Trajectory(times=ts, states=states), p2, g)
        assert length >= w2 - 5e-3
        gaps.append(abs(length - w2))
    assert gaps[0] / gaps[1] >= 1.5
    print(f"criterion 9: PASS (gaps {gaps[0]:.2e} -> {gaps[1]:.2e}, "
          f"shrink factor {gaps[0] / gaps[1]:.2f})")


def test_criterion_10_finsler_axioms_and_gradient():
    g = make_grid(0.0, 1.0, 24)
    p = ExponentField.affine(1.7, 1.1, g)
    rho = DensityField.cosine_bump(g, amplitude=0.4)
    worst_hom, worst_sub = 0.0, -np.inf
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n1 = rng.standard_normal(24)
        n1 -= n1.mean()
        n2 = rng.standard_normal(24)
        n2 -= n2.mean()
        t1 = finsler.TangentVector(n1)
        base = finsler.tangent_norm(rho, t1, p, g)
        assert base > 0.0
        a = float(rng.uniform(0.2, 5.0))
        scaled = finsler.tangent_norm(rho, finsler.TangentVector(a * n1), p, g)
        worst_hom = max(worst_hom, abs(scaled - a * base) / (a * base))
        sub = (finsler.tangent_norm(rho, finsler.TangentVector(n1 + n2), p, g)
               - base - finsler.tangent_norm(rho, finsler.TangentVector(n2),
                                             p, g))
        worst_sub = max(worst_sub, sub)
    assert worst_hom <= 1e-10
    assert worst_sub <= 1e-10

    q = conjugate(p)
    grad = finsler.finsler_gradient(rho, ENTROPY, q, g)
    assert np.array_equal(grad.values, -pde.rhs(rho, ENTROPY, q, g))

    descents = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        x = g.centers
        a, b = rng.uniform(-0.3, 0.3, 2)
        vals = 0.9 + a * np.sin(2 * np.pi * x) + b * np.cos(np.pi * x)
        rr = DensityField.from_masses(vals * g.dx, require_unit_mass=False)
        direction = -finsler.finsler_gradient(rr, ENTROPY, q, g).values
        tau = 1e-2 * float(vals.min()) / max(float(np.abs(direction).max()),
                                             1e-30)
        moved = DensityField.from_masses((vals + tau * direction) * g.dx,
                                         require_unit_mass=False)
        if total_energy(moved, ENTROPY, g) < total_energy(rr, ENTROPY, g):
            descents += 1
    assert descents == 20
    print(f"criterion 10: PASS (homogeneity {worst_hom:.1e}, subadditivity "
          f"{worst_sub:+.1e}, gradient exact, 20/20 descents)")
