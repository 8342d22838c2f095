import numpy as np
import pytest

from varwass.errors import (
    MarginalMismatchError,
    NonpositiveParameterError,
    SizeMismatchError,
)
from varwass.grid import make_grid
from varwass.transport import (
    CostMatrix,
    Coupling,
    build_cost,
    displacement_interpolant,
    solve_brute_force,
    solve_entropic,
    solve_exact,
    wasserstein_1d,
)
from varwass.varexp import DensityField, ExponentField


def random_masses(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


def vacuum_pair(n):
    """Two mass vectors with empty first, last and interior cells."""
    rng = np.random.default_rng(97)
    mu = random_masses(rng, n)
    nu = random_masses(rng, n)
    mu[[0, n // 2, n // 2 + 1]] = 0.0
    nu[[n // 3, n - 1]] = 0.0
    return mu / mu.sum(), nu / nu.sum()


def plain_power_cost(g, p_const):
    x = np.asarray(g.centers)
    values = np.abs(x[None, :] - x[:, None]) ** p_const
    return CostMatrix(values, 1.0, ExponentField.constant(p_const, g.n_cells))


class TestBuildCost:
    def test_quadratic_at_unit_scale(self):
        g = make_grid(0.0, 1.0, 2)  # centers 0.25 and 0.75, distance 0.5
        c = build_cost(g, ExponentField.constant(2.0, 2), 1.0)
        assert c.values[0, 1] == pytest.approx(0.125)
        assert c.values[1, 0] == pytest.approx(0.125)

    def test_cubic_with_half_step(self):
        g = make_grid(0.0, 1.0, 2)
        c = build_cost(g, ExponentField.constant(3.0, 2), 0.5)
        assert c.values[0, 1] == pytest.approx(1.0 / 6.0)

    def test_diagonal_is_zero(self):
        g = make_grid(0.0, 1.0, 8)
        c = build_cost(g, ExponentField.affine(2.0, 1.0, g), 0.3)
        np.testing.assert_array_equal(np.diag(c.values), np.zeros(8))
        assert np.all(c.values >= 0.0)

    def test_asymmetric_for_variable_exponent(self):
        g = make_grid(0.0, 1.0, 8)
        c = build_cost(g, ExponentField.affine(2.0, 1.0, g), 0.3)
        assert not np.allclose(c.values, c.values.T)

    def test_rejects_nonpositive_h(self):
        g = make_grid(0.0, 1.0, 4)
        with pytest.raises(NonpositiveParameterError):
            build_cost(g, ExponentField.constant(2.0, 4), 0.0)

    def test_scaled_cost_ordering_in_p(self):
        # On a domain of diameter <= 1 with h = 1, |x-y|^p2 <= |x-y|^p1
        # whenever p1 <= p2 pointwise, so c_{p2} p2 <= c_{p1} p1 entrywise
        # and optimal plain-power costs are nonincreasing in the exponent.
        g = make_grid(0.0, 1.0, 6)
        rng = np.random.default_rng(53)
        for _ in range(20):
            base = rng.uniform(1.1, 3.0, 6)
            bump = rng.uniform(0.0, 1.5, 6)
            p1 = ExponentField(base)
            p2 = ExponentField(base + bump)
            c1 = build_cost(g, p1, 1.0)
            c2 = build_cost(g, p2, 1.0)
            lhs = c2.values * p2.values[:, None]
            rhs = c1.values * p1.values[:, None]
            assert np.all(lhs <= rhs + 1e-12)

    def test_optimal_plain_cost_nonincreasing_in_constant_p(self):
        g = make_grid(0.0, 1.0, 4)
        rng = np.random.default_rng(59)
        mu = random_masses(rng, 4)
        nu = random_masses(rng, 4)
        values = [
            solve_exact(plain_power_cost(g, p_const), mu, nu).value
            for p_const in (1.5, 2.0, 3.0)
        ]
        assert values[0] >= values[1] - 1e-12
        assert values[1] >= values[2] - 1e-12


class TestCoupling:
    def test_rejects_marginal_mismatch(self):
        gam = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(MarginalMismatchError):
            Coupling(gam, np.array([0.4, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_negative_entries(self):
        gam = np.array([[0.6, -0.1], [0.0, 0.5]])
        with pytest.raises(ValueError):
            Coupling(gam, np.array([0.5, 0.5]), np.array([0.6, 0.4]))

    def test_marginal_error_reports_worst_gap(self):
        gam = np.array([[0.5, 0.0], [0.0, 0.5]])
        c = Coupling(gam, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert c.marginal_error() == pytest.approx(0.0, abs=1e-16)


class TestSolveExact:
    def test_identity_plan_for_equal_marginals(self):
        g = make_grid(0.0, 1.0, 6)
        cost = build_cost(g, ExponentField.constant(2.0, 6), 0.1)
        mu = random_masses(np.random.default_rng(2), 6)
        res = solve_exact(cost, mu, mu)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_forced_plan(self):
        g = make_grid(0.0, 1.0, 2)
        cost = build_cost(g, ExponentField.constant(2.0, 2), 1.0)
        res = solve_exact(cost, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert res.value == pytest.approx(cost.values[0, 1], rel=1e-12)
        assert res.coupling.gamma[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_vertex_enumeration_on_four_points(self):
        g = make_grid(0.0, 1.0, 4)
        rng = np.random.default_rng(61)
        for k in range(30):
            if k % 2 == 0:
                p = ExponentField.constant(2.0, 4)
            else:
                p = ExponentField(rng.uniform(1.2, 3.5, 4))
            cost = build_cost(g, p, rng.uniform(0.05, 1.0))
            mu = random_masses(rng, 4)
            nu = random_masses(rng, 4)
            fast = solve_exact(cost, mu, nu)
            _, slow_value = solve_brute_force(cost, mu, nu)
            assert fast.value == pytest.approx(slow_value, abs=1e-9)

    def test_duality_certificate(self):
        g = make_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(67)
        for _ in range(10):
            cost = build_cost(g, ExponentField(rng.uniform(1.2, 3.0, 8)), 0.2)
            mu = random_masses(rng, 8)
            nu = random_masses(rng, 8)
            res = solve_exact(cost, mu, nu)
            reduced = cost.values - res.row_potential[:, None] - res.col_potential[None, :]
            assert reduced.min() >= -1e-7
            assert np.max(np.abs(reduced * res.coupling.gamma)) <= 1e-7
            dual_value = float(res.row_potential @ mu + res.col_potential @ nu)
            assert abs(dual_value - res.value) <= 1e-7

    def test_rejects_total_mass_mismatch(self):
        g = make_grid(0.0, 1.0, 4)
        cost = build_cost(g, ExponentField.constant(2.0, 4), 1.0)
        with pytest.raises(MarginalMismatchError):
            solve_exact(cost, np.full(4, 0.25), np.full(4, 0.30))

    def test_size_cap(self):
        g = make_grid(0.0, 1.0, 80)
        cost = build_cost(g, ExponentField.constant(2.0, 80), 1.0)
        with pytest.raises(SizeMismatchError):
            solve_exact(cost, np.full(80, 1.0 / 80), np.full(80, 1.0 / 80))

    def test_deterministic(self):
        g = make_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(71)
        cost = build_cost(g, ExponentField(rng.uniform(1.2, 3.0, 8)), 0.5)
        mu = random_masses(rng, 8)
        nu = random_masses(rng, 8)
        a = solve_exact(cost, mu, nu)
        b = solve_exact(cost, mu, nu)
        np.testing.assert_array_equal(a.coupling.gamma, b.coupling.gamma)
        assert a.value == b.value


class TestSolveBruteForce:
    def test_size_cap(self):
        g = make_grid(0.0, 1.0, 5)
        cost = build_cost(g, ExponentField.constant(2.0, 5), 1.0)
        with pytest.raises(SizeMismatchError):
            solve_brute_force(cost, np.full(5, 0.2), np.full(5, 0.2))


class TestSolveEntropic:
    def test_singleton_polytope_is_exact_for_any_eps(self):
        g = make_grid(0.0, 1.0, 2)
        cost = build_cost(g, ExponentField.constant(2.0, 2), 1.0)
        mu = np.array([1.0, 0.0])
        nu = np.array([0.0, 1.0])
        for eps in (1e-3, 1e-1, 1.0):
            res = solve_entropic(cost, mu, nu, eps)
            assert res.value == pytest.approx(cost.values[0, 1], rel=1e-8)

    def test_two_percent_gap_at_small_eps(self):
        g = make_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(73)
        for _ in range(5):
            cost = build_cost(g, ExponentField(rng.uniform(1.3, 3.0, 8)), 0.4)
            mu = random_masses(rng, 8)
            nu = random_masses(rng, 8)
            exact = solve_exact(cost, mu, nu).value
            off_diag = cost.values[~np.eye(8, dtype=bool)]
            eps = 1e-3 * float(np.median(off_diag))
            res = solve_entropic(cost, mu, nu, eps)
            assert res.converged
            assert abs(res.value - exact) <= 0.02 * max(exact, 1e-12)

    def test_value_decreases_toward_exact_as_eps_shrinks(self):
        g = make_grid(0.0, 1.0, 4)
        rng = np.random.default_rng(79)
        cost = build_cost(g, ExponentField.constant(2.0, 4), 0.7)
        mu = random_masses(rng, 4)
        nu = random_masses(rng, 4)
        exact = solve_exact(cost, mu, nu).value
        values = [
            solve_entropic(cost, mu, nu, eps).value for eps in (4e-2, 2e-2, 1e-2)
        ]
        assert values[0] >= values[1] >= values[2] >= exact - 1e-9

    def test_plan_converges_to_unique_optimum(self):
        # Strictly convex 1-d costs give a unique (monotone) optimal plan;
        # the entropic plan's L1 distance to it should roughly halve with eps.
        g = make_grid(0.0, 1.0, 4)
        rng = np.random.default_rng(83)
        cost = plain_power_cost(g, 2.0)
        mu = random_masses(rng, 4)
        nu = random_masses(rng, 4)
        star = solve_exact(cost, mu, nu).coupling.gamma
        gaps = []
        for eps in (8e-2, 4e-2, 2e-2):
            gam = solve_entropic(cost, mu, nu, eps).coupling.gamma
            gaps.append(float(np.abs(gam - star).sum()))
        assert gaps[1] <= 0.65 * gaps[0]
        assert gaps[2] <= 0.65 * gaps[1]

    def test_rejects_nonpositive_eps(self):
        g = make_grid(0.0, 1.0, 2)
        cost = build_cost(g, ExponentField.constant(2.0, 2), 1.0)
        with pytest.raises(NonpositiveParameterError):
            solve_entropic(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0)


class TestWasserstein1d:
    def test_identical_marginals(self):
        g = make_grid(0.0, 1.0, 8)
        rho = DensityField.cosine_bump(g, 0.3)
        assert wasserstein_1d(2.0, rho, rho, g) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_masses(self):
        g = make_grid(0.0, 1.0, 8)
        mu = np.zeros(8)
        nu = np.zeros(8)
        mu[1] = 1.0
        nu[6] = 1.0
        d = abs(g.centers[6] - g.centers[1])
        for p_const in (1.5, 2.0, 3.0):
            got = wasserstein_1d(
                p_const,
                DensityField.from_masses(mu),
                DensityField.from_masses(nu),
                g,
            )
            assert got == pytest.approx(d, rel=1e-12)

    def test_matches_linear_program(self):
        g = make_grid(0.0, 1.0, 16)
        rng = np.random.default_rng(89)
        cases = [(p_const, random_masses(rng, 16), random_masses(rng, 16))
                 for p_const in (1.5, 2.0, 3.0)]
        cases += [(p_const, *vacuum_pair(16)) for p_const in (1.5, 2.0, 3.0)]
        for p_const, mu, nu in cases:
            mu = DensityField.from_masses(mu)
            nu = DensityField.from_masses(nu)
            lp = solve_exact(plain_power_cost(g, p_const), mu.mass, nu.mass)
            want = lp.value ** (1.0 / p_const)
            got = wasserstein_1d(p_const, mu, nu, g)
            assert got == pytest.approx(want, abs=1e-9)


class TestDisplacementInterpolant:
    def test_endpoints(self):
        g = make_grid(0.0, 1.0, 16)
        pairs = [(DensityField.cosine_bump(g, 0.4), DensityField.gaussian(g, 0.6, 0.15)),
                 tuple(DensityField.from_masses(m) for m in vacuum_pair(16))]
        for mu, nu in pairs:
            np.testing.assert_allclose(
                displacement_interpolant(mu, nu, 0.0, g).mass, mu.mass, atol=1e-12
            )
            np.testing.assert_allclose(
                displacement_interpolant(mu, nu, 1.0, g).mass, nu.mass, atol=1e-12
            )

    def test_midpoint_is_a_density(self):
        g = make_grid(0.0, 1.0, 16)
        mu = DensityField.cosine_bump(g, 0.4)
        nu = DensityField.gaussian(g, 0.6, 0.15)
        mid = displacement_interpolant(mu, nu, 0.5, g)
        assert mid.total_mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(mid.mass >= 0.0)

    def test_rejects_time_outside_unit_interval(self):
        g = make_grid(0.0, 1.0, 8)
        mu = DensityField.uniform(g)
        with pytest.raises(ValueError):
            displacement_interpolant(mu, mu, 1.5, g)
