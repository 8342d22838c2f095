import dataclasses

import numpy as np
import pytest

from varwass.errors import (
    InvalidDensityError,
    InvalidParameterError,
    MarginalMismatchError,
    NegativeCouplingError,
    NonpositiveParameterError,
    NumericalBlowupError,
    SizeMismatchError,
    VarwassError,
)
from varwass import transport
from varwass._kernels import logsumexp
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
    return CostMatrix(values)


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

    def test_negative_entries_raise_a_typed_value_error(self):
        gam = np.array([[0.6, -0.1], [0.0, 0.5]])
        with pytest.raises(NegativeCouplingError) as info:
            Coupling(gam, np.array([0.5, 0.5]), np.array([0.6, 0.4]))
        assert isinstance(info.value, ValueError)

    def test_marginal_error_reports_worst_gap(self):
        gam = np.array([[0.5, 0.0], [0.0, 0.5]])
        c = Coupling(gam, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert c.marginal_error() == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_marginal_error_is_nan_when_a_marginal_is_nan(self, side):
        half, nan = np.array([0.5, 0.5]), np.array([np.nan, np.nan])
        mu, nu = (nan, half) if side == "rows" else (half, nan)
        with pytest.raises(MarginalMismatchError):
            Coupling(np.eye(2) / 2, mu, nu)

    def test_has_no_unchecked_constructor(self):
        half = np.array([0.5, 0.5])
        with pytest.raises(TypeError):
            Coupling(np.eye(2) / 2, half, half, check=False)
        assert not hasattr(Coupling, "of_plan")
        assert [f.name for f in dataclasses.fields(Coupling)] == [
            "gamma", "row_marginal", "col_marginal"]

    def test_checks_the_columns_as_well_as_the_rows(self):
        gam = np.array([[0.3, 0.2], [0.1, 0.4]])
        off = gam.sum(axis=0) + np.array([1e-8, -1e-8])
        with pytest.raises(MarginalMismatchError):
            Coupling(gam, gam.sum(axis=1), off)


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

    def test_mismatch_message_prints_plain_floats(self):
        # the same text under numpy 1 and 2, which would print np.float64(2.0)
        g = make_grid(0.0, 1.0, 4)
        cost = build_cost(g, ExponentField.constant(2.0, 4), 1.0)
        with pytest.raises(MarginalMismatchError) as info:
            solve_exact(cost, np.full(4, 0.5), np.full(4, 0.25))
        assert str(info.value) == "total masses differ: 2.0 vs 1.0"

    def test_bad_row_marginal_raises_before_the_column_one(self):
        g = make_grid(0.0, 1.0, 4)
        cost = build_cost(g, ExponentField.constant(2.0, 4), 1.0)
        with pytest.raises(InvalidDensityError) as info:
            solve_exact(cost, np.array([0.5, -0.1, 0.3, 0.3]), np.array([np.nan, 0.5, 0.25, 0.25]))
        assert str(info.value) == "mass must be nonnegative, got min -0.1"
        with pytest.raises(InvalidDensityError) as info:
            solve_exact(cost, np.full(4, 0.25), np.array([np.nan, 0.5, 0.25, 0.25]))
        assert str(info.value) == "mass must be finite"

    def test_size_cap(self):
        g = make_grid(0.0, 1.0, 257)
        cost = build_cost(g, ExponentField.constant(2.0, 257), 1.0)
        with pytest.raises(SizeMismatchError):
            solve_exact(cost, np.full(257, 1.0 / 257), np.full(257, 1.0 / 257))

    @pytest.mark.parametrize("C, nu", [
        ([[1e308, -1e308], [-1e308, 1e308]], [0.5, 0.5]),
        ([[0.0, 1e308], [1e308, 0.0]], [0.2, 0.8]),
    ], ids=["opposite-signs", "huge-off-diagonal"])
    def test_overflowing_reduced_costs_raise(self, C, nu):
        # (C - u) - v overflows on the final pricing, so its certificate
        # cannot be read; the first instance's diagonal, at +1e308, used to
        # come back as optimal where the anti-diagonal gives -1e308
        with pytest.raises(NumericalBlowupError, match="overflow"):
            solve_exact(CostMatrix(np.array(C)), np.array([0.5, 0.5]), np.array(nu))

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


def _dense_simplex(C, mu, nu):
    """The revised simplex that the tree basis replaced, as the reference.

    Two dense solves on the (2n-1)-square basis matrix per pivot, with the
    entering rule (per-arc tolerance, Dantzig then Bland) and the leaving
    rule of solve_exact. Returns the plan and the pivot count.
    """
    n = len(mu)
    nu_eff = transport._folded(nu, mu.sum(), nu.sum())
    b_vec = np.concatenate([mu, nu_eff[:-1]])
    stair = transport._northwest_corner(mu, nu_eff)
    basis = [i * n + j for i, j, _ in stair]
    B = np.column_stack([transport._constraint_column(k, n) for k in basis])
    x_b = np.array([mass for _, _, mass in stair])
    in_basis = np.zeros(n * n, dtype=bool)
    in_basis[basis] = True
    bland, degenerate_run, pivots = False, 0, 0
    while True:
        y = np.linalg.solve(B.T, C.ravel()[basis])
        u, v = y[:n], np.append(y[n:], 0.0)
        reduced = C - u[:, None] - v[None, :]
        tol = 1e-10 * (1.0 + np.abs(C) + np.abs(u)[:, None] + np.abs(v)[None, :])
        improving = (reduced < -tol).ravel()
        improving[in_basis] = False
        negs = np.flatnonzero(improving)
        if negs.size == 0:
            break
        enter = int(negs[0] if bland else negs[np.argmin(reduced.ravel()[negs])])
        col = transport._constraint_column(enter, n)
        d = np.linalg.solve(B, col)
        positive = d > 1e-12
        ratios = np.where(positive, x_b / np.where(positive, d, 1.0), np.inf)
        theta = ratios.min()
        tie = np.flatnonzero(ratios <= theta + 1e-13 * (1.0 + theta))
        leave = int(min(tie, key=lambda slot: basis[slot]))
        x_b = x_b - theta * d
        x_b[leave] = theta
        x_b = np.maximum(x_b, 0.0)
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter
        B[:, leave] = col
        pivots += 1
        degenerate_run = degenerate_run + 1 if theta <= 1e-13 else 0
        bland = bland or degenerate_run > 25
    gamma = np.zeros(n * n)
    gamma[basis] = np.linalg.solve(B, b_vec)
    return gamma.reshape(n, n), pivots


def _exact_steps_pair(g, seed):
    """Marginals of a comparison LP of the benchmark's exact_steps ops: a
    0.1 + 0.9 U density against a Gaussian, drawn from seed."""
    rng = np.random.default_rng(seed)
    v = 0.1 + 0.9 * rng.random(g.n_cells)
    comp = DensityField.gaussian(g, rng.uniform(0.25, 0.75), rng.uniform(0.08, 0.2))
    return v / v.sum(), comp.mass


def _exact_steps_cost():
    """The exact_steps cost: n=64, p = 2 + x, h = 1e-2."""
    g = make_grid(0.0, 1.0, 64)
    return g, build_cost(g, ExponentField.affine(2.0, 1.0, g), 1e-2)


def _tree_and_dense_instances():
    """Variable-p costs at small and large h, some marginals with vacuum
    cells; then assignment problems (random costs, equal uniform
    marginals), whose degenerate pivots reach Bland's rule; then three
    exact_steps comparison LPs, which take 174, 107 and 204 pivots."""
    rng = np.random.default_rng(113)
    for k in range(12):
        n = (8, 16, 32)[k % 3]
        p = ExponentField(rng.uniform(1.2, 3.5, n))
        cost = build_cost(make_grid(0.0, 1.0, n), p, (1e-3, 1e-2, 0.3)[k % 4 % 3])
        mu = rng.dirichlet(np.full(n, 2.0))
        nu = rng.dirichlet(np.full(n, 2.0))
        if k % 4 == 1:
            mu[rng.choice(n, n // 3 + 1, replace=False)] = 0.0
            nu[rng.choice(n, n // 3 + 1, replace=False)] = 0.0
        yield cost, mu / mu.sum(), nu / nu.sum()
    for _ in range(4):
        cost = CostMatrix(rng.random((32, 32)))
        yield cost, np.full(32, 1.0 / 32), np.full(32, 1.0 / 32)
    g, cost = _exact_steps_cost()
    for seed in (10, 11, 13):
        yield (cost, *_exact_steps_pair(g, seed))


class TestTreeBasisAgainstDenseSimplex:
    def test_same_pivots_and_plans(self):
        for cost, mu, nu in _tree_and_dense_instances():
            res = solve_exact(cost, mu, nu)
            gamma, pivots = _dense_simplex(cost.values, mu, nu)
            assert res.pivots == pivots
            np.testing.assert_allclose(res.coupling.gamma, gamma, rtol=0.0, atol=1e-12)


def _highs_value(C, mu, nu, presolve=True):
    """Optimal value of the transport LP by scipy's HiGHS, an independent solver.

    With presolve on, HiGHS (scipy 1.17.1) calls some feasible instances
    infeasible, such as _exact_steps_pair(g, 3) with its column of mass
    9.8e-12; presolve=False solves those."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = len(mu)
    rows = sparse.kron(sparse.eye(n), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(n))
    res = optimize.linprog(
        C.ravel(), A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([mu, nu]), bounds=(0.0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10, "presolve": presolve})
    assert res.status == 0, res.message
    return res.fun


class TestSolveExactAgainstHighs:
    # Variable-p costs at small h span about 1e-12 to 5e6; seed 5 at n=64,
    # h=1e-3 stopped 6e-7 above the optimum with a reduced cost of -3.5e-4
    # under a tolerance scaled by the largest cost.
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_value_and_certificate(self, n, h):
        rng = np.random.default_rng(5)
        p = rng.uniform(1.3, 3.5, n)
        cost = build_cost(make_grid(0.0, 1.0, n), ExponentField(p), h)
        mu = rng.dirichlet(np.full(n, 2.0))
        nu = rng.dirichlet(np.full(n, 2.0))
        res = solve_exact(cost, mu, nu)
        want = _highs_value(cost.values, mu, nu)
        assert abs(res.value - want) <= 1e-9 * want
        u, v = res.row_potential, res.col_potential
        reduced = cost.values - u[:, None] - v[None, :]
        scale = 1.0 + np.abs(cost.values) + np.abs(u)[:, None] + np.abs(v)[None, :]
        assert np.all(reduced >= -1e-10 * scale)
        gamma = res.coupling.gamma
        assert np.all(np.abs(reduced[gamma > 0.0]) <= 1e-12 * scale[gamma > 0.0])
        assert abs(u @ mu + v @ nu - res.value) <= 1e-9 * res.value

    @staticmethod
    def _check_exact_steps_instance(seed, presolve):
        g, cost = _exact_steps_cost()
        mu, nu = _exact_steps_pair(g, seed)
        res = solve_exact(cost, mu, nu)
        assert res.pivots >= 100
        want = _highs_value(cost.values, mu, nu, presolve)
        assert abs(res.value - want) <= 1e-9 * want
        u, v = res.row_potential, res.col_potential
        reduced = cost.values - u[:, None] - v[None, :]
        scale = 1.0 + np.abs(cost.values) + np.abs(u)[:, None] + np.abs(v)[None, :]
        assert np.all(reduced >= -1e-10 * scale)
        support = res.coupling.gamma > 0.0
        assert np.all(np.abs(reduced[support]) <= 1e-12 * scale[support])

    def test_pivoting_exact_steps_instance(self):
        # a comparison LP of the benchmark, whose pivots make its tail (204)
        self._check_exact_steps_instance(13, presolve=True)

    def test_exact_steps_instance_with_a_tiny_column(self):
        # seed 3's Gaussian column holds 9.8e-12, a total that
        # _check_marginals must read with the bits of nu.sum(); 191 pivots.
        # HiGHS reports it infeasible with presolve on
        self._check_exact_steps_instance(3, presolve=False)


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

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        g = make_grid(0.0, 1.0, 2)
        cost = build_cost(g, ExponentField.constant(2.0, 2), 1.0)
        with pytest.raises(NonpositiveParameterError):
            solve_entropic(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]), eps)

    def test_iteration_cap_returns_the_last_iterate_unconverged(self, monkeypatch):
        # the cap and the stop are module constants; a capped run returns the
        # loop's iterate at the cap, as the full-grid reference loop does
        g = make_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(73)
        cost = build_cost(g, ExponentField(rng.uniform(1.3, 3.0, 8)), 0.4)
        mu, nu = random_masses(rng, 8), random_masses(rng, 8)
        eps = 1e-2 * float(np.median(cost.values[~np.eye(8, dtype=bool)]))
        assert solve_entropic(cost, mu, nu, eps).iterations > 3
        monkeypatch.setattr(transport, "ENTROPIC_MAX_ITERS", 3)
        capped = solve_entropic(cost, mu, nu, eps)
        gamma, _, its, converged, violation = _masked_sinkhorn(
            cost.values, mu, nu, eps, max_iters=3)
        assert (capped.iterations, capped.converged) == (its, converged) == (3, False)
        assert capped.marginal_violation == pytest.approx(violation, rel=1e-9)
        np.testing.assert_allclose(capped.coupling.gamma, gamma, rtol=0.0, atol=1e-12)
        # reported as the coupling of its own row sums, whose columns meet nu
        coupling = capped.coupling
        np.testing.assert_array_equal(coupling.row_marginal, coupling.gamma.sum(axis=1))
        np.testing.assert_array_equal(coupling.col_marginal, nu)
        assert coupling.marginal_error() <= transport.MARGINAL_TOL


def _masked_sinkhorn(C, mu, nu, eps, max_iters=100_000, tol=1e-10):
    """The entropic loop before it moved onto the marginals' support, as the
    reference: two n-by-n log-sum-exps over the whole grid per iteration,
    -inf potentials on empty cells, and the whole plan rebuilt each
    iteration to read the row violation. Returns (plan, value, iterations,
    converged, violation)."""
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
        log_nu = np.log(nu)
    f = np.where(np.isfinite(log_mu), 0.0, -np.inf)
    gp = np.where(np.isfinite(log_nu), 0.0, -np.inf)
    violation = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        with np.errstate(invalid="ignore"):
            f = eps * (log_mu - logsumexp((gp[None, :] - C) / eps, axis=1))
            f = np.where(np.isfinite(log_mu), f, -np.inf)
            gp = eps * (log_nu - logsumexp((f[:, None] - C) / eps, axis=0))
            gp = np.where(np.isfinite(log_nu), gp, -np.inf)
        with np.errstate(invalid="ignore"):
            gamma = np.exp((f[:, None] + gp[None, :] - C) / eps)
        gamma = np.nan_to_num(gamma, nan=0.0, posinf=0.0)
        violation = float(np.abs(gamma.sum(axis=1) - mu).sum())
        if violation < tol:
            break
    return gamma, float((C * gamma).sum()), it, violation < tol, violation


def _entropic_instances(vacuum):
    """Seeded variable-p costs at two time scales and two temperatures
    (fractions of the median off-diagonal cost); marginals from vacuum_pair
    (empty rows and columns) or with full support."""
    rng = np.random.default_rng(131)
    for n in (8, 16, 24):
        g = make_grid(0.0, 1.0, n)
        mu, nu = vacuum_pair(n) if vacuum else (random_masses(rng, n),
                                                random_masses(rng, n))
        for h in (0.3, 1.0):
            cost = build_cost(g, ExponentField(rng.uniform(1.3, 3.0, n)), h)
            off = np.median(cost.values[~np.eye(n, dtype=bool)])
            for scale in (1e-1, 3e-2):
                yield cost, mu, nu, scale * float(off)


class TestSolveEntropicAgainstMaskedLoop:
    @pytest.mark.parametrize("vacuum", [True, False], ids=["vacuum", "full"])
    def test_same_counts_and_plans(self, vacuum):
        for cost, mu, nu, eps in _entropic_instances(vacuum):
            res = solve_entropic(cost, mu, nu, eps)
            gamma, value, its, converged, _ = _masked_sinkhorn(cost.values, mu, nu, eps)
            assert res.converged and converged
            assert abs(res.iterations - its) <= 2
            np.testing.assert_allclose(res.coupling.gamma, gamma, rtol=0.0, atol=1e-12)
            assert np.all(res.coupling.gamma[mu == 0.0, :] == 0.0)
            assert np.all(res.coupling.gamma[:, nu == 0.0] == 0.0)
            if not vacuum and res.iterations == its:
                np.testing.assert_array_equal(res.coupling.gamma, gamma)
                assert res.value == value

    def test_zero_mass_returns_the_zero_plan(self):
        g = make_grid(0.0, 1.0, 6)
        cost = build_cost(g, ExponentField.affine(2.0, 1.0, g), 0.5)
        zero = np.zeros(6)
        res = solve_entropic(cost, zero, zero, 1e-2)
        gamma, value, its, converged, violation = _masked_sinkhorn(
            cost.values, zero, zero, 1e-2)
        np.testing.assert_array_equal(res.coupling.gamma, gamma)
        assert (res.value, res.iterations, res.converged, res.marginal_violation) == (
            value, its, converged, violation) == (0.0, 1, True, 0.0)


class TestWasserstein1d:
    def test_identical_marginals(self):
        g = make_grid(0.0, 1.0, 8)
        rho = DensityField.cosine_bump(g, 0.3)
        assert wasserstein_1d(2.0, rho, rho, g) == pytest.approx(0.0, abs=1e-12)

    def test_zero_total_is_zero_distance(self):
        g = make_grid(0.0, 1.0, 8)
        empty = DensityField.from_masses(np.zeros(8), require_unit_mass=False)
        assert wasserstein_1d(2.0, empty, empty, g) == 0.0

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

    def test_time_outside_unit_interval_raises_a_typed_value_error(self):
        g = make_grid(0.0, 1.0, 8)
        mu = DensityField.uniform(g)
        for t in (-0.1, 1.5, float("nan")):
            with pytest.raises(InvalidParameterError) as info:
                displacement_interpolant(mu, mu, t, g)
            assert isinstance(info.value, ValueError)

    def test_rejects_time_outside_unit_interval(self):
        g = make_grid(0.0, 1.0, 8)
        mu = DensityField.uniform(g)
        with pytest.raises(ValueError):
            displacement_interpolant(mu, mu, 1.5, g)

    def test_keeps_a_common_total_that_is_not_one(self):
        g = make_grid(0.0, 1.0, 16)
        mu, nu = (DensityField.from_masses(0.3 * m, require_unit_mass=False)
                  for m in vacuum_pair(16))
        for t, end in ((0.0, mu), (0.5, None), (1.0, nu)):
            state = displacement_interpolant(mu, nu, t, g)
            assert not state.require_unit_mass
            assert state.total_mass == pytest.approx(0.3, rel=1e-14)
            if end is not None:
                np.testing.assert_allclose(state.mass, end.mass, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_zero_total_gives_the_zero_state_silently(self):
        g = make_grid(0.0, 1.0, 8)
        empty = DensityField.from_masses(np.zeros(8), require_unit_mass=False)
        state = displacement_interpolant(empty, empty, 0.5, g)
        assert np.array_equal(state.mass, np.zeros(8))


@pytest.mark.parametrize("call", ["wasserstein_1d", "displacement_interpolant"])
@pytest.mark.parametrize("tiny_first", [True, False], ids=["tiny-empty", "empty-tiny"])
def test_one_empty_marginal_is_the_empty_case(call, tiny_first):
    # totals 1e-10 and 0 agree within MARGINAL_TOL, and the empty side has
    # no quantile function: the call gives its empty answer, silently
    g = make_grid(0.0, 1.0, 4)
    tiny = DensityField.from_masses(np.array([1e-10, 0.0, 0.0, 0.0]), require_unit_mass=False)
    empty = DensityField.from_masses(np.zeros(4), require_unit_mass=False)
    mu, nu = (tiny, empty) if tiny_first else (empty, tiny)
    if call == "wasserstein_1d":
        assert wasserstein_1d(2.0, mu, nu, g) == 0.0
    else:
        assert displacement_interpolant(mu, nu, 0.5, g) is mu


def _bad_transport_calls():
    g = make_grid(0.0, 1.0, 4)
    cost = build_cost(g, ExponentField.constant(2.0, 4), 1e-2)
    uniform = np.full(4, 0.25)
    rho = DensityField.uniform(g)
    heavy = DensityField.from_masses(np.full(4, 0.5), require_unit_mass=False)
    return {
        "non-square cost": (lambda: CostMatrix(np.zeros((2, 3))), SizeMismatchError),
        "coupling shape": (lambda: Coupling(np.zeros((2, 2)), np.full(3, 1 / 3),
                                            np.full(2, 0.5)), SizeMismatchError),
        "marginal shape": (lambda: solve_exact(cost, np.full(3, 1 / 3), uniform),
                           SizeMismatchError),
        "negative marginal": (lambda: solve_exact(cost, np.array([0.75, -0.25, 0.25, 0.25]),
                                                  uniform), InvalidDensityError),
        "wasserstein exponent below one": (lambda: wasserstein_1d(0.5, rho, rho, g),
                                           NonpositiveParameterError),
        "wasserstein masses differ": (lambda: wasserstein_1d(2.0, heavy, rho, g),
                                      MarginalMismatchError),
        "interpolant masses differ": (lambda: displacement_interpolant(heavy, rho, 0.5, g),
                                      MarginalMismatchError),
    }


@pytest.mark.parametrize("case", sorted(_bad_transport_calls()))
def test_transport_errors_are_typed(case):
    call, error = _bad_transport_calls()[case]
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, VarwassError)


def test_pivot_cap_raises_when_the_simplex_needs_a_pivot(monkeypatch):
    g = make_grid(0.0, 1.0, 6)
    cost = build_cost(g, ExponentField.affine(2.0, 1.0, g), 1e-2)
    rng = np.random.default_rng(5)
    mu, nu = random_masses(rng, 6), random_masses(rng, 6)
    assert solve_exact(cost, mu, nu).pivots > 0
    monkeypatch.setattr(transport, "MAX_PIVOTS", 0)
    with pytest.raises(NumericalBlowupError):
        solve_exact(cost, mu, nu)
