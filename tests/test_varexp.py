import numpy as np
import pytest

from varwass.errors import (ExponentRangeError, InvalidDensityError,
                            InvalidParameterError, NonpositiveParameterError,
                            VarwassError)
from varwass.grid import make_grid
from varwass.varexp import (
    DensityField,
    ExponentField,
    conjugate,
    luxemburg_norm,
    modular,
)


def random_inputs(rng, n, g):
    u = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
    w = rng.random(n) + 1e-3
    rho = DensityField.from_masses(w / w.sum())
    p = ExponentField(rng.uniform(1.2, 4.0, n))
    return u, rho, p


def modular_by_loop(u, rho, p, lam, g):
    # Independent oracle: direct summation, no vectorization shortcuts.
    total = 0.0
    for i in range(g.n_cells):
        total += abs(u[i] / lam) ** p.values[i] * (rho.mass[i] / g.dx) * g.dx
    return total


def norm_by_scalar_rootfind(u, rho, p, g):
    # Independent oracle: bisect the modular equation directly.
    lo, hi = 1e-12, 1.0
    while modular_by_loop(u, rho, p, hi, g) > 1.0:
        hi *= 2.0
    while modular_by_loop(u, rho, p, lo, g) < 1.0:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular_by_loop(u, rho, p, mid, g) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestExponentField:
    def test_conjugate_of_two_is_two(self):
        p = ExponentField.constant(2.0, 4)
        np.testing.assert_allclose(conjugate(p).values, 2.0)

    def test_conjugate_of_three(self):
        p = ExponentField.constant(3.0, 4)
        np.testing.assert_allclose(conjugate(p).values, 1.5)

    def test_conjugate_componentwise(self):
        q = conjugate(ExponentField(np.array([1.5, 4.0])))
        np.testing.assert_allclose(q.values, [3.0, 4.0 / 3.0])
        assert q.p_minus == pytest.approx(4.0 / 3.0)
        assert q.p_plus == pytest.approx(3.0)

    def test_conjugate_is_an_involution(self):
        rng = np.random.default_rng(3)
        p = ExponentField(rng.uniform(1.05, 6.0, 16))
        back = conjugate(conjugate(p))
        np.testing.assert_allclose(back.values, p.values, atol=1e-14)

    def test_exponent_bounds_enforced(self):
        with pytest.raises(ExponentRangeError):
            ExponentField(np.array([2.0, 1.0]))
        with pytest.raises(ExponentRangeError):
            ExponentField(np.array([0.5, 2.0]))

    def test_affine_ramp_values(self):
        g = make_grid(0.0, 1.0, 4)
        p = ExponentField.affine(2.0, 1.0, g)
        np.testing.assert_allclose(p.values, 2.0 + np.asarray(g.centers))
        assert p.p_minus == pytest.approx(2.125)
        assert p.p_plus == pytest.approx(2.875)


class TestDensityField:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DensityField.from_masses(np.array([0.5, 0.6, -0.1]))

    def test_rejects_non_unit_mass_by_default(self):
        with pytest.raises(ValueError):
            DensityField.from_masses(np.array([0.5, 0.6]))
        DensityField.from_masses(np.array([0.5, 0.6]), require_unit_mass=False)

    def test_from_cell_values_normalizes(self):
        g = make_grid(0.0, 1.0, 4)
        rho = DensityField.from_cell_values(np.array([1.0, 2.0, 3.0, 4.0]), g)
        assert rho.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_cosine_bump_needs_small_amplitude(self):
        g = make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            DensityField.cosine_bump(g, 1.0)
        rho = DensityField.cosine_bump(g, 0.5)
        assert rho.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_density_values(self):
        g = make_grid(0.0, 1.0, 2)
        rho = DensityField.from_masses(np.array([0.25, 0.75]))
        np.testing.assert_allclose(rho.density(g), [0.5, 1.5])

    # the validation takes the minimum and then the sum (or, without the
    # unit-mass check, the maximum); these pin that it rejects what the full
    # isfinite / any-negative passes rejected, with the same messages

    @pytest.mark.parametrize("entries,unit", [
        ([0.5, np.nan, 0.5], True),
        ([0.5, np.nan, 0.5], False),
        ([0.5, np.inf, 0.5], True),
        ([0.5, np.inf, 0.5], False),
        ([0.5, -np.inf, 0.5], True),
        ([0.5, -np.inf, 0.5], False),
        ([np.inf, 0.5, -np.inf], True),   # the sum of these would be NaN
        ([np.inf, 0.5, -np.inf], False),
        ([np.nan, -1.0, 2.0], True),      # finiteness is checked before sign
    ])
    def test_rejects_non_finite_mass(self, entries, unit):
        with pytest.raises(InvalidDensityError) as info:
            DensityField(np.array(entries), require_unit_mass=unit)
        assert str(info.value) == "mass must be finite"

    def test_finite_mass_whose_sum_overflows(self):
        # finite entries whose sum is inf: without the unit-mass check the
        # total must still be finite, or every later sum of them overflows
        with pytest.raises(InvalidDensityError) as info:
            DensityField(np.array([1e308, 1e308]), require_unit_mass=False)
        assert str(info.value) == "masses must have a finite total, got inf"
        # the unit-mass sum overflows, as it always has, and reads inf
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidDensityError) as info:
                DensityField(np.array([1e308, 1e308]))
        assert str(info.value) == (
            "masses must sum to 1 within 1e-12, got inf")

    def test_overflowing_unit_mass_sum_raises_the_typed_error_without_a_warning(self):
        # tier-1 turns warnings into errors: the overflow of the sum must not
        # surface as numpy's RuntimeWarning ahead of the typed error
        with pytest.raises(InvalidDensityError) as info:
            DensityField(np.array([1e308, 1e308]))
        assert str(info.value) == (
            "masses must sum to 1 within 1e-12, got inf")

    @pytest.mark.parametrize("amplitude", [np.nan, 1.0, -1.0, np.inf])
    def test_cosine_bump_rejects_a_bad_amplitude_by_name(self, amplitude):
        g = make_grid(0.0, 1.0, 8)
        with pytest.raises(InvalidParameterError, match="amplitude"):
            DensityField.cosine_bump(g, amplitude)

    @pytest.mark.parametrize("center,width,name", [
        (0.5, np.nan, "width"),
        (0.5, np.inf, "width"),
        (0.5, 0.0, "width"),
        (np.nan, 0.1, "center"),
        (np.inf, 0.1, "center"),
        (-np.inf, 0.1, "center"),
    ])
    def test_gaussian_rejects_bad_parameters_by_name(self, center, width, name):
        g = make_grid(0.0, 1.0, 8)
        with pytest.raises(InvalidParameterError, match=name):
            DensityField.gaussian(g, center, width)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center,width", [(0.5, 1e-300), (1e308, 1.0)])
    def test_gaussian_whose_exponent_overflows_has_no_mass_and_no_warning(
            self, center, width):
        # the squared offset overflows to inf (or its quotient does), and
        # exp(-inf) = 0 in every cell
        g = make_grid(0.0, 1.0, 8)
        with pytest.raises(InvalidDensityError, match="positive total mass"):
            DensityField.gaussian(g, center, width)

    def test_accepts_negative_zero_mass(self):
        rho = DensityField(np.array([-0.0, 0.25, 0.75, -0.0]))
        assert rho.total_mass == 1.0
        DensityField(np.array([-0.0, 1.0]), require_unit_mass=False)

    @pytest.mark.parametrize("entries,unit,message", [
        ([], True, "mass must be a nonempty 1-D array"),
        ([[0.5, 0.5]], True, "mass must be a nonempty 1-D array"),
        ([0.5, 0.6, -0.1], True, "mass must be nonnegative, got min -0.1"),
        ([0.5, 0.6, -0.1], False, "mass must be nonnegative, got min -0.1"),
        ([0.5, 0.6], True, "masses must sum to 1 within 1e-12, got 1.1"),
    ])
    def test_messages(self, entries, unit, message):
        with pytest.raises(InvalidDensityError) as info:
            DensityField(np.array(entries), require_unit_mass=unit)
        assert str(info.value) == message


def _bad_varexp_calls():
    g = make_grid(0.0, 1.0, 4)
    rho, p = DensityField.uniform(g), ExponentField.constant(2.0, 4)
    return {
        "empty mass": (lambda: DensityField(np.array([])), InvalidDensityError),
        "non-finite mass": (lambda: DensityField(np.array([np.nan, 1.0])),
                            InvalidDensityError),
        "negative mass": (lambda: DensityField(np.array([1.5, -0.5])),
                          InvalidDensityError),
        "non-unit mass": (lambda: DensityField(np.array([0.5, 0.6])),
                          InvalidDensityError),
        "negative values": (lambda: DensityField.from_cell_values(
            np.array([1.0, -1.0, 1.0, 1.0]), g), InvalidDensityError),
        "zero values": (lambda: DensityField.from_cell_values(np.zeros(4), g),
                        InvalidDensityError),
        "amplitude": (lambda: DensityField.cosine_bump(g, 1.0), InvalidParameterError),
        "width": (lambda: DensityField.gaussian(g, 0.5, 0.0), InvalidParameterError),
        "non-finite u": (lambda: modular(np.array([1.0, np.nan, 0.0, 0.0]), rho, p,
                                         1.0, g), InvalidDensityError),
    }


@pytest.mark.parametrize("case", sorted(_bad_varexp_calls()))
def test_varexp_errors_are_typed(case):
    call, error = _bad_varexp_calls()[case]
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, VarwassError)
    assert isinstance(info.value, ValueError)


class TestModular:
    def test_unit_function_at_unit_scale(self):
        g = make_grid(0.0, 1.0, 5)
        rho = DensityField.uniform(g)
        p = ExponentField(np.linspace(1.5, 3.0, 5))
        assert modular(np.ones(5), rho, p, 1.0, g) == pytest.approx(1.0, abs=1e-15)

    def test_zero_function(self):
        g = make_grid(0.0, 1.0, 5)
        rho = DensityField.uniform(g)
        p = ExponentField.constant(2.0, 5)
        assert modular(np.zeros(5), rho, p, 1.0, g) == 0.0

    def test_two_cell_mixed_exponents(self):
        # masses (0.5, 0.5) on (0,1,2) mean density 1 in both cells, so the
        # u=(0,2), p=(2,4) modular at lambda=1 is 2^4 * 1 * 0.5 = 8.
        g = make_grid(0.0, 1.0, 2)
        rho = DensityField.from_masses(np.array([0.5, 0.5]))
        p = ExponentField(np.array([2.0, 4.0]))
        u = np.array([0.0, 2.0])
        got = modular(u, rho, p, 1.0, g)
        assert got == pytest.approx(8.0, abs=1e-12)
        assert got == pytest.approx(modular_by_loop(u, rho, p, 1.0, g), abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_zero_mass_cells_never_contribute(self):
        # |1e300|^2 overflows on a cell without mass, where it once made
        # inf * 0 = NaN; the norm of the same u is 1
        g = make_grid(0.0, 1.0, 4)
        rho = DensityField.from_masses(np.array([0.5, 0.5, 0.0, 0.0]))
        p = ExponentField.constant(2.0, 4)
        u = np.array([1.0, 1.0, 1e300, 0.0])
        assert modular(u, rho, p, 1.0, g) == 1.0
        assert luxemburg_norm(u, rho, p, g) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_a_term_that_overflows_on_a_cell_with_mass_is_inf(self):
        g = make_grid(0.0, 1.0, 4)
        rho = DensityField.from_masses(np.array([0.5, 0.5, 0.0, 0.0]))
        p = ExponentField.constant(2.0, 4)
        assert modular(np.array([1e300, 1.0, 0.0, 0.0]), rho, p, 1.0, g) == np.inf
        assert modular(np.ones(4), rho, p, 1e-300, g) == np.inf

    def test_rejects_nonpositive_lambda(self):
        g = make_grid(0.0, 1.0, 2)
        rho = DensityField.uniform(g)
        p = ExponentField.constant(2.0, 2)
        with pytest.raises(NonpositiveParameterError):
            modular(np.ones(2), rho, p, 0.0, g)


class TestLuxemburgNorm:
    def test_constant_function(self):
        g = make_grid(0.0, 1.0, 6)
        rho = DensityField.uniform(g)
        p = ExponentField(np.linspace(1.3, 3.5, 6))
        assert luxemburg_norm(np.full(6, 2.5), rho, p, g) == pytest.approx(
            2.5, rel=1e-10
        )

    def test_constant_exponent_closed_form(self):
        g = make_grid(0.0, 1.0, 2)
        rho = DensityField.from_masses(np.array([0.5, 0.5]))
        p = ExponentField.constant(2.0, 2)
        got = luxemburg_norm(np.array([0.0, 2.0]), rho, p, g)
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_mixed_exponent_two_cells(self):
        # Only the second cell contributes: (2/lam)^4 * 0.5 = 1 at the norm,
        # so lam = 2 * 2^(-1/4). Cross-checked against the scalar root-find.
        g = make_grid(0.0, 1.0, 2)
        rho = DensityField.from_masses(np.array([0.5, 0.5]))
        p = ExponentField(np.array([2.0, 4.0]))
        u = np.array([0.0, 2.0])
        got = luxemburg_norm(u, rho, p, g)
        assert got == pytest.approx(2.0 * 2.0 ** (-0.25), rel=1e-10)
        assert got == pytest.approx(norm_by_scalar_rootfind(u, rho, p, g), rel=1e-9)

    def test_matches_independent_rootfind_on_samples(self):
        g = make_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(11)
        for _ in range(25):
            u, rho, p = random_inputs(rng, 8, g)
            got = luxemburg_norm(u, rho, p, g)
            want = norm_by_scalar_rootfind(u, rho, p, g)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_modular_equals_one_at_the_norm(self):
        g = make_grid(0.0, 1.0, 12)
        rng = np.random.default_rng(23)
        for _ in range(100):
            u, rho, p = random_inputs(rng, 12, g)
            lam = luxemburg_norm(u, rho, p, g)
            if lam > 0.0:
                assert modular(u, rho, p, lam, g) == pytest.approx(1.0, abs=1e-9)

    def test_absolute_homogeneity(self):
        g = make_grid(0.0, 1.0, 10)
        rng = np.random.default_rng(29)
        for _ in range(100):
            u, rho, p = random_inputs(rng, 10, g)
            c = rng.uniform(-4.0, 4.0)
            left = luxemburg_norm(c * u, rho, p, g)
            right = abs(c) * luxemburg_norm(u, rho, p, g)
            assert abs(left - right) <= 1e-10 * max(1.0, right)

    def test_triangle_inequality(self):
        g = make_grid(0.0, 1.0, 10)
        rng = np.random.default_rng(31)
        for _ in range(100):
            u, rho, p = random_inputs(rng, 10, g)
            v = rng.standard_normal(10)
            both = luxemburg_norm(u + v, rho, p, g)
            split = luxemburg_norm(u, rho, p, g) + luxemburg_norm(v, rho, p, g)
            assert both <= split + 1e-10

    def test_zero_only_off_support(self):
        g = make_grid(0.0, 1.0, 4)
        rho = DensityField.from_masses(np.array([0.5, 0.5, 0.0, 0.0]))
        p = ExponentField.constant(2.0, 4)
        u = np.array([0.0, 0.0, 3.0, -1.0])  # lives only where rho vanishes
        assert luxemburg_norm(u, rho, p, g) == 0.0
        u[0] = 1e-3
        assert luxemburg_norm(u, rho, p, g) > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_function(self, bad):
        # a NaN would otherwise drop out of the support maximum and read as 0
        g = make_grid(0.0, 1.0, 4)
        rho = DensityField.uniform(g)
        p = ExponentField.constant(2.0, 4)
        with pytest.raises(ValueError):
            luxemburg_norm(np.array([1.0, bad, 0.5, 0.0]), rho, p, g)

    def test_embedding_between_pointwise_ordered_exponents(self):
        g = make_grid(0.0, 1.0, 10)
        rng = np.random.default_rng(37)
        for _ in range(100):
            u, rho, _ = random_inputs(rng, 10, g)
            p2 = ExponentField(rng.uniform(1.3, 4.0, 10))
            shrink = rng.uniform(0.0, 1.0, 10)
            p1 = ExponentField(1.05 + (p2.values - 1.05) * (1.0 - shrink * 0.8))
            assert np.all(p1.values <= p2.values + 1e-15)
            n1 = luxemburg_norm(u, rho, p1, g)
            n2 = luxemburg_norm(u, rho, p2, g)
            assert n1 <= 2.0 * n2 + 1e-12

    def test_holder_inequality(self):
        g = make_grid(0.0, 1.0, 10)
        rng = np.random.default_rng(41)
        for _ in range(100):
            u, rho, p = random_inputs(rng, 10, g)
            v = rng.standard_normal(10) * rng.uniform(0.1, 3.0)
            q = conjugate(p)
            pairing = float(
                np.sum(np.abs(u * v) * rho.mass / g.dx * g.dx)
            )
            const = 1.0 / p.p_minus + 1.0 / q.p_minus
            bound = const * luxemburg_norm(u, rho, p, g) * luxemburg_norm(v, rho, q, g)
            assert pairing <= bound + 1e-10

    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_norm_at_and_near_one(self, n):
        # at u = 1 and unit mass the log modular is exactly 0 over a run of
        # doubles around log lam = 0; the root must still be found
        g = make_grid(0.0, 1.0, n)
        p = ExponentField(np.linspace(1.3, 3.5, n))
        for rho in (DensityField.uniform(g), DensityField.cosine_bump(g, 0.4)):
            assert abs(luxemburg_norm(np.ones(n), rho, p, g) - 1.0) <= 1e-15
            for c in (1.0 - 1e-4, 1.0 + 1e-4):
                got = luxemburg_norm(np.full(n, c), rho, p, g)
                assert abs(got - c) <= 1e-15 * c

    def test_matches_scalar_oracle_to_rounding_on_rough_samples(self):
        # vacuum cells, exponents from near 1 to 8 and magnitudes over twelve
        # decades; the oracle bisects 200 times
        g = make_grid(0.0, 1.0, 12)
        rng = np.random.default_rng(47)
        for _ in range(60):
            m = rng.random(12) ** 3
            m[rng.random(12) < 0.25] = 0.0
            m[0] += 1e-3
            rho = DensityField.from_masses(m / m.sum())
            p = ExponentField(rng.uniform(1.02, 8.0, 12))
            u = rng.standard_normal(12) * 10.0 ** rng.uniform(-6.0, 6.0)
            want = norm_by_scalar_rootfind(u, rho, p, g)
            assert luxemburg_norm(u, rho, p, g) == pytest.approx(want, rel=1e-13)

    def test_constant_exponent_consistency(self):
        g = make_grid(0.0, 1.0, 9)
        rng = np.random.default_rng(43)
        for r in (1.5, 2.0, 3.0):
            p = ExponentField.constant(r, 9)
            for _ in range(10):
                u, rho, _ = random_inputs(rng, 9, g)
                want = float(np.sum(np.abs(u) ** r * rho.mass)) ** (1.0 / r)
                got = luxemburg_norm(u, rho, p, g)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("values", [[], [2.0, float("nan")], [2.0, float("inf")]])
def test_exponent_field_rejects_empty_and_non_finite_values(values):
    with pytest.raises(ExponentRangeError):
        ExponentField(np.array(values))
