import warnings

import numpy as np
import pytest

from varwass.energy import RHO_FLOOR, builtin_energy, total_energy
from varwass.errors import InvalidParameterError, VarwassError
from varwass.grid import make_grid
from varwass.varexp import DensityField

ALL_MODELS = [
    builtin_energy("quadratic"),
    builtin_energy("entropy"),
    builtin_energy("power", m=2.5),
    builtin_energy("power", m=3.0),
]


def numeric_legendre(e, s, lo=1e-9, hi=1e4, n=400_001):
    # Brute-force sup_t (s t - G(t)) on a dense log grid, as an independent
    # check of the closed-form legendre implementations.
    t = np.geomspace(lo, hi, n)
    return float(np.max(s * t - e.value(t)))


def test_quadratic_closed_forms():
    e = builtin_energy("quadratic")
    assert e.value(2.0) == pytest.approx(2.0)
    assert e.deriv(2.0) == pytest.approx(2.0)
    assert e.legendre(3.0) == pytest.approx(4.5)


def test_entropy_closed_forms():
    e = builtin_energy("entropy")
    assert e.value(1.0) == pytest.approx(0.0, abs=1e-15)
    assert e.deriv(1.0) == pytest.approx(1.0)
    assert e.legendre(1.0) == pytest.approx(1.0)


def test_entropy_legendre_against_numeric_sup():
    e = builtin_energy("entropy")
    s = np.log(2.0) + 1.0
    want = numeric_legendre(e, s)
    assert e.legendre(s) == pytest.approx(2.0, rel=1e-9)
    assert e.legendre(s) == pytest.approx(want, rel=1e-6)


def test_quadratic_legendre_against_numeric_sup():
    e = builtin_energy("quadratic")
    for s in (0.5, 1.0, 3.0):
        assert e.legendre(s) == pytest.approx(numeric_legendre(e, s), rel=1e-6)


def test_vanishing_at_zero():
    for e in ALL_MODELS:
        assert float(e.value(0.0)) == pytest.approx(0.0, abs=1e-300)


def test_convexity_sampled():
    t = np.geomspace(1e-6, 1e3, 200)
    for e in ALL_MODELS:
        assert np.all(e.second(t) >= 0.0), e.name


def test_fenchel_identity():
    t = np.geomspace(1e-3, 1e2, 100)
    for e in ALL_MODELS:
        lhs = e.legendre(e.deriv(t))
        rhs = t * e.deriv(t) - e.value(t)
        scale = np.maximum(1.0, np.abs(rhs))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9, e.name


def test_deriv_matches_central_differences():
    t = np.geomspace(1e-3, 1e2, 60)
    for e in ALL_MODELS:
        delta = 1e-6 * t
        fd = (e.value(t + delta) - e.value(t - delta)) / (2.0 * delta)
        assert np.max(np.abs(fd - e.deriv(t)) / np.abs(e.deriv(t))) <= 1e-6, e.name


def test_power_requires_m_above_one():
    with pytest.raises(ValueError):
        builtin_energy("power", m=1.0)
    with pytest.raises(ValueError):
        builtin_energy("power")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        builtin_energy("cubic")


@pytest.mark.parametrize("kind,m", [("cubic", None), ("power", None), ("power", 1.0),
                                    ("power", 0.5), ("power", float("nan")),
                                    ("power", float("inf"))])
def test_bad_energy_arguments_raise_typed_errors(kind, m):
    with pytest.raises(InvalidParameterError) as info:
        builtin_energy(kind, m=m)
    assert isinstance(info.value, VarwassError)
    assert isinstance(info.value, ValueError)


def test_total_energy_uniform():
    g = make_grid(0.0, 1.0, 16)
    rho = DensityField.uniform(g)
    assert total_energy(rho, builtin_energy("quadratic"), g) == pytest.approx(0.5)
    assert total_energy(rho, builtin_energy("entropy"), g) == pytest.approx(
        0.0, abs=1e-14
    )


def test_total_energy_concentrated():
    g = make_grid(0.0, 1.0, 2)
    rho = DensityField.from_masses(np.array([1.0, 0.0]))
    assert total_energy(rho, builtin_energy("quadratic"), g) == pytest.approx(1.0)


def test_jensen_lower_bound():
    g = make_grid(0.0, 1.0, 20)
    rng = np.random.default_rng(47)
    uniform = DensityField.uniform(g)
    for e in ALL_MODELS:
        floor = g.length * float(e.value(1.0 / g.length))
        assert total_energy(uniform, e, g) == pytest.approx(floor, abs=1e-12)
        for _ in range(100):
            w = rng.random(20) + 1e-4
            rho = DensityField.from_masses(w / w.sum())
            assert total_energy(rho, e, g) >= floor - 1e-12


def _entropy_value_with_guards(t):
    # the expression builtin_energy("entropy").value replaced
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_entropy_value_matches_the_guarded_expression_bit_for_bit(seed):
    rng = np.random.default_rng(900 + seed)
    t = np.concatenate([rng.random(200) * 10.0 ** rng.integers(-12, 4, 200),
                        np.zeros(8),
                        np.array([5e-324, 1e-310, 2.2e-308, 1e200]),
                        rng.random(8) * 1e-315])
    rng.shuffle(t)
    value = builtin_energy("entropy").value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = value(t)
    assert got.tobytes() == _entropy_value_with_guards(t).tobytes()


def test_entropy_value_at_zero_and_nan():
    value = builtin_energy("entropy").value
    assert value(0.0) == 0.0
    assert np.isnan(value(np.nan))
    out = value(np.array([0.5, np.nan, 0.0]))
    assert np.isnan(out[1]) and not np.isnan(out[[0, 2]]).any()


def _as_float(t):
    return np.asarray(t, dtype=float)


def _floored(t):
    return np.maximum(_as_float(t), 1e-12)


# the builtin energies written out with Python-float operands; each energy
# must return the same type, dtype, shape and bits
WRITTEN_OUT = {
    "entropy": {
        "value": lambda t: _as_float(t) * np.log(np.where(_as_float(t) > 0.0, _as_float(t), 1.0)),
        "deriv": lambda t: np.log(_floored(t)) + 1.0,
        "second": lambda t: 1.0 / _floored(t),
    },
    "quadratic": {
        "value": lambda t: 0.5 * _as_float(t) ** 2,
        "deriv": lambda t: _as_float(t),
        "second": lambda t: np.ones_like(_as_float(t)),
    },
    "power(1.5)": {
        "value": lambda t: _as_float(t) ** 1.5 / 0.5,
        "deriv": lambda t: 1.5 * _floored(t) ** 0.5 / 0.5,
        "second": lambda t: 1.5 * _floored(t) ** -0.5,
    },
    "power(3.0)": {
        "value": lambda t: _as_float(t) ** 3.0 / 2.0,
        "deriv": lambda t: 3.0 * _floored(t) ** 2.0 / 2.0,
        "second": lambda t: 3.0 * _floored(t) ** 1.0,
    },
}
EDGE_VALUES = [0.0, RHO_FLOOR, float(np.nextafter(RHO_FLOOR, 0.0)),
               float(np.nextafter(RHO_FLOOR, 1.0)), 5e-324, 1e-310, 1e300, float("nan")]


@pytest.mark.parametrize("part", ["value", "deriv", "second"])
@pytest.mark.parametrize("name", sorted(WRITTEN_OUT))
def test_builtin_energies_keep_their_bits_and_result_types(name, part):
    kind, _, m = name.partition("(")
    e = builtin_energy(kind, float(m[:-1]) if m else None)
    assert e.name == name
    fn, written = getattr(e, part), WRITTEN_OUT[name][part]
    column = np.array(EDGE_VALUES)
    inputs = EDGE_VALUES + [np.array(x) for x in EDGE_VALUES] + [
        column, np.stack([column, column[::-1], 2.0 * column])]
    for t in inputs:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got, want = fn(t), written(t)
        assert type(got) is type(want), (t, type(got), type(want))
        assert got.dtype == want.dtype and got.shape == want.shape, t
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (t, got, want)
