"""Every public entry point that takes a scalar or a mass vector turns a bad
one into a typed VarwassError, never into a number or a warning.

Each entry gets NaN, +inf and -inf, plus the finite values its rule
excludes; a mass vector gets them in one seeded cell. Finite masses whose
total overflows, and empty or wrong-length arrays, are checked too. The
suite runs with warnings as errors, so a RuntimeWarning on the way fails
the entry too.
"""

import math

import numpy as np
import pytest

from varwass import finsler, jko, pde, transport
from varwass.energy import builtin_energy
from varwass.errors import (InvalidDensityError, NonpositiveParameterError, SizeMismatchError,
                            VarwassError)
from varwass.grid import make_grid
from varwass.jko import Trajectory
from varwass.varexp import DensityField, ExponentField, luxemburg_norm, modular

NON_FINITE = (math.nan, math.inf, -math.inf)
N = 6


def _entry_points():
    """name -> (call of one bad value, the finite values its rule excludes)."""
    rng = np.random.default_rng(20)
    g = make_grid(0.0, 1.0, N)
    p = ExponentField.affine(2.0, 1.0, g)
    e = builtin_energy("entropy")
    rho = DensityField(rng.dirichlet(np.ones(N)))
    other = DensityField(rng.dirichlet(np.ones(N)))
    cost = transport.build_cost(g, p, 1e-2)
    pair = Trajectory(times=np.array([0.0, 1e-2]), states=[rho, other])

    def cell(base, x):
        """base with the value x in one seeded cell."""
        out = np.array(base, dtype=float)
        out[rng.integers(out.size)] = x
        return out

    def plan(x):
        return transport.Coupling(cell(np.outer(rho.mass, other.mass).ravel(), x)
                                  .reshape(N, N), rho.mass, other.mass)

    return {
        "grid.make_grid a": (lambda x: make_grid(x, 1.0, N), (1.0, 2.0)),
        "grid.make_grid b": (lambda x: make_grid(0.0, x, N), (0.0, -1.0)),
        "grid.make_grid length": (lambda x: make_grid(-x, x, N), (1e308,)),
        "grid.make_grid n_cells": (lambda x: make_grid(0.0, 1.0, x), (1, 0, -3)),
        "varexp.ExponentField.constant": (lambda x: ExponentField.constant(x, N),
                                          (1.0, 0.5)),
        "varexp.DensityField mass": (lambda x: DensityField(cell(rho.mass, x)), (-0.1,)),
        "varexp.DensityField.from_cell_values": (
            lambda x: DensityField.from_cell_values(cell(np.ones(N), x), g), (-1.0,)),
        "varexp.DensityField.cosine_bump": (lambda x: DensityField.cosine_bump(g, x),
                                            (1.0, -1.0)),
        "varexp.DensityField.gaussian center": (
            lambda x: DensityField.gaussian(g, x, 0.1), ()),
        "varexp.DensityField.gaussian width": (
            lambda x: DensityField.gaussian(g, 0.5, x), (0.0, -0.1)),
        "varexp.modular lam": (lambda x: modular(np.ones(N), rho, p, x, g), (0.0, -1.0)),
        "varexp.luxemburg_norm u": (lambda x: luxemburg_norm(cell(np.ones(N), x), rho,
                                                             p, g), ()),
        "energy.builtin_energy m": (lambda x: builtin_energy("power", m=x), (1.0, 0.5)),
        # h^(p-1) underflows to 0 at 1e-300 and overflows at 1e300 (p = 2 + x)
        "transport.build_cost h": (lambda x: transport.build_cost(g, p, x),
                                   (0.0, -1.0, 1e-300, 1e300)),
        "transport.Coupling gamma": (plan, (-0.1,)),
        "transport.CostMatrix values": (
            lambda x: transport.CostMatrix(cell(cost.values.ravel(), x).reshape(N, N)), ()),
        "transport.solve_exact mu": (
            lambda x: transport.solve_exact(cost, cell(rho.mass, x), other.mass), (-0.1,)),
        "transport.solve_exact nu": (
            lambda x: transport.solve_exact(cost, rho.mass, cell(other.mass, x)), (-0.1,)),
        "transport.solve_brute_force mu": (
            lambda x: transport.solve_brute_force(
                transport.build_cost(make_grid(0.0, 1.0, 3), ExponentField.constant(2.0, 3),
                                     1.0), cell(np.full(3, 1 / 3), x), np.full(3, 1 / 3)),
            (-0.1,)),
        "transport.solve_entropic mu": (
            lambda x: transport.solve_entropic(cost, cell(rho.mass, x), other.mass, 0.1),
            (-0.1,)),
        "transport.solve_entropic eps": (
            lambda x: transport.solve_entropic(cost, rho.mass, other.mass, x), (0.0, -1.0)),
        "transport.wasserstein_1d p": (
            lambda x: transport.wasserstein_1d(x, rho, other, g), (0.5, 0.0, -2.0)),
        "transport.displacement_interpolant t": (
            lambda x: transport.displacement_interpolant(rho, other, x, g), (-0.5, 1.5)),
        "jko.JkoOptions eps": (lambda x: jko.JkoOptions(eps=x), (0.0, -1.0)),
        "jko.JkoOptions smoothing": (lambda x: jko.JkoOptions(smoothing=x), (0.0, -1.0)),
        "jko.jko_step h": (lambda x: jko.jko_step(rho, e, p, x, g), (0.0, -1.0)),
        "jko.run_flow h": (lambda x: jko.run_flow(rho, e, p, x, 0.1, g),
                           (0.0, -1.0, 1e-320)),
        "jko.run_flow t_end": (lambda x: jko.run_flow(rho, e, p, 1e-2, x, g), (-1.0,)),
        "pde.PdeConfig t_end": (lambda x: pde.PdeConfig(t_end=x), (-1.0,)),
        "pde.PdeConfig cfl": (lambda x: pde.PdeConfig(t_end=1.0, cfl=x), (0.0, 1.5)),
        "pde.PdeConfig stride": (lambda x: pde.PdeConfig(t_end=1.0, stride=x), (0, -1)),
        "pde.PdeConfig fixed_dt": (lambda x: pde.PdeConfig(t_end=1.0, fixed_dt=x),
                                   (0.0, -1.0)),
        "jko.Trajectory time": (lambda x: Trajectory(times=np.array([x]), states=[rho]), ()),
        "finsler.TangentVector": (lambda x: finsler.TangentVector(cell(np.zeros(N), x)),
                                  ()),
        "finsler.metric_derivative k": (
            lambda x: finsler.metric_derivative(pair, p, g, x), (1, -1)),
        "finsler.metric_derivative time": (
            lambda x: finsler.metric_derivative(
                Trajectory(times=np.array([0.0, x]), states=[rho, other]), p, g, 0),
            (0.0, -1.0)),
        "finsler.curve_length time": (
            lambda x: finsler.curve_length(
                Trajectory(times=cell([0.0, 0.5, 1.0], x), states=[rho, other, rho]), p, g),
            ()),
    }


@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_bad_scalar_or_mass_raises_a_typed_error(name):
    call, invalid = _entry_points()[name]
    for x in NON_FINITE + invalid:
        with pytest.raises(VarwassError):
            call(x)


@pytest.mark.parametrize("times", [
    [0.0, math.nan, 1.0], [0.0, 0.5, math.inf], [-math.inf, 0.5, 1.0],
    [0.0, 0.5, 0.5], [0.0, 0.5, 0.25],
], ids=["nan", "inf", "-inf", "repeated", "decreasing"])
def test_trajectory_times_must_increase_by_finite_steps(times):
    rho = DensityField.uniform(make_grid(0.0, 1.0, N))
    with pytest.raises(NonpositiveParameterError):
        Trajectory(times=np.array(times), states=[rho, rho, rho])


def _pair_cost():
    return transport.build_cost(make_grid(0.0, 1.0, 2), ExponentField.constant(2.0, 2), 1.0)


# finite masses whose total overflows to inf
HUGE = np.array([1e308, 1e308])


@pytest.mark.parametrize("call", [
    lambda: DensityField(HUGE, require_unit_mass=False),
    lambda: transport.solve_exact(_pair_cost(), HUGE, HUGE),
    lambda: transport.solve_entropic(_pair_cost(), HUGE, HUGE, 0.1),
    lambda: transport.solve_brute_force(_pair_cost(), HUGE, HUGE),
], ids=["DensityField", "solve_exact", "solve_entropic", "solve_brute_force"])
def test_overflowing_total_mass_raises_a_typed_error(call):
    with pytest.raises(InvalidDensityError, match="finite total"):
        call()


def _size_cases():
    g = make_grid(0.0, 1.0, N)
    e = builtin_energy("entropy")
    rho = DensityField.uniform(g)
    short_p = ExponentField.constant(2.0, N - 1)
    pair = Trajectory(times=np.array([0.0, 1e-2]), states=[rho, rho])
    return {
        "transport.CostMatrix empty": lambda: transport.CostMatrix(np.zeros((0, 0))),
        "transport.Coupling empty": lambda: transport.Coupling(
            np.zeros((0, 0)), np.zeros(0), np.zeros(0)),
        "jko.Trajectory empty": lambda: Trajectory(times=[], states=[]),
        # these two ids keep the module the functions lived in before they
        # moved to finsler, so the case names stay stable across the move
        "jko.dissipation_rate p": lambda: finsler.dissipation_rate(rho, e, short_p, g),
        "jko.dissipation_check p": lambda: finsler.dissipation_check(pair, e, short_p, g),
    }


@pytest.mark.parametrize("name", sorted(_size_cases()))
def test_empty_or_wrong_length_input_raises_a_size_error(name):
    with pytest.raises(SizeMismatchError):
        _size_cases()[name]()
