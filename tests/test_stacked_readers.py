"""Every reader of a trajectory works on one stack of its masses.

The per-state loops below are the readers as they were written before the
stack: one state at a time, through DensityField.density. On seeded rough
trajectories, with vacuum cells and masses that do not sum to 1, each
stacked reader must give their bits, and a state of the wrong length must
raise SizeMismatchError from each reader.
"""

import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from varwass import cli, finsler, jko, pde
from varwass.energy import builtin_energy
from varwass.errors import SizeMismatchError
from varwass.grid import integrate, make_grid
from varwass.varexp import DensityField, ExponentField, Trajectory, conjugate

N = 20
ENERGIES = {"entropy": builtin_energy("entropy"), "quadratic": builtin_energy("quadratic"),
            "power3": builtin_energy("power", 3.0)}


def rough_trajectory(seed, k=7):
    """k states of N cells, uniform(0, 2) density with about a fifth of the
    cells emptied, no two neighbours empty (a face between two empty cells
    could carry no flux), each state of total mass 0.7, at seeded
    increasing times from 0."""
    rng = np.random.default_rng(4100 + seed)
    vals = rng.uniform(0.0, 2.0, (k, N))
    vacuum = rng.random((k, N)) < 0.25
    vacuum[:, 1:] &= ~vacuum[:, :-1]
    vals[vacuum] = 0.0
    masses = 0.7 * vals / vals.sum(axis=1, keepdims=True)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1e-2, k - 1))))
    states = [DensityField(row, require_unit_mass=False) for row in masses]
    return Trajectory(times=times, states=states)


def rough_exponent(seed):
    return ExponentField(np.random.default_rng(4200 + seed).uniform(1.2, 4.0, N))


GRID = make_grid(0.0, 1.0, N)


# ------------------------------------------------------- per-state loops

def energies_by_state(traj, e, g):
    return np.asarray([integrate(e.value(s.density(g)), g) for s in traj.states])


def positive_parts_by_state(traj1, traj2, g):
    pos = np.empty(len(traj1))
    for k in range(len(traj1)):
        diff = traj1.states[k].density(g) - traj2.states[k].density(g)
        pos[k] = np.maximum(diff, 0.0).sum() * g.dx
    return pos


def rate_of_state(s, e, p, g):
    slope = finsler._cell_slope(s.mass, e, g)
    return (np.abs(slope) ** conjugate(p).values / p.values * s.density(g)).sum() * g.dx


def dissipation_by_state(traj, e, p, g):
    energies = energies_by_state(traj, e, g)
    rates = np.asarray([rate_of_state(s, e, p, g) for s in traj.states[1:]])
    dissipated = np.diff(traj.times) * rates
    slacks = (energies[:-1] - energies[1:]) - dissipated
    floor = g.length * float(e.value(np.asarray(traj.states[0].total_mass / g.length)))
    total = float(np.sum(dissipated))
    return slacks, float(slacks.min()), float((energies[0] - floor) - total), total, energies


def length_by_segment(traj, p, g):
    speeds = [finsler.metric_derivative(traj, p, g, k) for k in range(len(traj) - 1)]
    return float(np.asarray(speeds) @ np.diff(traj.times))


# ------------------------------------------------------ library readers

@pytest.mark.parametrize("name", sorted(ENERGIES))
@pytest.mark.parametrize("seed", range(4))
def test_energy_series_has_the_bits_of_each_state(name, seed):
    traj = rough_trajectory(seed)
    e = ENERGIES[name]
    assert np.array_equal(pde.energy_series(traj, e, GRID), energies_by_state(traj, e, GRID))


@pytest.mark.parametrize("seed", range(4))
def test_comparison_check_has_the_bits_of_each_state(seed):
    first = rough_trajectory(seed)
    second = Trajectory(times=first.times, states=rough_trajectory(seed + 10).states)
    report = pde.comparison_check(first, second, GRID)
    pos = positive_parts_by_state(first, second, GRID)
    assert np.array_equal(report.positive_part, pos)
    assert report.worst_increase == float(np.diff(pos).max())
    assert report.max_positive_part == float(pos.max())


@pytest.mark.parametrize("seed", range(4))
def test_curve_length_has_the_bits_of_its_segments(seed):
    traj = rough_trajectory(seed)
    p = rough_exponent(seed)
    assert finsler.curve_length(traj, p, GRID) == length_by_segment(traj, p, GRID)


@pytest.mark.parametrize("name", sorted(ENERGIES))
@pytest.mark.parametrize("seed", range(4))
def test_dissipation_check_has_the_bits_of_each_state(name, seed):
    traj = rough_trajectory(seed)
    e, p = ENERGIES[name], rough_exponent(seed)
    report = finsler.dissipation_check(traj, e, p, GRID)
    slacks, worst, cumulative, total, energies = dissipation_by_state(traj, e, p, GRID)
    assert np.array_equal(report.per_step_slack, slacks)
    assert np.array_equal(report.energies, energies)
    assert (report.worst_step_slack, report.cumulative_slack, report.total_dissipation) == (
        worst, cumulative, total)


# ------------------------------------------------------------ the stack

def test_states_are_views_of_one_read_only_stack():
    traj = rough_trajectory(0)
    assert traj.masses.shape == (7, N) and traj.masses.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        traj.masses[0, 0] = 1.0
    for k, s in enumerate(traj.states):
        assert s.mass.base is traj.masses and s.mass.tobytes() == traj.masses[k].tobytes()
    assert [s.mass.tobytes() for s in traj.states[2:5]] == [
        traj.masses[k].tobytes() for k in range(2, 5)]
    assert traj.final.mass.flags.owndata
    assert traj.final.mass.tobytes() == traj.masses[-1].tobytes()
    # another trajectory's states share its stack
    assert Trajectory(times=2.0 * traj.times, states=traj.states).masses is traj.masses


def test_each_state_keeps_its_own_unit_mass_flag():
    rho = DensityField.uniform(GRID)
    heavier = DensityField(1.5 * rho.mass, require_unit_mass=False)
    traj = Trajectory(times=[0.0, 1.0, 2.0], states=[rho, heavier, rho])
    assert [s.require_unit_mass for s in traj.states] == [True, False, True]
    assert traj.final.require_unit_mass


# ------------------------------------------------ bounded temporaries

@pytest.mark.parametrize("reader", ["comparison_check", "energy_series", "dissipation_check",
                                    "curve_length"])
def test_whole_trajectory_readers_hold_small_temporaries(reader):
    # the CI pde config's 3,941 states against the same states in reverse
    # order, so that many blocks of rows differ. Under tracemalloc
    # comparison_check and energy_series peaked at 0.43 MB, dissipation_check
    # at 0.62 MB and curve_length at 1.38 MB; holding whole stacks, they had
    # peaked at 4.7, 0.56 (in blocks already), 6.2 and 21.1 MB
    cfg = cli.load_config(Path(__file__).parent / "configs" / "pde.yaml")
    g, e, p = cfg.grid, cfg.energy, cfg.p
    traj = pde.solve(cfg.rho0, e, conjugate(p), cfg.pde_cfg, g)
    reverse = Trajectory(times=traj.times, states=traj.states[::-1])
    assert len(traj) > 3000
    tracemalloc.start()
    try:
        if reader == "comparison_check":
            got = pde.comparison_check(traj, reverse, g).positive_part
        elif reader == "energy_series":
            got = pde.energy_series(reverse, e, g)
        elif reader == "dissipation_check":
            got = finsler.dissipation_check(reverse, e, p, g).per_step_slack
        else:
            got = finsler.curve_length(reverse, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = {"dissipation_check": 0.8e6, "curve_length": 2.0e6}.get(reader, 0.6e6)
    assert peak < bound, peak
    if reader == "comparison_check":
        assert np.array_equal(got, positive_parts_by_state(traj, reverse, g))
    elif reader == "energy_series":
        assert np.array_equal(got, energies_by_state(reverse, e, g))
    elif reader == "dissipation_check":
        assert np.array_equal(got, dissipation_by_state(reverse, e, p, g)[0])
    else:
        # the speeds of the whole stack at once, as curve_length took them
        mass, dt = reverse.masses, np.diff(reverse.times)
        assert got == float(finsler._speeds(mass[:-1], mass[1:], dt, p, g) @ dt)


# ---------------------------------------------------------- CSV writers

def load(tmp_path, kind, **sections):
    raw = {"experiment": {"kind": kind, "out": str(tmp_path / "out")},
           "grid": {"a": 0.0, "b": 1.0, "n_cells": N},
           "exponent": {"kind": "affine", "p0": 2.0, "p1": 1.0},
           "energy": {"kind": "power", "m": 3.0},
           "flow": {"h": 1e-3, "t_end": 6e-3}, **sections}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="ascii")
    return cli.load_config(path)


def csv_rows(tmp_path, name):
    return (tmp_path / "out" / name).read_text().strip().split("\n")[2:]


def formatted(rows):
    return [",".join(cli._fmt(v) for v in row) for row in rows]


def flow_with_steps(traj, e, g):
    """traj with the step records run_flow would attach, each step's
    energy_after that of its state, as jko_step records it: the bits of
    integrate, without its check of the state's length."""
    rng = np.random.default_rng(4300)
    steps = [SimpleNamespace(
        energy_after=float(e.value(s.mass / g.dx).sum() * g.dx),
        transport_cost=rng.random(), mass_error=1e-16 * rng.random(), el_residual=rng.random(),
        iterations=int(rng.integers(1, 50)), converged=bool(rng.random() < 0.8))
        for s in traj.states[1:]]
    return Trajectory(times=traj.times, states=traj.states, steps=steps)


@pytest.mark.parametrize("seed", range(3))
def test_pde_csv_has_the_bits_of_each_state(tmp_path, monkeypatch, seed):
    cfg = load(tmp_path, "pde")
    traj = rough_trajectory(seed)
    monkeypatch.setattr(pde, "solve", lambda *args: traj)
    assert cli._run_pde(cfg, True) == 0
    g = cfg.grid
    slacks, *_, energies = dissipation_by_state(traj, cfg.energy, cfg.p, g)
    slacks = np.concatenate(([0.0], slacks))
    total0 = traj.states[0].total_mass
    rows = [(k, float(traj.times[k]), energies[k], float(s.density(g).max()),
             abs(s.total_mass - total0), slacks[k]) for k, s in enumerate(traj.states)]
    assert csv_rows(tmp_path, "pde.csv") == formatted(rows)


@pytest.mark.parametrize("seed", range(3))
def test_jko_csv_has_the_bits_of_each_state(tmp_path, monkeypatch, seed):
    cfg = load(tmp_path, "jko")
    g, e = cfg.grid, cfg.energy
    traj = flow_with_steps(rough_trajectory(seed), e, g)
    monkeypatch.setattr(jko, "run_flow", lambda *args: traj)
    assert cli._run_jko(cfg, True) == 0
    slacks = dissipation_by_state(traj, e, cfg.p, g)[0]
    first = traj.states[0]
    rows = [(0, 0.0, integrate(e.value(first.density(g)), g), 0.0,
             float(first.density(g).max()), 0.0, 0.0, 0.0, 0, True)]
    for k, step in enumerate(traj.steps, start=1):
        rows.append((k, float(traj.times[k]), step.energy_after, step.transport_cost,
                     float(traj.states[k].density(g).max()), step.mass_error,
                     step.el_residual, slacks[k - 1], step.iterations, step.converged))
    assert csv_rows(tmp_path, "jko.csv") == formatted(rows)


@pytest.mark.parametrize("seed", range(3))
def test_compare_csv_has_the_bits_of_each_state(tmp_path, monkeypatch, seed):
    # samples 0, 3 and 6 of 7 states; the reference solve hands back a
    # rough state per sample after the first, which is the config's own
    cfg = load(tmp_path, "compare", compare={"stride": 3})
    g = cfg.grid
    traj = rough_trajectory(seed)
    refs = rough_trajectory(seed + 10).states[1:3]
    handed = iter(refs)
    monkeypatch.setattr(jko, "run_flow", lambda *args: traj)
    monkeypatch.setattr(pde, "solve", lambda *args: SimpleNamespace(final=next(handed)))
    assert cli._run_compare(cfg, True) == 0
    rows = []
    for k, ref in zip([0, 3, 6], [cfg.rho0, *refs]):
        diff = traj.states[k].density(g) - ref.density(g)
        rows.append((k, float(traj.times[k]), float(np.abs(diff).sum() * g.dx)))
    assert csv_rows(tmp_path, "compare.csv") == formatted(rows)


# --------------------------------------------- a state of the wrong length

def short_state_trajectory():
    """A rough trajectory whose fourth state has N - 1 cells."""
    traj = rough_trajectory(0)
    states = list(traj.states)
    states[3] = DensityField(np.full(N - 1, 0.7 / (N - 1)), require_unit_mass=False)
    return Trajectory(times=traj.times, states=states)


def _run_writer(kind, tmp_path, monkeypatch, traj):
    cfg = load(tmp_path, kind)
    monkeypatch.setattr(pde, "solve", lambda *args: traj)
    monkeypatch.setattr(jko, "run_flow", lambda *args: flow_with_steps(traj, cfg.energy, GRID))
    return cli._DISPATCH[kind](cfg, True)


READERS = {
    "energy_series": lambda traj, **_: pde.energy_series(traj, ENERGIES["entropy"], GRID),
    "comparison_check first": lambda traj, **_: pde.comparison_check(
        traj, rough_trajectory(0), GRID),
    "comparison_check second": lambda traj, **_: pde.comparison_check(
        rough_trajectory(0), traj, GRID),
    "curve_length": lambda traj, **_: finsler.curve_length(traj, rough_exponent(0), GRID),
    "metric_derivative": lambda traj, **_: finsler.metric_derivative(
        traj, rough_exponent(0), GRID, 3),
    "dissipation_check": lambda traj, **_: finsler.dissipation_check(
        traj, ENERGIES["entropy"], rough_exponent(0), GRID),
    "pde.csv": lambda traj, **kw: _run_writer("pde", traj=traj, **kw),
    "jko.csv": lambda traj, **kw: _run_writer("jko", traj=traj, **kw),
    "compare.csv": lambda traj, **kw: _run_writer("compare", traj=traj, **kw),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_state_of_the_wrong_length_raises_a_size_error(name, tmp_path, monkeypatch):
    with pytest.raises(SizeMismatchError, match=r"mass must have shape \(20,\), got \(19,\)"):
        READERS[name](short_state_trajectory(), tmp_path=tmp_path, monkeypatch=monkeypatch)
