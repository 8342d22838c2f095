"""Config-driven experiment runner and the ``varwass`` console entry point.

Subcommands
-----------
``varwass run <config.yaml>``       execute the configured experiment
``varwass validate <config.yaml>``  parse + semantic checks only
``varwass oracle <config.yaml>``    slow references and certificates

Exit codes: 0 success, 2 config parse error, 3 validation error, 4 numerical
failure. Outputs are CSV files, one per series, each starting with a comment
line that records the config hash, library version, and effective seed, so
identical config bytes and seed reproduce identical output bytes.

The config is YAML with the sections and keys of ``_SCHEMA``, which the
README lists. Unknown sections and keys are rejected, which catches most
typos early, and any malformed value exits 3 with its section named.
Omitted [solver] and [pde] keys take the ``jko.JkoOptions`` and
``pde.PdeConfig`` defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, finsler, jko, pde, transport
from .energy import EnergyModel, builtin_energy, total_energy  # perfbench traces cli.total_energy
from .errors import (ConfigError, ConfigValidationError, ExponentRangeError, VarwassError,
                     check_count)
from .grid import Grid, make_grid
from .varexp import (DensityField, ExponentField, Trajectory, _masses_on, conjugate,
                     luxemburg_norm, modular)

RANDOMIZED_KINDS = ("norms",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    kind: str
    seed: int | None
    out_dir: Path
    grid: Grid
    p: ExponentField
    energy: EnergyModel
    rho0: DensityField
    rho1: DensityField | None
    h: float
    t_end: float
    jko_opts: jko.JkoOptions
    pde_cfg: pde.PdeConfig
    compare_threshold: float | None
    compare_stride: int
    norm_samples: int
    finsler_steps: int
    sha256: str


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


# Value readers for _SCHEMA: each returns its value as the key's type or
# raises ValueError or TypeError. YAML reads true and false as Python bools,
# which float() and int() would take as 1 and 0, so only _flag accepts them.
def _no_bool(value) -> None:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")


def _real(value) -> float:
    _no_bool(value)
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def _integer(value) -> int:
    _no_bool(value)
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError(f"{value!r} is not a whole number")
    return n


def _count(value) -> int:
    n = _integer(value)
    check_count(n, "value")
    return n


def _flag(value) -> bool:
    if value not in (True, False):
        raise ValueError(f"expected true or false, got {value!r}")
    return bool(value)


def _reals(value) -> np.ndarray:
    for v in value if isinstance(value, list) else [value]:
        _no_bool(v)
    return np.asarray(value, dtype=float)


_DENSITY_KEYS = {"kind": str, "amplitude": _real, "center": _real, "width": _real,
                 "masses": _reals}

#: Every config section, its keys, and what each value is read as. Omitted
#: [solver] and [pde] keys take the jko.JkoOptions and pde.PdeConfig defaults.
_SCHEMA = {
    "experiment": {"kind": str, "seed": _integer, "out": str},
    "grid": {"a": _real, "b": _real, "n_cells": _integer},
    "exponent": {"kind": str, "value": _real, "p0": _real, "p1": _real,
                 "values": _reals},
    "energy": {"kind": str, "m": _real},
    "initial": _DENSITY_KEYS,
    "target": _DENSITY_KEYS,
    "flow": {"h": _real, "t_end": _real},
    "solver": {"backend": str, "eps": _real, "smoothing": _real, "exact_coupling": _flag},
    "pde": {"t_end": _real, "cfl": _real, "stride": _integer, "fixed_dt": _real},
    "compare": {"threshold": _real, "stride": _count},
    "norms": {"samples": _count},
    "finsler": {"n_steps": _count},
}


@contextmanager
def _invalid(what: str):
    """Re-raise a bad value met in the block as ConfigValidationError."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigValidationError(f"invalid {what}: {exc}") from exc


def _read_sections(raw: dict) -> dict[str, dict]:
    """Check every section against _SCHEMA and read its non-null values."""
    stray = set(raw) - set(_SCHEMA)
    if stray:
        raise ConfigValidationError(
            f"unknown top-level sections: {sorted(map(str, stray))}")
    if raw.get("experiment") is None:
        raise ConfigValidationError("missing required section [experiment]")
    sections = {}
    for name, keys in _SCHEMA.items():
        sec = {} if raw.get(name) is None else raw[name]
        if not isinstance(sec, dict):
            raise ConfigError(f"section [{name}] must be a mapping")
        unknown = set(sec) - set(keys)
        if unknown:
            raise ConfigValidationError(
                f"unknown keys in [{name}]: {sorted(map(str, unknown))} "
                f"(allowed: {sorted(keys)})"
            )
        sections[name] = {}
        for key, value in sec.items():
            if value is not None:
                with _invalid(f"[{name}] {key}"):
                    sections[name][key] = keys[key](value)
    return sections


def _density_from_spec(spec: dict, g: Grid, where: str) -> DensityField:
    kind = spec.get("kind", "uniform")
    if kind == "explicit" and "masses" not in spec:
        raise ConfigValidationError(f"[{where}] kind=explicit needs masses")
    with _invalid(f"[{where}] density"):
        if kind == "uniform":
            return DensityField.uniform(g)
        if kind == "cosine":
            return DensityField.cosine_bump(g, spec.get("amplitude", 0.5))
        if kind == "gaussian":
            return DensityField.gaussian(g, spec.get("center", 0.5 * (g.a + g.b)),
                                         spec.get("width", 0.1 * g.length))
        if kind == "explicit":
            m = g.check_cell_field(spec["masses"], f"[{where}] masses")
            if not m.sum() > 0.0:
                raise ValueError(f"masses must sum to a positive total, got {m.sum()}")
            return DensityField(m / m.sum())
    raise ConfigValidationError(
        f"unknown density kind {kind!r} in [{where}] "
        "(expected uniform | cosine | gaussian | explicit)"
    )


def _exponent_from_spec(spec: dict, g: Grid) -> ExponentField:
    kind = spec.get("kind", "constant")
    if kind == "piecewise" and "values" not in spec:
        raise ConfigValidationError("[exponent] kind=piecewise needs values")
    try:
        if kind == "constant":
            return ExponentField.constant(spec.get("value", 2.0), g.n_cells)
        if kind == "affine":
            return ExponentField.affine(spec.get("p0", 2.0), spec.get("p1", 0.0), g)
        if kind == "piecewise":
            return ExponentField(g.check_cell_field(spec["values"], "[exponent] values"))
    except ExponentRangeError as exc:
        raise ConfigValidationError(
            f"exponent violates assumption A1 (1 < p(x) < inf required): {exc}"
        ) from exc
    except ValueError as exc:
        raise ConfigValidationError(f"invalid [exponent] section: {exc}") from exc
    raise ConfigValidationError(
        f"unknown exponent kind {kind!r} (expected constant | affine | piecewise)"
    )


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    """Read, parse, and semantically validate a config file.

    Parse-level problems raise ConfigError; everything semantic, malformed
    values included, raises ConfigValidationError naming the section. The
    sha256 of the raw file bytes rides along for output provenance.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sha = hashlib.sha256(blob).hexdigest()
    try:
        raw = yaml.safe_load(blob)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a YAML mapping at top level")
    sec = _read_sections(raw)

    exp = sec["experiment"]
    kind = exp.get("kind")
    if kind not in _DISPATCH:
        raise ConfigValidationError(
            f"experiment kind must be one of {tuple(_DISPATCH)}, got {kind!r}"
        )
    seed = exp.get("seed") if seed_override is None else int(seed_override)
    if kind in RANDOMIZED_KINDS and seed is None:
        raise ConfigValidationError(
            f"experiment kind {kind!r} is randomized and needs a seed"
        )
    out_dir = Path(out_override if out_override is not None else exp.get("out", "results"))

    gsec = sec["grid"]
    with _invalid("[grid] section"):
        g = make_grid(gsec.get("a", 0.0), gsec.get("b", 1.0), gsec.get("n_cells", 64))
    p = _exponent_from_spec(sec["exponent"], g)
    esec = sec["energy"]
    with _invalid("[energy] section"):
        energy = builtin_energy(esec.get("kind", "entropy"), m=esec.get("m", 2.0))
    rho0 = _density_from_spec(sec["initial"], g, "initial")
    rho1 = _density_from_spec(sec["target"], g, "target") if sec["target"] else None
    if kind in ("transport", "finsler") and rho1 is None:
        raise ConfigValidationError(f"experiment kind {kind!r} needs a [target] section")

    h = sec["flow"].get("h", 1e-3)
    t_end = sec["flow"].get("t_end", 0.0)
    with _invalid("[flow] section"):
        jko._step_count(t_end, h)
    with _invalid("[solver] section"):
        jopts = jko.JkoOptions(**sec["solver"])
    with _invalid("[pde] section"):
        pde_cfg = pde.PdeConfig(**{"t_end": t_end, **sec["pde"]})

    return ExperimentConfig(
        kind=kind, seed=seed, out_dir=out_dir, grid=g, p=p, energy=energy,
        rho0=rho0, rho1=rho1, h=h, t_end=t_end, jko_opts=jopts, pde_cfg=pde_cfg,
        compare_threshold=sec["compare"].get("threshold"),
        compare_stride=sec["compare"].get("stride", 1),
        norm_samples=sec["norms"].get("samples", 100),
        finsler_steps=sec["finsler"].get("n_steps", 8), sha256=sha,
    )


def _write_csv(cfg: ExperimentConfig, name: str, header: list[str], rows,
               quiet: bool) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / name
    lines = [
        f"# config_sha256={cfg.sha256} version={__version__} seed={cfg.seed}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    if not quiet:
        print(f"wrote {path} ({len(lines) - 2} rows)")
    return path


def _run_norms(cfg: ExperimentConfig, quiet: bool) -> int:
    rng = np.random.default_rng(cfg.seed)
    g, p, rho = cfg.grid, cfg.p, cfg.rho0
    rows = []
    for k in range(cfg.norm_samples):
        u = rng.standard_normal(g.n_cells)
        w = rng.standard_normal(g.n_cells)
        c = float(rng.uniform(0.1, 10.0))
        nu = luxemburg_norm(u, rho, p, g)
        nw = luxemburg_norm(w, rho, p, g)
        nsum = luxemburg_norm(u + w, rho, p, g)
        mod_at = modular(u, rho, p, nu, g) if nu > 0.0 else 0.0
        hom_dev = abs(luxemburg_norm(c * u, rho, p, g) - c * nu)
        rows.append((k, nu, mod_at, hom_dev, max(nsum - nu - nw, 0.0)))
    _write_csv(cfg, "norms.csv",
               ["sample", "norm", "modular_at_norm", "homogeneity_dev",
                "triangle_violation"], rows, quiet)
    return 0


def _run_transport(cfg: ExperimentConfig, quiet: bool) -> int:
    g = cfg.grid
    cost = transport.build_cost(g, cfg.p, cfg.h)
    mu, nu = cfg.rho0.mass, cfg.rho1.mass
    rows = []
    exact = transport.solve_exact(cost, mu, nu)
    rows.append(("exact", exact.value, exact.coupling.marginal_error(),
                 exact.pivots, True))
    ent = transport.solve_entropic(cost, mu, nu, cfg.jko_opts.eps)
    rows.append(("entropic", ent.value, ent.marginal_violation, ent.iterations,
                 ent.converged))
    if cfg.p.p_minus == cfg.p.p_plus:
        w = transport.wasserstein_1d(cfg.p.p_minus, cfg.rho0, cfg.rho1, g)
        rows.append(("quantile_wasserstein", w, 0.0, 0, True))
    _write_csv(cfg, "transport.csv",
               ["solver", "value", "marginal_error", "iterations", "converged"],
               rows, quiet)
    return 0


def _run_jko(cfg: ExperimentConfig, quiet: bool) -> int:
    g, e = cfg.grid, cfg.energy
    traj = jko.run_flow(cfg.rho0, e, cfg.p, cfg.h, cfg.t_end, g, cfg.jko_opts)
    report = finsler.dissipation_check(traj, e, cfg.p, g)
    top = (traj.masses / g.dx).max(axis=1)
    rows = [(0, 0.0, report.energies[0], 0.0, top[0], 0.0, 0.0, 0.0, 0, True)]
    rows += [(k, traj.times[k], report.energies[k], s.transport_cost, top[k], s.mass_error,
              s.el_residual, report.per_step_slack[k - 1], s.iterations, s.converged)
             for k, s in enumerate(traj.steps, start=1)]
    _write_csv(cfg, "jko.csv",
               ["step", "time", "energy", "transport_cost", "max_density",
                "mass_error", "el_residual", "dissipation_slack", "iterations",
                "converged"], rows, quiet)
    return 0


def _run_pde(cfg: ExperimentConfig, quiet: bool) -> int:
    g, e = cfg.grid, cfg.energy
    traj = pde.solve(cfg.rho0, e, conjugate(cfg.p), cfg.pde_cfg, g)
    report = finsler.dissipation_check(traj, e, cfg.p, g)
    mass = traj.masses
    rows = zip(range(len(traj)), traj.times, report.energies, (mass / g.dx).max(axis=1),
               abs(mass.sum(axis=1) - mass[0].sum()), np.r_[0.0, report.per_step_slack])
    _write_csv(cfg, "pde.csv",
               ["step", "time", "energy", "max_density", "mass_error",
                "dissipation_slack"], rows, quiet)
    return 0


def _pde_masses_at(cfg: ExperimentConfig, times: np.ndarray) -> np.ndarray:
    """The reference solver's masses at the given time stamps, one row each."""
    q = conjugate(cfg.p)
    masses = np.empty((len(times), cfg.grid.n_cells))
    masses[0], state = cfg.rho0.mass, cfg.rho0
    for k in range(1, len(times)):
        seg = replace(cfg.pde_cfg, t_end=float(times[k] - times[k - 1]),
                      stride=1_000_000_000)
        state = pde.solve(state, cfg.energy, q, seg, cfg.grid).final
        masses[k] = state.mass
    return masses


def _run_compare(cfg: ExperimentConfig, quiet: bool) -> int:
    g = cfg.grid
    traj = jko.run_flow(cfg.rho0, cfg.energy, cfg.p, cfg.h, cfg.t_end, g,
                        cfg.jko_opts)
    sample_idx = sorted({*range(0, len(traj), cfg.compare_stride), len(traj) - 1})
    times = traj.times[sample_idx]
    diff = _masses_on(traj, g)[sample_idx] / g.dx - _pde_masses_at(cfg, times) / g.dx
    rows = list(zip(sample_idx, times, np.abs(diff).sum(axis=1) * g.dx))
    _write_csv(cfg, "compare.csv", ["step", "time", "l1_error"], rows, quiet)
    final_err = rows[-1][2]
    if cfg.compare_threshold is not None and final_err > cfg.compare_threshold:
        print(
            f"comparison failed: final L1 error {final_err:.6g} exceeds "
            f"threshold {cfg.compare_threshold:.6g}",
            file=sys.stderr,
        )
        return 4
    if not quiet:
        print(f"final L1 error {final_err:.6g}")
    return 0


def _interpolation_trajectory(cfg: ExperimentConfig, n_steps: int) -> Trajectory:
    times = np.linspace(0.0, 1.0, n_steps + 1)
    states = [transport.displacement_interpolant(cfg.rho0, cfg.rho1, float(t), cfg.grid)
              for t in times]
    return Trajectory(times=times, states=states)


def _run_finsler(cfg: ExperimentConfig, quiet: bool) -> int:
    g, p = cfg.grid, cfg.p
    if p.p_minus == p.p_plus:
        lower = transport.wasserstein_1d(p.p_minus, cfg.rho0, cfg.rho1, g)
        lower_name = "wasserstein_quantile"
    else:
        # variable exponent: constant-p embedding gives W_{p-} / 2 as a bound
        lower = 0.5 * transport.wasserstein_1d(p.p_minus, cfg.rho0, cfg.rho1, g)
        lower_name = "wasserstein_pminus_over_2"
    rows = []
    for level in (0, 1):
        n_steps = cfg.finsler_steps * (2**level)
        traj = _interpolation_trajectory(cfg, n_steps)
        length = finsler.curve_length(traj, p, g)
        rows.append((level, n_steps, length, lower, length - lower))
    _write_csv(cfg, "finsler.csv",
               ["level", "n_steps", "curve_length", lower_name, "gap"], rows, quiet)
    return 0


def _run_oracle(cfg: ExperimentConfig, quiet: bool) -> int:
    """Slow references and certificates for the configured experiment kind.

    A jko config gets the duality gap of its first step: the step objective
    energy_after + transport_cost, the weak-duality lower bound of the
    step program at phi = G'(rho_next) (jko.dual_bound), and the
    objective minus the bound, which weak duality keeps >= 0 up to
    rounding.
    """
    g = cfg.grid
    rows = []
    if cfg.kind == "transport":
        if g.n_cells > 4:
            raise ConfigValidationError(
                "transport oracle enumerates polytope vertices and needs n_cells <= 4"
            )
        cost = transport.build_cost(g, cfg.p, cfg.h)
        mu, nu = cfg.rho0.mass, cfg.rho1.mass
        exact = transport.solve_exact(cost, mu, nu)
        _, brute_val = transport.solve_brute_force(cost, mu, nu)
        rows.append(("vertex_enumeration", exact.value, brute_val,
                     abs(exact.value - brute_val)))
    elif cfg.kind == "jko":
        e = cfg.energy
        step = jko.jko_step(cfg.rho0, e, cfg.p, cfg.h, g, cfg.jko_opts)
        cost = transport.build_cost(g, cfg.p, cfg.h).values
        phi = e.deriv(step.rho_next.density(g))
        bound = jko.dual_bound(cost, cfg.rho0.mass, phi, e, g.dx)
        value = step.energy_after + step.transport_cost
        rows.append(("step_duality_gap", value, bound, value - bound))
    elif cfg.kind == "pde":
        q = conjugate(cfg.p)
        rate = pde.rhs(cfg.rho0, cfg.energy, q, g)
        rows.append(("rhs_total_mass_rate", float(rate.sum() * g.dx), 0.0,
                     abs(float(rate.sum() * g.dx))))
        # chain rule: d/dt E = <G'(rho), rhs> should equal minus the
        # dissipation integral, up to the face/cell averaging error
        slope = float(np.sum(cfg.energy.deriv(cfg.rho0.density(g)) * rate) * g.dx)
        s_cell = finsler._cell_slope(cfg.rho0.mass, cfg.energy, g)
        rate_int = float(np.sum(
            np.abs(s_cell) ** q.values * cfg.rho0.density(g)) * g.dx)
        rows.append(("energy_slope_vs_dissipation", slope, -rate_int,
                     abs(slope + rate_int)))
    elif cfg.kind == "norms":
        rng = np.random.default_rng(cfg.seed)
        for k in range(min(cfg.norm_samples, 10)):
            u = rng.standard_normal(g.n_cells)
            fast = luxemburg_norm(u, cfg.rho0, cfg.p, g)
            lams = np.geomspace(max(fast, 1e-12) / 16.0, max(fast, 1e-12) * 16.0, 4001)
            mods = [modular(u, cfg.rho0, cfg.p, float(l), g) for l in lams]
            scan = float(lams[int(np.argmin(np.abs(np.asarray(mods) - 1.0)))])
            rows.append((f"norm_scan_{k}", fast, scan, abs(fast - scan)))
    else:
        # compare and finsler runs are already cross-checks; run them as-is
        return _DISPATCH[cfg.kind](cfg, quiet)
    _write_csv(cfg, "oracle.csv", ["check", "value", "reference", "abs_diff"],
               rows, quiet)
    return 0


_DISPATCH = {
    "norms": _run_norms,
    "transport": _run_transport,
    "jko": _run_jko,
    "pde": _run_pde,
    "compare": _run_compare,
    "finsler": _run_finsler,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varwass",
        description="variable-exponent transport experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the configured experiment"),
        ("validate", "check the config and exit"),
        ("oracle", "run the slow references and certificates"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the YAML config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "validate":
            if not args.quiet:
                print(f"ok: {args.config} ({cfg.kind}, grid n={cfg.grid.n_cells})")
            return 0
        if args.command == "oracle":
            return _run_oracle(cfg, args.quiet)
        return _DISPATCH[cfg.kind](cfg, args.quiet)
    except ConfigValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VarwassError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
