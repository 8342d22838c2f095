"""Config-driven experiment runner and the ``varwass`` console entry point.

Subcommands
-----------
``varwass run <config.yaml>``       execute the configured experiment
``varwass validate <config.yaml>``  parse + semantic checks only
``varwass oracle <config.yaml>``    slow reference backends for cross-checks

Exit codes: 0 success, 2 config parse error, 3 validation error, 4 numerical
failure. Outputs are CSV files, one per series, each starting with a comment
line that records the config hash, library version, and effective seed, so
identical config bytes and seed reproduce identical output bytes.

The config schema is YAML with the sections shown in the README; unknown
keys inside known sections are rejected, which catches most typos early.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__, finsler, jko, pde, transport
from .energy import EnergyModel, builtin_energy, total_energy
from .errors import (
    ConfigError,
    ConfigValidationError,
    ExponentRangeError,
    NumericalBlowupError,
    VarwassError,
)
from .grid import Grid, gradient, make_grid, neighbor_mean
from .varexp import DensityField, ExponentField, conjugate, luxemburg_norm, modular

EXPERIMENT_KINDS = ("norms", "transport", "jko", "pde", "compare", "finsler")
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


def _section(raw: dict, name: str, allowed: set[str], required: bool = False) -> dict:
    sec = raw.get(name)
    if sec is None:
        if required:
            raise ConfigValidationError(f"missing required section [{name}]")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section [{name}] must be a mapping")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigValidationError(
            f"unknown keys in [{name}]: {sorted(unknown)} (allowed: {sorted(allowed)})"
        )
    return sec


def _density_from_spec(spec: dict, g: Grid, where: str) -> DensityField:
    kind = spec.get("kind", "uniform")
    try:
        if kind == "uniform":
            return DensityField.uniform(g)
        if kind == "cosine":
            return DensityField.cosine_bump(g, float(spec.get("amplitude", 0.5)))
        if kind == "gaussian":
            return DensityField.gaussian(
                g, float(spec.get("center", 0.5 * (g.a + g.b))),
                float(spec.get("width", 0.1 * g.length)),
            )
        if kind == "explicit":
            masses = spec.get("masses")
            if masses is None:
                raise ConfigValidationError(f"[{where}] kind=explicit needs masses")
            m = np.asarray(masses, dtype=float)
            return DensityField(m / m.sum())
    except (ValueError, TypeError) as exc:
        raise ConfigValidationError(f"invalid [{where}] density: {exc}") from exc
    raise ConfigValidationError(
        f"unknown density kind {kind!r} in [{where}] "
        "(expected uniform | cosine | gaussian | explicit)"
    )


def _exponent_from_spec(spec: dict, g: Grid) -> ExponentField:
    kind = spec.get("kind", "constant")
    try:
        if kind == "constant":
            return ExponentField.constant(float(spec.get("value", 2.0)), g.n_cells)
        if kind == "affine":
            return ExponentField.affine(
                float(spec.get("p0", 2.0)), float(spec.get("p1", 0.0)), g
            )
        if kind == "piecewise":
            values = spec.get("values")
            if values is None:
                raise ConfigValidationError("[exponent] kind=piecewise needs values")
            return ExponentField(np.asarray(values, dtype=float))
    except ExponentRangeError as exc:
        raise ConfigValidationError(
            f"exponent violates assumption A1 (1 < p(x) < inf required): {exc}"
        ) from exc
    except (ValueError, TypeError) as exc:
        raise ConfigValidationError(f"invalid [exponent] section: {exc}") from exc
    raise ConfigValidationError(
        f"unknown exponent kind {kind!r} (expected constant | affine | piecewise)"
    )


def _energy_from_spec(spec: dict) -> EnergyModel:
    kind = spec.get("kind", "entropy")
    try:
        if kind == "power":
            return builtin_energy("power", m=float(spec.get("m", 2.0)))
        return builtin_energy(kind)
    except (ValueError, TypeError) as exc:
        raise ConfigValidationError(f"invalid [energy] section: {exc}") from exc


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    """Read, parse, and semantically validate a config file.

    Parse-level problems raise ConfigError; everything semantic raises
    ConfigValidationError. The sha256 of the raw file bytes rides along for
    output provenance.
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
    known_sections = {"experiment", "grid", "exponent", "energy", "initial",
                      "target", "flow", "solver", "pde", "compare", "norms",
                      "finsler"}
    stray = set(raw) - known_sections
    if stray:
        raise ConfigValidationError(f"unknown top-level sections: {sorted(stray)}")

    exp = _section(raw, "experiment", {"kind", "seed", "out"}, required=True)
    kind = exp.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigValidationError(
            f"experiment kind must be one of {EXPERIMENT_KINDS}, got {kind!r}"
        )
    seed = seed_override if seed_override is not None else exp.get("seed")
    if seed is not None:
        seed = int(seed)
    if kind in RANDOMIZED_KINDS and seed is None:
        raise ConfigValidationError(
            f"experiment kind {kind!r} is randomized and needs a seed"
        )
    out_dir = Path(out_override if out_override is not None else exp.get("out", "results"))

    gsec = _section(raw, "grid", {"a", "b", "n_cells"})
    try:
        g = make_grid(
            float(gsec.get("a", 0.0)), float(gsec.get("b", 1.0)),
            int(gsec.get("n_cells", 64)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigValidationError(f"invalid [grid] section: {exc}") from exc

    p = _exponent_from_spec(
        _section(raw, "exponent", {"kind", "value", "p0", "p1", "values"}), g
    )
    energy = _energy_from_spec(_section(raw, "energy", {"kind", "m"}))
    rho0 = _density_from_spec(
        _section(raw, "initial", {"kind", "amplitude", "center", "width", "masses"}),
        g, "initial",
    )
    tsec = _section(raw, "target", {"kind", "amplitude", "center", "width", "masses"})
    rho1 = _density_from_spec(tsec, g, "target") if tsec else None
    if kind in ("transport", "finsler") and rho1 is None:
        raise ConfigValidationError(f"experiment kind {kind!r} needs a [target] section")

    fsec = _section(raw, "flow", {"h", "t_end"})
    h = float(fsec.get("h", 1e-3))
    t_end = float(fsec.get("t_end", 0.0))
    if h <= 0.0:
        raise ConfigValidationError(f"[flow] h must be positive, got {h}")
    if t_end < 0.0:
        raise ConfigValidationError(f"[flow] t_end must be nonnegative, got {t_end}")

    ssec = _section(raw, "solver", {"backend", "eps", "smoothing", "max_iters",
                                    "tol", "exact_coupling"})
    try:
        smoothing = ssec.get("smoothing")
        jopts = jko.JkoOptions(
            backend=str(ssec.get("backend", "mirror")),
            eps=float(ssec.get("eps", 0.5)),
            smoothing=None if smoothing is None else float(smoothing),
            max_iters=int(ssec.get("max_iters", 20_000)),
            tol=float(ssec.get("tol", 1e-9)),
            exact_coupling=bool(ssec.get("exact_coupling", True)),
        )
    except (ValueError, TypeError, VarwassError) as exc:
        raise ConfigValidationError(f"invalid [solver] section: {exc}") from exc

    psec = _section(raw, "pde", {"cfl", "delta_reg", "stride", "t_end", "fixed_dt"})
    try:
        pde_cfg = pde.PdeConfig(
            t_end=float(psec.get("t_end", t_end)),
            cfl=float(psec.get("cfl", 0.5)),
            delta_reg=float(psec.get("delta_reg", pde.DELTA_REG)),
            stride=int(psec.get("stride", 1)),
            fixed_dt=(float(psec["fixed_dt"]) if psec.get("fixed_dt") is not None else None),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigValidationError(f"invalid [pde] section: {exc}") from exc

    csec = _section(raw, "compare", {"threshold", "stride"})
    threshold = csec.get("threshold")
    threshold = float(threshold) if threshold is not None else None
    compare_stride = int(csec.get("stride", 1))
    if compare_stride < 1:
        raise ConfigValidationError("[compare] stride must be at least 1")

    nsec = _section(raw, "norms", {"samples"})
    samples = int(nsec.get("samples", 100))
    if samples < 1:
        raise ConfigValidationError("[norms] samples must be at least 1")

    fisec = _section(raw, "finsler", {"n_steps"})
    finsler_steps = int(fisec.get("n_steps", 8))
    if finsler_steps < 1:
        raise ConfigValidationError("[finsler] n_steps must be at least 1")

    return ExperimentConfig(
        kind=kind, seed=seed, out_dir=out_dir, grid=g, p=p, energy=energy,
        rho0=rho0, rho1=rho1, h=h, t_end=t_end, jko_opts=jopts, pde_cfg=pde_cfg,
        compare_threshold=threshold, compare_stride=compare_stride,
        norm_samples=samples, finsler_steps=finsler_steps, sha256=sha,
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


def _trajectory_rows(cfg: ExperimentConfig, traj: jko.Trajectory):
    """Shared row assembly for the jko experiment CSV."""
    g, e = cfg.grid, cfg.energy
    slacks = jko.dissipation_check(traj, e, cfg.p, cfg.h, g).per_step_slack
    rows = [(0, 0.0, total_energy(traj.states[0], e, g), 0.0,
             float(traj.states[0].density(g).max()), 0.0, 0.0, 0.0, 0, True)]
    for k, step in enumerate(traj.steps, start=1):
        rows.append((
            k, float(traj.times[k]), step.energy_after, step.transport_cost,
            float(step.rho_next.density(g).max()), step.mass_error,
            step.el_residual, slacks[k - 1], step.iterations, step.converged,
        ))
    return rows


def _run_jko(cfg: ExperimentConfig, quiet: bool) -> int:
    traj = jko.run_flow(cfg.rho0, cfg.energy, cfg.p, cfg.h, cfg.t_end, cfg.grid,
                        cfg.jko_opts)
    rows = _trajectory_rows(cfg, traj)
    _write_csv(cfg, "jko.csv",
               ["step", "time", "energy", "transport_cost", "max_density",
                "mass_error", "el_residual", "dissipation_slack", "iterations",
                "converged"], rows, quiet)
    return 0


def _run_pde(cfg: ExperimentConfig, quiet: bool) -> int:
    g, e = cfg.grid, cfg.energy
    q = conjugate(cfg.p)
    traj = pde.solve(cfg.rho0, e, q, cfg.pde_cfg, g)
    energies = pde.energy_series(traj, e, g)
    rows = []
    total0 = traj.states[0].total_mass
    for k in range(len(traj)):
        if k == 0:
            slack = 0.0
        else:
            dt = float(traj.times[k] - traj.times[k - 1])
            slack = (energies[k - 1] - energies[k]) - dt * jko.dissipation_rate(
                traj.states[k], e, cfg.p, g)
        rows.append((
            k, float(traj.times[k]), energies[k],
            float(traj.states[k].density(g).max()),
            abs(traj.states[k].total_mass - total0), slack,
        ))
    _write_csv(cfg, "pde.csv",
               ["step", "time", "energy", "max_density", "mass_error",
                "dissipation_slack"], rows, quiet)
    return 0


def _pde_states_at(cfg: ExperimentConfig, times: np.ndarray) -> list[DensityField]:
    """March the reference solver through the given time stamps."""
    g, e = cfg.grid, cfg.energy
    q = conjugate(cfg.p)
    states = [cfg.rho0]
    current = cfg.rho0
    for k in range(1, len(times)):
        seg = float(times[k] - times[k - 1])
        seg_cfg = pde.PdeConfig(
            t_end=seg, cfl=cfg.pde_cfg.cfl, delta_reg=cfg.pde_cfg.delta_reg,
            stride=1_000_000_000, fixed_dt=cfg.pde_cfg.fixed_dt,
        )
        piece = pde.solve(current, e, q, seg_cfg, g)
        current = piece.final
        states.append(current)
    return states


def _run_compare(cfg: ExperimentConfig, quiet: bool) -> int:
    g = cfg.grid
    traj = jko.run_flow(cfg.rho0, cfg.energy, cfg.p, cfg.h, cfg.t_end, g,
                        cfg.jko_opts)
    sample_idx = list(range(0, len(traj), cfg.compare_stride))
    if sample_idx[-1] != len(traj) - 1:
        sample_idx.append(len(traj) - 1)
    times = traj.times[sample_idx]
    ref_states = _pde_states_at(cfg, times)
    rows = []
    for j, k in enumerate(sample_idx):
        diff = traj.states[k].density(g) - ref_states[j].density(g)
        l1 = float(np.abs(diff).sum() * g.dx)
        rows.append((k, float(times[j]), l1))
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


def _interpolation_trajectory(cfg: ExperimentConfig, n_steps: int) -> jko.Trajectory:
    times = np.linspace(0.0, 1.0, n_steps + 1)
    states = [transport.displacement_interpolant(cfg.rho0, cfg.rho1, float(t), cfg.grid)
              for t in times]
    return jko.Trajectory(times=times, states=states)


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
    """Slow reference backends for the configured experiment kind."""
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
        opts_a = cfg.jko_opts
        opts_b = jko.JkoOptions(
            backend="projected" if opts_a.backend != "projected" else "mirror",
            eps=opts_a.eps, max_iters=opts_a.max_iters, tol=opts_a.tol,
            exact_coupling=opts_a.exact_coupling,
        )
        step_a = jko.jko_step(cfg.rho0, cfg.energy, cfg.p, cfg.h, g, opts_a)
        step_b = jko.jko_step(cfg.rho0, cfg.energy, cfg.p, cfg.h, g, opts_b)
        val_a = step_a.energy_after + step_a.transport_cost
        val_b = step_b.energy_after + step_b.transport_cost
        rows.append((f"step_objective_{opts_a.backend}_vs_{opts_b.backend}",
                     val_a, val_b, abs(val_a - val_b)))
        l1 = float(np.abs(step_a.rho_next.mass - step_b.rho_next.mass).sum())
        rows.append(("step_state_l1", l1, 0.0, l1))
    elif cfg.kind == "pde":
        q = conjugate(cfg.p)
        rate = pde.rhs(cfg.rho0, cfg.energy, q, g, cfg.pde_cfg.delta_reg)
        rows.append(("rhs_total_mass_rate", float(rate.sum() * g.dx), 0.0,
                     abs(float(rate.sum() * g.dx))))
        # chain rule: d/dt E = <G'(rho), rhs> should equal minus the
        # dissipation integral, up to the face/cell averaging error
        slope = float(np.sum(cfg.energy.deriv(cfg.rho0.density(g)) * rate) * g.dx)
        s_cell = neighbor_mean(gradient(cfg.energy.deriv(cfg.rho0.density(g)), g))
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
        ("oracle", "run the slow reference backends"),
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
    except ConfigValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        if not args.quiet:
            print(f"ok: {args.config} ({cfg.kind}, grid n={cfg.grid.n_cells})")
        return 0

    try:
        if args.command == "oracle":
            return _run_oracle(cfg, args.quiet)
        return _DISPATCH[cfg.kind](cfg, args.quiet)
    except ConfigValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (NumericalBlowupError, VarwassError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
