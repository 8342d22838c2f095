"""End-to-end checks of the console entry point: exit codes, CSV contract,
determinism, and the validation surface."""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from varwass import cli, jko, pde, transport
from varwass.energy import builtin_energy
from varwass.errors import ConfigValidationError, NonpositiveParameterError
from varwass.grid import make_grid
from varwass.varexp import DensityField, ExponentField

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="cfg.yaml", **overrides):
    base = {
        "experiment": {"kind": "jko", "out": str(tmp_path / "out")},
        "grid": {"a": 0.0, "b": 1.0, "n_cells": 16},
        "exponent": {"kind": "constant", "value": 2.0},
        "energy": {"kind": "entropy"},
        "initial": {"kind": "cosine", "amplitude": 0.5},
        "flow": {"h": 1e-3, "t_end": 0.0},
    }
    for key, val in overrides.items():
        if val is None:
            base.pop(key, None)
        else:
            base[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(base), encoding="ascii")
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    comment, header, rows = lines[0], lines[1].split(","), []
    for line in lines[2:]:
        rows.append(line.split(","))
    return comment, header, rows


# ------------------------------------------------------------- happy paths

def test_validate_succeeds_and_writes_nothing(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["validate", str(path), "--quiet"]) == 0
    assert not (tmp_path / "out").exists()


def test_jko_zero_horizon_single_row(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["run", str(path), "--quiet"]) == 0
    comment, header, rows = read_csv(tmp_path / "out" / "jko.csv")
    assert header == ["step", "time", "energy", "transport_cost",
                      "max_density", "mass_error", "el_residual",
                      "dissipation_slack", "iterations", "converged"]
    assert len(rows) == 1
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == 0.0
    assert rows[0][-2:] == ["0", "1"]


def test_commands_without_quiet_report_what_they_did(tmp_path, capsys):
    path = write_config(tmp_path, flow={"h": 1e-3, "t_end": 3e-3})
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"ok: {path} (jko, grid n=16)\n"
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'out' / 'jko.csv'} (4 rows)\n"
    compare = write_config(
        tmp_path, name="compare.yaml",
        experiment={"kind": "compare", "out": str(tmp_path / "compare")},
        flow={"h": 1e-3, "t_end": 5e-3},
        solver={"backend": "entropic", "smoothing": 0.015625, "exact_coupling": False},
        compare={"stride": 2},
    )
    assert cli.main(["run", str(compare)]) == 0
    _, _, rows = read_csv(tmp_path / "compare" / "compare.csv")
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {tmp_path / 'compare' / 'compare.csv'} (4 rows)",
        f"final L1 error {float(rows[-1][2]):.6g}",
    ]


def test_csv_comment_records_config_hash_and_seed(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", str(path), "--quiet"])
    comment, _, _ = read_csv(tmp_path / "out" / "jko.csv")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    assert comment.startswith(f"# config_sha256={sha} version=")
    assert comment.endswith("seed=None")


def test_compare_experiment_cross_validates(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "compare", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
        flow={"h": 1e-3, "t_end": 5e-3},
        solver={"backend": "entropic", "smoothing": 0.015625,
                "exact_coupling": False},
        compare={"threshold": 0.05, "stride": 5},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "compare.csv")
    assert header == ["step", "time", "l1_error"]
    assert float(rows[-1][2]) <= 0.05


def test_compare_samples_the_last_step_off_the_stride(tmp_path):
    # a stride of 2 over 5 steps samples steps 0, 2 and 4, then the last
    path = write_config(
        tmp_path,
        experiment={"kind": "compare", "out": str(tmp_path / "out")},
        flow={"h": 1e-3, "t_end": 5e-3},
        solver={"backend": "entropic", "smoothing": 0.015625,
                "exact_coupling": False},
        compare={"stride": 2},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "compare.csv")
    assert [r[0] for r in rows] == ["0", "2", "4", "5"]


def test_compare_failure_exits_4(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "compare", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
        flow={"h": 1e-3, "t_end": 2e-3},
        solver={"backend": "entropic", "smoothing": 0.015625,
                "exact_coupling": False},
        compare={"threshold": 1e-12},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 4


def test_pde_experiment_energies_decrease(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "pde", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
        pde={"t_end": 2e-3, "stride": 10},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "pde.csv")
    energies = [float(r[2]) for r in rows]
    assert np.all(np.diff(energies) <= 1e-12)
    assert max(float(r[4]) for r in rows) <= 1e-12


def test_transport_experiment_reports_solvers(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "transport", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 24},
        target={"kind": "gaussian", "center": 0.7, "width": 0.15},
        flow={"h": 1.0, "t_end": 0.0},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "transport.csv")
    solvers = [r[0] for r in rows]
    assert solvers == ["exact", "entropic", "quantile_wasserstein"]
    assert abs(float(rows[0][2])) <= 1e-12
    assert rows[1][4] == "1"
    assert float(rows[1][2]) < 1e-10


def test_norms_experiment_properties_hold(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "norms", "seed": 42, "out": str(tmp_path / "out")},
        norms={"samples": 25},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "norms.csv")
    assert len(rows) == 25
    for r in rows:
        assert abs(float(r[2]) - 1.0) <= 1e-6   # modular at the norm
        assert float(r[3]) <= 1e-9              # homogeneity deviation
        assert float(r[4]) <= 1e-9              # triangle violation


def test_finsler_experiment_two_levels(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "finsler", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
        exponent={"kind": "affine", "p0": 2.0, "p1": 1.0},
        target={"kind": "gaussian", "center": 0.65, "width": 0.18},
        finsler={"n_steps": 8},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "finsler.csv")
    assert header[4] == "gap"
    assert len(rows) == 2
    assert all(float(r[4]) >= 0.0 for r in rows)


def test_jko_experiment_writes_a_row_per_step(tmp_path):
    path = write_config(tmp_path, flow={"h": 1e-3, "t_end": 3e-3})
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "jko.csv")
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert [float(r[1]) for r in rows] == pytest.approx([0.0, 1e-3, 2e-3, 3e-3])
    energies = [float(r[2]) for r in rows]
    assert np.all(np.diff(energies) <= 1e-12)
    assert all(r[-1] == "1" and int(r[-2]) >= 1 for r in rows[1:])


def test_finsler_at_constant_exponent_bounds_by_the_quantile_distance(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "finsler", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
        target={"kind": "gaussian", "center": 0.65, "width": 0.18},
        finsler={"n_steps": 4},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "finsler.csv")
    assert header[3] == "wasserstein_quantile"
    g = make_grid(0.0, 1.0, 32)
    want = transport.wasserstein_1d(2.0, DensityField.cosine_bump(g, 0.5),
                                    DensityField.gaussian(g, 0.65, 0.18), g)
    assert [float(r[3]) for r in rows] == [want, want]
    # the polygon lengths on the grid sit within 1% of the distance, on
    # either side of it: gap is -1.3e-3 and -1.8e-3 here
    assert all(abs(float(r[4])) <= 0.01 * want for r in rows)


def test_oracle_transport_vertex_check(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "transport", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 4},
        target={"kind": "gaussian", "center": 0.7, "width": 0.2},
        flow={"h": 1.0, "t_end": 0.0},
    )
    assert cli.main(["oracle", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "oracle.csv")
    assert rows[0][0] == "vertex_enumeration"
    assert float(rows[0][3]) <= 1e-9


def test_oracle_transport_needs_small_grid(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "transport", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 8},
        target={"kind": "gaussian", "center": 0.7, "width": 0.2},
    )
    assert cli.main(["oracle", str(path), "--quiet"]) == 3


def test_oracle_jko_reports_the_step_duality_gap(tmp_path):
    # at h=0.1 the mirror step moves the n=8 bump and its objective lies
    # 2.2e-16 above the Fenchel bound of the step program; weak duality
    # keeps the gap >= 0 up to rounding
    path = write_config(tmp_path, grid={"a": 0.0, "b": 1.0, "n_cells": 8},
                        flow={"h": 0.1, "t_end": 0.0})
    assert cli.main(["oracle", str(path), "--quiet"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "oracle.csv")
    assert header == ["check", "value", "reference", "abs_diff"]
    assert [r[0] for r in rows] == ["step_duality_gap"]
    value, bound, gap = map(float, rows[0][1:])
    assert gap == value - bound
    assert -1e-13 <= gap <= 1e-14


def test_oracle_pde_checks_mass_and_chain_rule(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "pde", "out": str(tmp_path / "out")},
        grid={"a": 0.0, "b": 1.0, "n_cells": 32},
    )
    assert cli.main(["oracle", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "oracle.csv")
    assert [r[0] for r in rows] == ["rhs_total_mass_rate",
                                    "energy_slope_vs_dissipation"]
    assert float(rows[0][3]) <= 1e-12
    slope, dissipation = float(rows[1][1]), float(rows[1][2])
    assert slope < 0.0 and dissipation < 0.0
    assert float(rows[1][3]) <= 0.05 * abs(dissipation)


def test_oracle_runs_a_cross_check_experiment_as_it_is(tmp_path):
    # a finsler run already checks lengths against a transport distance, so
    # the oracle writes the run's own finsler.csv
    path = ROOT / "tests" / "configs" / "finsler.yaml"
    assert cli.main(["oracle", str(path), "--quiet", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path / "b")]) == 0
    assert not (tmp_path / "a" / "oracle.csv").exists()
    assert ((tmp_path / "a" / "finsler.csv").read_bytes()
            == (tmp_path / "b" / "finsler.csv").read_bytes())


def test_oracle_norms_match_a_modular_scan(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "norms", "seed": 3, "out": str(tmp_path / "out")},
        norms={"samples": 3},
    )
    assert cli.main(["oracle", str(path), "--quiet"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "oracle.csv")
    assert [r[0] for r in rows] == ["norm_scan_0", "norm_scan_1", "norm_scan_2"]
    # the scan's grid spaces lambda by a factor 256^(1/2000) ~ 1.0028
    assert all(float(r[3]) <= 3e-3 * float(r[1]) for r in rows)


def test_numerical_failure_exits_4(tmp_path, capsys):
    # a fixed dt far above the stability bound raises NumericalBlowupError
    path = write_config(
        tmp_path,
        experiment={"kind": "pde", "out": str(tmp_path / "out")},
        pde={"t_end": 1e-2, "fixed_dt": 1e-2},
    )
    assert cli.main(["run", str(path), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_overflowing_step_count_exits_3_naming_it(tmp_path, capsys, command):
    # t_end / h overflows to inf: config validation runs the flow's own
    # step-count check, so validate rejects what run would, with no traceback
    path = write_config(tmp_path, flow={"h": 1e-320, "t_end": 0.05})
    assert cli.main([command, str(path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error: invalid [flow] section: step count t_end / h")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- determinism

def test_identical_config_and_seed_reproduce_bytes(tmp_path):
    cfg = dict(
        experiment={"kind": "norms", "seed": 7, "out": str(tmp_path / "a")},
        norms={"samples": 10},
    )
    path = write_config(tmp_path, name="one.yaml", **cfg)
    assert cli.main(["run", str(path), "--quiet"]) == 0
    assert cli.main(["run", str(path), "--quiet", "--out",
                     str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "norms.csv").read_bytes()
    b = (tmp_path / "b" / "norms.csv").read_bytes()
    assert a == b


def test_seed_override_changes_the_draw(tmp_path):
    path = write_config(
        tmp_path,
        experiment={"kind": "norms", "seed": 7, "out": str(tmp_path / "a")},
        norms={"samples": 10},
    )
    cli.main(["run", str(path), "--quiet"])
    cli.main(["run", str(path), "--quiet", "--seed", "8", "--out",
              str(tmp_path / "b")])
    a = (tmp_path / "a" / "norms.csv").read_text().split("\n")
    b = (tmp_path / "b" / "norms.csv").read_text().split("\n")
    assert "seed=7" in a[0] and "seed=8" in b[0]
    assert a[2] != b[2]


# ---------------------------------------------------------------- rejections

def test_exponent_at_one_violates_the_standing_assumption(tmp_path, capsys):
    path = write_config(tmp_path, exponent={"kind": "constant", "value": 1.0})
    assert cli.main(["validate", str(path)]) == 3
    assert "A1" in capsys.readouterr().err


def test_unknown_key_and_section_are_rejected(tmp_path):
    path = write_config(tmp_path, flow={"h": 1e-3, "dt": 1e-3})
    assert cli.main(["validate", str(path), "--quiet"]) == 3
    path2 = write_config(tmp_path, name="two.yaml", turbo={"on": True})
    assert cli.main(["validate", str(path2), "--quiet"]) == 3


def test_unknown_experiment_kind_rejected(tmp_path):
    path = write_config(tmp_path,
                        experiment={"kind": "warp", "out": str(tmp_path)})
    assert cli.main(["validate", str(path), "--quiet"]) == 3


def test_norms_without_seed_rejected(tmp_path):
    path = write_config(tmp_path,
                        experiment={"kind": "norms", "out": str(tmp_path)})
    assert cli.main(["validate", str(path), "--quiet"]) == 3


def test_transport_without_target_rejected(tmp_path):
    path = write_config(tmp_path,
                        experiment={"kind": "transport",
                                    "out": str(tmp_path)})
    assert cli.main(["validate", str(path), "--quiet"]) == 3


def test_missing_file_is_a_config_error(tmp_path):
    assert cli.main(["validate", str(tmp_path / "nope.yaml"), "--quiet"]) == 2


def test_invalid_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("experiment: [unclosed\n")
    assert cli.main(["validate", str(path), "--quiet"]) == 2


def test_bad_solver_section_rejected(tmp_path):
    path = write_config(tmp_path, solver={"backend": "warp"})
    assert cli.main(["validate", str(path), "--quiet"]) == 3
    retired = write_config(tmp_path, name="retired.yaml", solver={"backend": "projected"})
    assert cli.main(["validate", str(retired), "--quiet"]) == 3
    path2 = write_config(tmp_path, name="two.yaml", solver={"smoothing": -1.0})
    assert cli.main(["validate", str(path2), "--quiet"]) == 3


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "seed", "abc"),
    ("flow", "h", "abc"),
    ("flow", "t_end", [1.0]),
    ("compare", "stride", "x"),
    ("compare", "threshold", "x"),
    ("norms", "samples", [1]),
    ("finsler", "n_steps", "x"),
    ("finsler", "n_steps", 2.5),
    ("grid", "n_cells", float("inf")),
    ("flow", "h", float("nan")),
    ("flow", "t_end", float("inf")),
    ("solver", "exact_coupling", "false"),
    # iteration caps and tolerances are module constants, not config keys
    ("solver", "max_iters", 500),
    ("solver", "tol", 1e-8),
    ("pde", "delta_reg", 1e-6),
    # YAML booleans are not numbers
    ("experiment", "seed", True),
    ("flow", "h", True),
    ("norms", "samples", True),
    ("initial", "masses", [True, False]),
])
def test_malformed_value_exits_3_naming_the_section(tmp_path, capsys, section,
                                                    key, value):
    base = {"experiment": {"kind": "norms", "seed": 1, "out": str(tmp_path / "out")},
            "flow": {"h": 1e-3, "t_end": 0.0}}
    base.setdefault(section, {})[key] = value
    path = write_config(tmp_path, **base)
    for command in ("validate", "run"):
        assert cli.main([command, str(path), "--quiet"]) == 3
        assert f"[{section}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_G8 = make_grid(0.0, 1.0, 8)
_STEP_ARGS = (DensityField.uniform(_G8), builtin_energy("entropy"),
              ExponentField.constant(2.0, 8))
_NAN, _INF = float("nan"), float("inf")
_BAD_INPUTS = {
    "jko_eps_nan": (lambda tmp: jko.JkoOptions(eps=_NAN), NonpositiveParameterError),
    "jko_smoothing_nan": (lambda tmp: jko.JkoOptions(smoothing=_NAN),
                          NonpositiveParameterError),
    "pde_t_end_nan": (lambda tmp: pde.PdeConfig(t_end=_NAN), ValueError),
    "pde_t_end_inf": (lambda tmp: pde.PdeConfig(t_end=_INF), ValueError),
    "run_flow_t_end_inf": (lambda tmp: jko.run_flow(*_STEP_ARGS, 1e-3, _INF, _G8),
                           ValueError),
    "jko_step_h_nan": (lambda tmp: jko.jko_step(*_STEP_ARGS, _NAN, _G8),
                       NonpositiveParameterError),
    "explicit_zero_masses": (lambda tmp: cli.load_config(write_config(
        tmp, initial={"kind": "explicit", "masses": [0.0] * 16})), ConfigValidationError),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_non_finite_or_massless_input_is_a_typed_error_without_warnings(tmp_path, name):
    call, error = _BAD_INPUTS[name]
    with pytest.raises(error):
        call(tmp_path)


@pytest.mark.parametrize("section, spec", [
    ("initial", {"kind": "explicit", "masses": [1.0, 2.0, 3.0]}),
    ("target", {"kind": "explicit", "masses": [1.0] * 17}),
    ("exponent", {"kind": "piecewise", "values": [2.0, 2.5]}),
])
def test_per_cell_list_of_the_wrong_length_rejected(tmp_path, capsys, section, spec):
    path = write_config(tmp_path, **{section: spec})
    assert cli.main(["validate", str(path), "--quiet"]) == 3
    assert f"[{section}]" in capsys.readouterr().err


def test_omitted_initial_density_is_uniform(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, initial=None))
    assert np.array_equal(cfg.rho0.mass, DensityField.uniform(cfg.grid).mass)


def test_omitted_solver_and_pde_keys_take_the_dataclass_defaults(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, flow={"t_end": 0.25}))
    assert cfg.jko_opts == jko.JkoOptions()
    assert cfg.pde_cfg == pde.PdeConfig(t_end=0.25)
    assert cfg.h == 1e-3


def _readme_cli_section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text[text.index("## CLI"):text.index("## Library example")]


def test_readme_compare_config_is_the_benchmark_config(tmp_path):
    block = re.search(r"```yaml\n(.*?)```", _readme_cli_section(), re.S).group(1)
    assert block.encode() == (ROOT / "perfbench" / "compare_readme.yaml").read_bytes()
    path = tmp_path / "compare.yaml"
    path.write_text(block, encoding="ascii")
    assert cli.main(["validate", str(path), "--quiet"]) == 0


def test_readme_library_example_runs_verbatim(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library example"):text.index("## Bad input")]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    slack, dissipation = map(float, capsys.readouterr().out.split())
    assert (slack, dissipation) == (namespace["report"].worst_step_slack,
                                    namespace["report"].total_dissipation)
    assert namespace["ref_report"].per_step_slack.size == len(namespace["ref"]) - 1


#: The configs that CI runs through the console script, one file each.
CI_CONFIGS = ("finsler", "jko", "jko_entropic", "jko_rough", "oracle_transport", "pde", "rows",
              "rows128", "transport")


@pytest.mark.parametrize("name", CI_CONFIGS)
def test_ci_config_validates(name):
    path = ROOT / "tests" / "configs" / f"{name}.yaml"
    assert cli.main(["validate", str(path), "--quiet"]) == 0


def test_entropic_jko_config_prints_nan_residuals_and_converged_steps(tmp_path):
    # without the exact coupling a step measures no el_residual: jko.csv
    # prints nan there, and 1 under converged as for every backend
    path = ROOT / "tests" / "configs" / "jko_entropic.yaml"
    assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "jko.csv")
    assert len(rows) == 11
    for row in rows[1:]:
        assert row[header.index("el_residual")] == "nan"
        assert row[header.index("converged")] == "1"


def test_rough_jko_config_falls_back_to_the_descent_and_keeps_its_invariants(tmp_path):
    # at p = 1.05 + x the cost breaks the Monge condition: step 1 falls back
    # to the descent (1106 iterations), and steps 2 to 5 certify in 1 to 4.
    # dissipation_slack is negative on this rough data (ROADMAP item 12), so
    # it is not checked.
    path = ROOT / "tests" / "configs" / "jko_rough.yaml"
    assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "jko.csv")
    column = {name: [row[k] for row in rows] for k, name in enumerate(header)}
    assert len(rows) == 6
    assert set(column["converged"]) == {"1"}
    assert max(float(v) for v in column["mass_error"]) <= 1e-12
    energy = [float(v) for v in column["energy"]]
    assert all(b <= a + 1e-12 for a, b in zip(energy, energy[1:]))
    assert max(int(v) for v in column["iterations"]) > 30


#: One value for every key of every section the README documents.
EVERY_KEY = {
    "experiment": {"kind": "norms", "seed": 3, "out": "results"},
    "grid": {"a": 0.0, "b": 2.0, "n_cells": 4},
    "exponent": {"kind": "piecewise", "value": 2.0, "p0": 2.0, "p1": 1.0,
                 "values": [2.0, 2.5, 3.0, 3.5]},
    "energy": {"kind": "power", "m": 3.0},
    "initial": {"kind": "explicit", "amplitude": 0.2, "center": 0.5,
                "width": 0.3, "masses": [1, 2, 3, 4]},
    "target": {"kind": "gaussian", "amplitude": 0.2, "center": 1.5,
               "width": 0.3, "masses": [4, 3, 2, 1]},
    "flow": {"h": 1e-2, "t_end": 0.05},
    "solver": {"backend": "entropic", "eps": 0.3, "smoothing": 0.1,
               "exact_coupling": False},
    "pde": {"t_end": 0.01, "cfl": 0.25, "stride": 5, "fixed_dt": 1e-6},
    "compare": {"threshold": 0.1, "stride": 2},
    "norms": {"samples": 7},
    "finsler": {"n_steps": 3},
}


def test_every_documented_key_validates(tmp_path):
    documented = {}
    for line in _readme_cli_section().splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row:
            documented[row.group(1)] = set(re.findall(r"`(\w+)`", row.group(2)))
    expected = {name: set(keys) for name, keys in EVERY_KEY.items()}
    assert documented == expected
    assert {name: set(keys) for name, keys in cli._SCHEMA.items()} == expected
    path = write_config(tmp_path, **EVERY_KEY)
    assert cli.main(["validate", str(path), "--quiet"]) == 0
    cfg = cli.load_config(path)
    assert cfg.jko_opts == jko.JkoOptions("entropic", 0.3, 0.1, False)
    assert cfg.pde_cfg == pde.PdeConfig(0.01, 0.25, 5, 1e-6)
    assert (cfg.compare_threshold, cfg.compare_stride) == (0.1, 2)
    assert (cfg.norm_samples, cfg.finsler_steps, cfg.seed) == (7, 3, 3)


# ------------------------------------------------------------- entry point

def test_console_entry_point_runs(tmp_path):
    path = write_config(tmp_path)
    exe = shutil.which("varwass")
    cmd = [exe] if exe else [sys.executable, "-m", "varwass.cli"]
    proc = subprocess.run(cmd + ["validate", str(path), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("initial", [
    {"kind": "gaussian", "center": 0.5, "width": 1e-300},
    {"kind": "gaussian", "center": 1e308, "width": 1.0},
], ids=["narrow", "far"])
def test_gaussian_without_mass_exits_3_with_warnings_as_errors(tmp_path, initial):
    path = write_config(tmp_path, initial=initial)
    exe = shutil.which("varwass")
    cmd = [exe] if exe else [sys.executable, "-m", "varwass.cli"]
    proc = subprocess.run(cmd + ["validate", str(path), "--quiet"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONWARNINGS": "error"})
    assert proc.returncode == 3, proc.stderr
    assert "positive total mass" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("overrides, code", [
    ({"compare": {"stride": 0}}, 3),
    ({"experiment": None}, 3),
    ({"grid": 5}, 2),
    ({"initial": {"kind": "explicit"}}, 3),
    ({"initial": {"kind": "blob"}}, 3),
    ({"exponent": {"kind": "piecewise"}}, 3),
    ({"exponent": {"kind": "ramp"}}, 3),
    ({"flow": {"h": 0.0}}, 3),
    ({"flow": {"h": -1e-3}}, 3),
    ({"flow": {"h": 1e-3, "t_end": -1.0}}, 3),
], ids=["count below one", "no experiment", "section not a mapping",
        "explicit without masses", "unknown density kind",
        "piecewise without values", "unknown exponent kind", "zero step",
        "negative step", "negative horizon"])
def test_each_config_rejection_exits_with_its_code(tmp_path, overrides, code):
    path = write_config(tmp_path, **overrides)
    assert cli.main(["validate", str(path), "--quiet"]) == code


def test_config_that_is_not_a_mapping_is_a_config_error(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    assert cli.main(["validate", str(path), "--quiet"]) == 2
