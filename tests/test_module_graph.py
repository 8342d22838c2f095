"""The module graph: the geometry of the density manifold (the speed side in
finsler, the slope side beside it) and the reference PDE do not depend on
the step scheme, so that jko may import them and not the other way round."""

import ast
from pathlib import Path

import pytest

from varwass import jko, varexp

SRC = Path(__file__).resolve().parents[1] / "src" / "varwass"


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _imported_modules(tree):
    """Dotted names of everything the module imports, relative ones included."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return names


@pytest.mark.parametrize("name", ["pde", "finsler"])
def test_geometry_and_reference_pde_do_not_import_jko(name):
    imported = _imported_modules(_tree(name))
    assert not [m for m in imported if "jko" in m.split(".")]


def test_jko_defines_no_trajectory_or_dissipation_name():
    defined = set()
    for node in _tree("jko").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    moved = {"Trajectory", "_cell_slope", "DissipationReport"}
    assert not defined & moved
    assert not [n for n in defined if n.lstrip("_").startswith("dissipation")]
    # the flow still hands out the one trajectory type
    assert jko.Trajectory is varexp.Trajectory


def test_cli_reads_no_private_name_of_jko_but_the_step_count():
    private = {node.attr for node in ast.walk(_tree("cli"))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "jko" and node.attr.startswith("_")}
    assert private == {"_step_count"}
