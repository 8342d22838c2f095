"""The benchmark's tracer still finds every function it times.

perfbench/tracing.py wraps package functions by module attribute and skips,
without an error, any name it cannot find. A rename would then quietly take
a traced layer out of the benchmark. This test reads the tracer's patch
table, installs nothing, and checks each entry against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patch_table():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.PATCHES


PATCHES = _patch_table()


@pytest.mark.parametrize("name, home, attr, importers", PATCHES,
                         ids=[entry[0] for entry in PATCHES])
def test_traced_function_is_where_the_tracer_looks(name, home, attr, importers):
    fn = getattr(importlib.import_module(home), attr, None)
    assert callable(fn), f"{home}.{attr} is missing, so {name} would not be traced"
    for other in importers:
        held = getattr(importlib.import_module(other), attr, None)
        assert held is fn, f"{other}.{attr} is not {home}.{attr}, so {name} is traced only in part"
