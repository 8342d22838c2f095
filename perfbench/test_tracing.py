"""Self-test of the benchmark's tracer: python3 -m pytest perfbench/test_tracing.py"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.use_checkout_src()

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from varwass import energy, finsler, jko, pde, transport, varexp  # noqa: E402
from varwass.grid import make_grid  # noqa: E402


def test_patches_reach_every_importer_and_are_restored():
    before = (jko.total_energy, pde.total_energy, finsler.luxemburg_norm,
              pde.rhs, transport.solve_exact)
    with tracing.Tracer() as tr:
        assert jko.total_energy is pde.total_energy is energy.total_energy
        assert finsler.luxemburg_norm is varexp.luxemburg_norm
        assert jko.total_energy.__wrapped__ is before[0]
        g = make_grid(0.0, 1.0, 8)
        rho = varexp.DensityField.uniform(g)
        p = varexp.ExponentField.constant(2.0, 8)
        jko.jko_step(rho, energy.builtin_energy("entropy"), p, 1e-2, g)
    after = (jko.total_energy, pde.total_energy, finsler.luxemburg_norm,
             pde.rhs, transport.solve_exact)
    assert all(a is b for a, b in zip(before, after))
    names = [s.name for s in tr.spans]
    assert names[0] == "jko.jko_step"
    assert {"transport.build_cost", "transport.solve_exact",
            "energy.total_energy", "jko.el_residual"} <= set(names[1:])
    assert all(s.parent == 0 for s in tr.spans[1:])
    assert tracing.consistency_errors(tr.spans) == []
    m = tracing.layer_metrics([tr.spans])
    assert m["jko.mirror_iters"] == tr.spans[0].attrs["iterations"] > 0
    assert m["energy.total_energy_calls"] == 2


def test_self_time_is_duration_minus_children():
    spans = [tracing.Span("pde.solve", 0.0, 10.0, None, 0),
             tracing.Span("pde.rhs", 1.0, 3.0, 0, 0),
             tracing.Span("pde.rhs", 4.0, 5.0, 0, 0)]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]
    assert tracing.consistency_errors(spans) == []
    m = tracing.layer_metrics([spans, spans])
    assert m["pde.euler_steps"] == 4
    assert m["pde.solve_self_s"] == 14.0


def test_child_outside_its_parent_is_flagged():
    spans = [tracing.Span("pde.solve", 0.0, 2.0, None, 0),
             tracing.Span("pde.rhs", 0.5, 3.0, 0, 0)]
    errors = tracing.consistency_errors(spans)
    assert any("leaves its parent" in e for e in errors)
    assert any("self time" in e for e in errors)


def test_cross_check_flags_a_count_the_spans_missed():
    span = tracing.Span("transport.solve_exact", 0.0, 1.0, None, 0, {"pivots": 3})
    assert tracing.cross_check([span], {"direct_pivots": 3}) == []
    assert tracing.cross_check([span], {"direct_pivots": 4})


def test_tail_is_the_nearest_rank_p90():
    lat = list(np.arange(1.0, 101.0))
    assert run.tail(lat) == (90.0, 10)
    assert run.tail(lat[:28]) == (26.0, 2)
    assert run.tail(lat[:3]) == (3.0, 0)


def test_a_tracer_named_to_steps_patches_nothing_else():
    before = transport.solve_exact
    with tracing.Tracer(("jko.jko_step",)) as tr:
        assert transport.solve_exact is before
        g = make_grid(0.0, 1.0, 8)
        jko.jko_step(varexp.DensityField.uniform(g), energy.builtin_energy("entropy"),
                     varexp.ExponentField.constant(2.0, 8), 1e-2, g)
    assert [s.name for s in tr.spans] == ["jko.jko_step"]

