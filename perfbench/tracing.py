"""Span tracing of varwass layers, installed from outside the package.

The tracer replaces public (and a few private) functions of the package
modules with timing wrappers at module-attribute level and puts the
originals back afterwards. Several modules import a callee by name, so one
wrapper is installed under every module attribute that holds the same
function object. Spans are kept in memory; aggregation into per-layer
metrics and the consistency checks run on the recorded list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

#: (span name, defining module, function name, other importing modules).
#: A module that is not imported yet, or an attribute that no longer holds
#: the same function, is skipped; the span then simply never appears.
PATCHES = (
    ("jko.run_flow", "varwass.jko", "run_flow", ()),
    ("jko.jko_step", "varwass.jko", "jko_step", ()),
    ("jko.el_residual", "varwass.jko", "_residual_of", ()),
    ("transport.build_cost", "varwass.transport", "build_cost", ()),
    ("transport.solve_exact", "varwass.transport", "solve_exact", ()),
    ("transport.displacement_interpolant", "varwass.transport",
     "displacement_interpolant", ()),
    ("transport.wasserstein_1d", "varwass.transport", "wasserstein_1d", ()),
    ("pde.solve", "varwass.pde", "solve", ()),
    ("pde.rhs", "varwass.pde", "rhs", ()),
    ("finsler.curve_length", "varwass.finsler", "curve_length", ()),
    ("finsler.tangent_norm", "varwass.finsler", "tangent_norm", ()),
    ("varexp.luxemburg_norm", "varwass.varexp", "luxemburg_norm",
     ("varwass.finsler", "varwass.cli")),
    ("energy.total_energy", "varwass.energy", "total_energy",
     ("varwass.jko", "varwass.pde", "varwass.cli")),
    ("cli.load_config", "varwass.cli", "load_config", ()),
    ("cli.main", "varwass.cli", "main", ()),
)


def _step_attrs(args, kwargs, result):
    opts = kwargs.get("opts", args[5] if len(args) > 5 else None)
    backend = opts.backend if opts is not None else "mirror"
    return {"backend": backend, "iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _flow_attrs(args, kwargs, result):
    steps = result.steps or []
    return {"iterations": int(sum(s.iterations for s in steps))}


def _exact_attrs(args, kwargs, result):
    return {"pivots": int(result.pivots)}


#: Attributes read off a call's result; these are what the library returns,
#: so comparing them with counts taken from spans cross-checks the trace.
ATTRS = {
    "jko.jko_step": _step_attrs,
    "jko.run_flow": _flow_attrs,
    "transport.solve_exact": _exact_attrs,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made while its patches are installed.

    ``names`` limits the patches to those span names; by default every
    entry of PATCHES is installed.
    """

    def __init__(self, names: tuple[str, ...] | None = None):
        self.names = names
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for name, home, attr, importers in PATCHES:
            if self.names is not None and name not in self.names:
                continue
            mod = sys.modules.get(home)
            if mod is None or not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for mod_name in (home,) + importers:
                target = sys.modules.get(mod_name)
                if target is not None and getattr(target, attr, None) is original:
                    self._restore.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def consistency_errors(spans: list[Span]) -> list[str]:
    """Spans must nest inside their parents and keep a self time in [0, duration]."""
    errors = []
    selfs = self_times(spans)
    for i, (s, own) in enumerate(zip(spans, selfs)):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} leaves its parent {p.name}")
        if own < -1e-9 or own > s.duration + 1e-9:
            errors.append(f"span {i} {s.name} has self time {own:.3e} "
                          f"outside [0, {s.duration:.3e}]")
    return errors


def layer_metrics(ops: list[list[Span]]) -> dict[str, float]:
    """Per-layer counts and seconds summed over ops, named as in BENCHMARK.json.

    Each op's spans are a list of their own: parent indices are local to it.
    """
    m = {
        "jko.step_self_s.entropic": 0.0, "jko.step_self_s.mirror": 0.0,
        "jko.dual_iters": 0, "jko.mirror_iters": 0, "jko.unconverged_steps": 0,
        "jko.el_residual_s": 0.0, "jko.run_flow_s": 0.0,
        "transport.build_cost_calls": 0, "transport.build_cost_s": 0.0,
        "transport.solve_exact_calls": 0, "transport.solve_exact_s": 0.0,
        "transport.pivots": 0, "transport.s_per_pivot": 0.0,
        "transport.interpolant_s": 0.0, "transport.wasserstein_1d_s": 0.0,
        "pde.solve_s": 0.0, "pde.euler_steps": 0, "pde.rhs_s": 0.0,
        "pde.solve_self_s": 0.0,
        "finsler.curve_length_s": 0.0, "finsler.tangent_norm_calls": 0,
        "varexp.luxemburg_norm_calls": 0, "varexp.luxemburg_norm_s": 0.0,
        "energy.total_energy_calls": 0, "energy.total_energy_s": 0.0,
        "cli.load_config_s": 0.0, "cli.main_self_s": 0.0,
    }
    seconds = {
        "jko.el_residual": "jko.el_residual_s", "jko.run_flow": "jko.run_flow_s",
        "transport.build_cost": "transport.build_cost_s",
        "transport.solve_exact": "transport.solve_exact_s",
        "transport.displacement_interpolant": "transport.interpolant_s",
        "transport.wasserstein_1d": "transport.wasserstein_1d_s",
        "pde.solve": "pde.solve_s", "pde.rhs": "pde.rhs_s",
        "finsler.curve_length": "finsler.curve_length_s",
        "varexp.luxemburg_norm": "varexp.luxemburg_norm_s",
        "energy.total_energy": "energy.total_energy_s",
        "cli.load_config": "cli.load_config_s",
    }
    calls = {
        "transport.build_cost": "transport.build_cost_calls",
        "transport.solve_exact": "transport.solve_exact_calls",
        "finsler.tangent_norm": "finsler.tangent_norm_calls",
        "varexp.luxemburg_norm": "varexp.luxemburg_norm_calls",
        "energy.total_energy": "energy.total_energy_calls",
    }
    for spans in ops:
        _add_op(m, spans, seconds, calls)
    if m["transport.pivots"]:
        m["transport.s_per_pivot"] = m["transport.solve_exact_s"] / m["transport.pivots"]
    return m


def _add_op(m, spans, seconds, calls):
    for s, own in zip(spans, self_times(spans)):
        if s.name in seconds:
            m[seconds[s.name]] += s.duration
        if s.name in calls:
            m[calls[s.name]] += 1
        if s.name == "jko.jko_step":
            backend = s.attrs["backend"]
            if backend == "entropic":
                m["jko.step_self_s.entropic"] += own
                m["jko.dual_iters"] += s.attrs["iterations"]
            elif backend == "mirror":
                m["jko.step_self_s.mirror"] += own
                m["jko.mirror_iters"] += s.attrs["iterations"]
            m["jko.unconverged_steps"] += not s.attrs["converged"]
        elif s.name == "transport.solve_exact":
            m["transport.pivots"] += s.attrs["pivots"]
        elif s.name == "pde.solve":
            m["pde.solve_self_s"] += own
        elif s.name == "pde.rhs":
            if s.parent is not None and spans[s.parent].name == "pde.solve":
                m["pde.euler_steps"] += 1
        elif s.name == "cli.main":
            m["cli.main_self_s"] += own


def cross_check(spans: list[Span], tallies: dict) -> list[str]:
    """Counts taken from one op's spans against the counts the library returned."""
    errors = []
    traced = layer_metrics([spans])
    for key in ("jko.mirror_iters", "jko.dual_iters", "pde.euler_steps"):
        if key in tallies and tallies[key] != traced[key]:
            errors.append(f"{key}: spans count {traced[key]}, library returned "
                          f"{tallies[key]}")
    if "direct_pivots" in tallies:
        direct = sum(s.attrs["pivots"] for s in spans
                     if s.name == "transport.solve_exact" and s.parent is None)
        if direct != tallies["direct_pivots"]:
            errors.append(f"transport.pivots: span {direct}, ExactResult "
                          f"{tallies['direct_pivots']}")
    for i, s in enumerate(spans):
        if s.name == "jko.run_flow":
            inner = sum(c.attrs["iterations"] for c in spans
                        if c.parent == i and c.name == "jko.jko_step")
            if inner != s.attrs["iterations"]:
                errors.append(f"jko.run_flow: step spans count {inner} iterations, "
                              f"the trajectory {s.attrs['iterations']}")
    return errors


def to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in spans]


def from_json(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]
