"""The three benchmark workloads: inputs, one op, and the op's checks.

Every op is built from (--seed, op index) alone. ``op`` does the timed work
and returns its outputs; ``check`` validates them untimed against the
acceptance criteria's own tolerances and returns (failures, tallies), the
tallies being counts the library itself returned, which the traced run
compares with the counts taken from spans. The warm-up op (index -1) draws
from a random stream that no measured op uses.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from checkout import OUT, ROOT
from tracing import Tracer, from_json
from varwass import energy, finsler, jko, pde, transport
from varwass.grid import make_grid
from varwass.varexp import DensityField, ExponentField, conjugate

HERE = Path(__file__).resolve().parent


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1] if index < 0 else [seed, 0, index])


class InProcess:
    """Ops that call the library in this process, traced by a local Tracer."""

    warm_up = True
    piece = "op"

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def pieces(seconds: float, spans) -> list[float]:
        return [seconds]

    @staticmethod
    def latencies(pieces: list[list[float]]) -> list[float]:
        """Every op's latency: the ops are all distinct."""
        return [s for op in pieces for s in op]

    def op(self, index: int, traced: bool):
        inst = self.instance(index)
        if not traced:
            return self.compute(inst), []
        tracer = Tracer()
        tracer.op = index
        with tracer:
            out = self.compute(inst)
        return out, tracer.spans


class ExactSteps(InProcess):
    """Criterion 5 at n=64: a default step, an exact-coupled entropic step, an LP."""

    name = "exact_steps"
    block = 16

    def setup(self):
        self.g = make_grid(0.0, 1.0, 64)
        self.p = ExponentField.affine(2.0, 1.0, self.g)
        self.e = energy.builtin_energy("entropy")
        self.h = 1e-2
        self.cost = transport.build_cost(self.g, self.p, self.h)
        self.default_opts = jko.JkoOptions()
        self.entropic_opts = jko.JkoOptions(
            backend="entropic", smoothing=math.sqrt(0.8 * self.h),
            exact_coupling=True)
        self.instance(0)

    def instance(self, index: int):
        rng = _rng(self.seed, index)
        v = 0.1 + 0.9 * rng.random(self.g.n_cells)
        rho = DensityField.from_masses(v / v.sum())
        comp = DensityField.gaussian(self.g, rng.uniform(0.25, 0.75),
                                     rng.uniform(0.08, 0.2))
        return rho, comp

    def compute(self, inst):
        rho, comp = inst
        g, p, e, h = self.g, self.p, self.e, self.h
        step = jko.jko_step(rho, e, p, h, g, self.default_opts)
        smooth = jko.jko_step(rho, e, p, h, g, self.entropic_opts)
        plan = transport.solve_exact(self.cost, rho.mass, comp.mass)
        return rho, comp, step, smooth, plan

    def check(self, out):
        rho, comp, step, smooth, plan = out
        failures = []
        for label, s in (("default step", step), ("entropic step", smooth)):
            if not s.mass_error <= 1e-9:
                failures.append(f"{label}: mass error {s.mass_error:.2e} > 1e-9")
            err = s.coupling.marginal_error()
            if not (s.coupling_is_exact and err <= transport.MARGINAL_TOL):
                failures.append(f"{label}: coupling marginal error {err:.2e}")
        err = plan.coupling.marginal_error()
        if not err <= transport.MARGINAL_TOL:
            failures.append(f"comparison plan: marginal error {err:.2e}")
        value_k = step.transport_cost + step.energy_after
        value_comp = plan.value + energy.total_energy(comp, self.e, self.g)
        if not value_k <= value_comp + 1e-7:
            failures.append(f"criterion 5: I(rho_k)={value_k:.12g} > "
                            f"I(comp)={value_comp:.12g} + 1e-7")
        tallies = {"jko.mirror_iters": step.iterations,
                   "jko.dual_iters": smooth.iterations,
                   "direct_pivots": plan.pivots}
        return failures, tallies


class ReferenceCurve(InProcess):
    """README library PDE example, then the `varwass run finsler` lengths."""

    name = "reference_curve"
    block = 4

    def setup(self):
        self.g = make_grid(0.0, 1.0, 64)
        self.p = ExponentField.affine(2.0, 1.0, self.g)
        self.q = conjugate(self.p)
        self.e = energy.builtin_energy("entropy")
        self.cfg = pde.PdeConfig(t_end=0.05)
        self.instance(0)

    def instance(self, index: int):
        rng = _rng(self.seed, index)
        rho0 = DensityField.cosine_bump(self.g, amplitude=rng.uniform(0.3, 0.5))
        target = DensityField.gaussian(self.g, rng.uniform(0.3, 0.7),
                                       rng.uniform(0.08, 0.2))
        return rho0, target

    def compute(self, inst):
        rho0, target = inst
        g, p = self.g, self.p
        ref = pde.solve(rho0, self.e, self.q, self.cfg, g)
        lower = 0.5 * transport.wasserstein_1d(p.p_minus, rho0, target, g)
        lengths = []
        for n_steps in (32, 64):
            times = np.linspace(0.0, 1.0, n_steps + 1)
            states = [transport.displacement_interpolant(rho0, target, float(t), g)
                      for t in times]
            path = jko.Trajectory(times=times, states=states)
            lengths.append(finsler.curve_length(path, p, g))
        return ref, lower, lengths

    def check(self, out):
        ref, lower, lengths = out
        failures = []
        if not ref.times[-1] >= self.cfg.t_end - 1e-12:
            failures.append(f"pde stopped at t={ref.times[-1]:.6g}")
        rise = float(np.diff(pde.energy_series(ref, self.e, self.g)).max())
        if not rise <= 1e-12:
            failures.append(f"pde energy rose by {rise:.2e}")
        for n_steps, length in zip((32, 64), lengths):
            if not length >= lower - 5e-3:
                failures.append(f"length {length:.6g} at {n_steps} steps below "
                                f"0.5 W_p- = {lower:.6g}")
        return failures, {"pde.euler_steps": len(ref) - 1}


class CompareReadme:
    """`varwass run` on the README compare config, one fresh process per op.

    An op is a whole flow, but its latencies are those of the flow's 100
    JKO steps: with only three flows in a run, the median and tail of three
    numbers would follow the machine's speed rather than the program.
    """

    name = "compare_readme"
    block = 1
    warm_up = False
    piece = "step"
    config = HERE / "compare_readme.yaml"
    rows = 11  # steps 0, 10, ..., 100 of the README flow

    def __init__(self, seed: int):
        self.seed = seed
        self.out = OUT / "compare_readme"
        self.first_csv = None

    def setup(self):
        from varwass import cli

        self.cfg = cli.load_config(self.config, seed_override=self.seed,
                                   out_override=str(self.out))

    def op(self, index: int, traced: bool):
        out_dir = self.out / f"op{index}"
        spans_file = self.out / f"op{index}.spans.json"
        argv = [sys.executable, str(HERE / "child.py"), "flow", str(self.config),
                str(out_dir), str(self.seed), str(spans_file), str(int(traced))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        spans = []
        if spans_file.exists():
            spans = from_json(json.loads(spans_file.read_text()))
            for s in spans:
                s.op = index
            spans_file.unlink()
        csv = out_dir / "compare.csv"
        data = csv.read_bytes() if csv.exists() else None
        return (proc.returncode, proc.stderr, data), spans

    @staticmethod
    def pieces(seconds: float, spans) -> list[float]:
        return [s.duration for s in spans if s.name == "jko.jko_step"]

    @staticmethod
    def latencies(pieces: list[list[float]]) -> list[float]:
        """Each step's mean over the run's flows, which all repeat the same steps.

        Pooling the flows' steps instead would put the median on whichever
        of the machine's two speeds held more than half of the run.
        """
        return [statistics.fmean(step) for step in zip(*pieces)]

    def check(self, out):
        code, stderr, data = out
        failures = []
        if code != 0:
            failures.append(f"exit code {code}: {stderr.strip()[-200:]}")
        if data is None:
            return failures + ["no compare.csv written"], {}
        lines = data.decode("ascii").splitlines()
        if len(lines) < 3:
            return failures + [f"compare.csv has only {len(lines)} lines"], {}
        if not lines[0].endswith(f"seed={self.seed}"):
            failures.append(f"csv header does not record seed {self.seed}")
        body = lines[2:]
        if len(body) != self.rows:
            failures.append(f"compare.csv has {len(body)} rows, expected {self.rows}")
        final_l1 = float(body[-1].split(",")[2])
        if not final_l1 <= self.cfg.compare_threshold:
            failures.append(f"final L1 {final_l1:.6g} > {self.cfg.compare_threshold}")
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            failures.append("compare.csv bytes differ between runs of one seed")
        return failures, {}


WORKLOADS = {w.name: w for w in (CompareReadme, ExactSteps, ReferenceCurve)}
