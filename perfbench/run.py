"""varwass benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Load model: one process, a closed loop with one caller, ops one after
another (compare_readme's ops are fresh child processes, one at a time).
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates traced and untraced passes over a fixed block of ops and
prints the per-layer metrics. The last stdout line is the JSON
result; the environment, every op's timings and the spans go to
.bench_out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import checkout
import tracing

#: Fewest timed blocks (untraced) or passes (traced) a run makes.
MIN_BLOCKS = 3

#: Fewest fresh-process set-ups an untraced run times.
MIN_SETUPS = 9

#: Percentile (nearest rank) that op_ms_tail reports.
TAIL_PCT = 90


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("compare_readme", "exact_steps", "reference_curve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    argv = [sys.executable, str(checkout.ROOT / "perfbench" / "child.py"),
            "setup", workload, str(seed)]
    proc = subprocess.run(argv, cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"benchmark: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Ledger:
    """Every op attempted in the run: latency, failures, trace findings."""

    def __init__(self, wl, error_type):
        self.wl = wl
        self.error_type = error_type
        self.attempted = 0
        self.pieces: list[list[float]] = []
        self.failed: list[tuple[int, list[str]]] = []
        self.trace_errors: list[str] = []

    def run(self, index: int, traced: bool):
        """One op, timed without its checks; returns (seconds, spans, tallies)."""
        start = perf_counter()
        try:
            out, spans = self.wl.op(index, traced)
        except self.error_type as exc:
            seconds = perf_counter() - start
            failures, spans, tallies = [f"raised {type(exc).__name__}: {exc}"], [], {}
        else:
            seconds = perf_counter() - start
            try:
                failures, tallies = self.wl.check(out)
            except self.error_type as exc:
                failures, tallies = [f"check raised {type(exc).__name__}: {exc}"], {}
        self.attempted += 1
        self.pieces.append(self.wl.pieces(seconds, spans))
        if failures:
            self.failed.append((index, failures))
            print(f"op {index} failed: {'; '.join(failures)}", file=sys.stderr)
        return seconds, spans, tallies


def timed_run(ledger: Ledger, seconds: float, probe) -> list[float]:
    """Blocks of fresh ops until the next block would likely overrun; block seconds.

    probe() times one fresh-process set-up. It runs MIN_SETUPS // MIN_BLOCKS
    times before each of the first MIN_BLOCKS blocks and once before each
    later block, so set-up is sampled across the whole run rather than in
    one burst at its start.
    """
    wl, blocks, index = ledger.wl, [], 0
    start = perf_counter()
    while (len(blocks) < MIN_BLOCKS
           or perf_counter() - start + statistics.fmean(blocks) <= seconds):
        for _ in range(MIN_SETUPS // MIN_BLOCKS if len(blocks) < MIN_BLOCKS else 1):
            probe()
        total = 0.0
        for _ in range(wl.block):
            total += ledger.run(index, traced=False)[0]
            index += 1
        blocks.append(total)
    return blocks


def traced_run(ledger: Ledger, seconds: float):
    """Traced and untraced passes over ops 0..block-1, alternating.

    Returns (per-layer metrics of each traced pass, traced pass seconds,
    untraced pass seconds, the spans of every traced op).
    """
    wl = ledger.wl
    layers, secs, all_spans = [], {True: [], False: []}, []
    start = perf_counter()
    n = 0
    while n < MIN_BLOCKS or perf_counter() - start + statistics.median(
            secs[True] + secs[False]) <= seconds:
        traced = n % 2 == 0
        total, op_spans = 0.0, []
        for index in range(wl.block):
            dt, spans, tallies = ledger.run(index, traced)
            total += dt
            if traced:
                op_spans.append(spans)
                ledger.trace_errors += tracing.consistency_errors(spans)
                ledger.trace_errors += tracing.cross_check(spans, tallies)
        secs[traced].append(total)
        if traced:
            layers.append(tracing.layer_metrics(op_spans))
            all_spans += op_spans
        n += 1
    return layers, secs[True], secs[False], all_spans


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank TAIL_PCT percentile."""
    ordered = sorted(latencies)
    rank = -(-TAIL_PCT * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def repeat_errors(layers: list[dict], path, src: str, names) -> list[str]:
    """Counts must agree across traced passes and with an earlier run of this seed."""
    errors = []
    first = layers[0]
    for k, other in enumerate(layers[1:], start=2):
        for name in names:
            if other[name] != first[name]:
                errors.append(f"{name}: traced pass {k} counted {other[name]}, "
                              f"pass 1 counted {first[name]}")
    counts = {name: first[name] for name in names}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["src_sha256"] == src:
            for name in names:
                if earlier["counts"][name] != counts[name]:
                    errors.append(f"{name}: {counts[name]} here, "
                                  f"{earlier['counts'][name]} in an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"src_sha256": src, "counts": counts}))
    return errors


def end_to_end(ledger: Ledger, args) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and how each was taken."""
    setups = []
    blocks = timed_run(ledger, args.seconds,
                       lambda: setups.append(probe_setup(args.workload, args.seed)))
    lat = ledger.wl.latencies(ledger.pieces)
    if not lat:
        sys.exit("benchmark: no op of the run was timed")
    value, beyond = tail(lat)
    metrics = {
        "wall_s": (statistics.fmean(blocks), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_tail": (1e3 * value, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "wall_s": f"mean of {len(blocks)} blocks of {ledger.wl.block} ops",
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "op_ms_p50": f"median of {len(lat)} {ledger.wl.piece}s",
        "op_ms_tail": f"p{TAIL_PCT} of {len(lat)} {ledger.wl.piece}s, {beyond} beyond",
        "setup_probes_s": setups,
    }
    return metrics, notes


def per_layer(ledger: Ledger, args, src: str) -> tuple[dict, dict, list]:
    """Traced run: per-layer metrics, notes, and the spans of every traced op."""
    layers, t_secs, u_secs, spans = traced_run(ledger, args.seconds)
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if isinstance(values[0], int):
            metrics[name] = (values[0], "count")
        else:
            metrics[name] = (statistics.median(values), "s")
    counts = [name for name, (_, unit) in metrics.items() if unit == "count"]
    path = checkout.OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
    ledger.trace_errors += repeat_errors(layers, path, src, counts)
    overhead = statistics.median(t_secs) - statistics.median(u_secs)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"trace.overhead_s": f"{len(t_secs)} traced passes, "
                                 f"{len(u_secs)} untraced, {ledger.wl.block} ops each"}
    return metrics, notes, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.pin_blas_threads()
    checkout.use_checkout_src()
    import workloads
    from varwass.errors import VarwassError

    env = checkout.environment()
    work_dir = checkout.OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    ledger = Ledger(wl, VarwassError)
    warmup_s, warmup_failures = 0.0, []
    if wl.warm_up:
        warmup_s = ledger.run(-1, traced=False)[0]
        ledger.pieces.clear()
        ledger.attempted = 0
        warmup_failures, ledger.failed = ledger.failed, []
    spans = None
    if args.trace:
        metrics, notes, spans = per_layer(ledger, args, env["src_sha256"])
        metrics["warmup_s"] = (warmup_s, "s")
    else:
        metrics, notes = end_to_end(ledger, args)
    shutil.rmtree(work_dir, ignore_errors=True)

    attempted = ledger.attempted
    failed = len(ledger.failed)
    for err in ledger.trace_errors[:20]:
        print(f"trace check: {err}", file=sys.stderr)
    correct = failed == 0 and not warmup_failures and not ledger.trace_errors

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, warm-up {warmup_s:.3f} s")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{note}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, args=vars(args), notes=notes,
                  warmup_s=warmup_s, warmup_failures=warmup_failures,
                  pieces_s=ledger.pieces, failures=ledger.failed,
                  trace_errors=ledger.trace_errors)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = checkout.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record))
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(
            json.dumps([tracing.to_json(s) for s in spans]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
