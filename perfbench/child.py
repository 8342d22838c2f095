"""Child processes of the benchmark.

``child.py flow <config> <out_dir> <seed> <spans.json> <traced>`` runs
``varwass run`` on the config in this fresh process and exits with the
CLI's exit code. It writes the spans of the run to the spans file: of
every layer when traced is 1, otherwise of the JKO steps alone, whose
start and end are the only clock reads an untraced flow makes.

``child.py setup <workload> <seed>`` imports the package, builds the
workload's inputs and prints the seconds that took as JSON.
"""

import json
import sys
from time import perf_counter

import checkout


def flow(config: str, out_dir: str, seed: str, spans_file: str, traced: str) -> int:
    checkout.use_checkout_src()
    from varwass import cli

    from tracing import Tracer, to_json

    argv = ["run", config, "--out", out_dir, "--seed", seed, "--quiet"]
    with Tracer(None if traced == "1" else ("jko.jko_step",)) as tracer:
        code = cli.main(argv)
    with open(spans_file, "w", encoding="ascii") as fh:
        json.dump(to_json(tracer.spans), fh)
    return code


def setup(workload: str, seed: str) -> int:
    start = perf_counter()
    checkout.use_checkout_src()
    import workloads

    workloads.WORKLOADS[workload](int(seed)).setup()
    print(json.dumps({"setup_s": perf_counter() - start}))
    return 0


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"flow": flow, "setup": setup}[command](*rest))
