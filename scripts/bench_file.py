"""Write BENCH_<pr>.json: every workload's end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 scripts/bench_file.py --pr 7 --seed 1

For each workload that BENCHMARK.json declares, this runs the benchmark
command twice, with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), and writes one JSON file holding both, the status
of each run, the seed, the run length (BENCHMARK.json's ``run_seconds``)
and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last line of standard output is the result."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    print(" ".join(argv), file=sys.stderr, flush=True)
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(spec["command"], name, args.seed, seconds, 0)
        traced = run(spec["command"], name, args.seed, seconds, 1)
        workloads[name] = {
            "runs": {
                f"trace{t}": {k: r[k] for k in ("correct", "attempted", "failed")}
                for t, r in ((0, plain), (1, traced))
            },
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    result = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": seconds,
        "command": spec["command"],
        "machine": machine(),
        "workloads": workloads,
    }
    path = f"BENCH_{args.pr}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
