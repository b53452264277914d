"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload survey_cli --runs 10

For every metric it prints the median and quartiles over the runs, as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Runs are made
one after another with seeds ``--first-seed``, ``--first-seed + 1``, ...
and the run length from BENCHMARK.json unless ``--seconds`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()), flush=True)
        results.append(result)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s, trace={args.trace}")
    print(f"correct: {all(r['correct'] for r in results)}; failed/attempted: "
          + ", ".join(f"{r['failed']}/{r['attempted']}" for r in results))
    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
