"""Write BENCH_<pr>.json: every workload's end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 scripts/bench_file.py --pr 7 --seed 1

For each workload that BENCHMARK.json declares, this runs the benchmark
command twice, with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), and writes one JSON file holding both, the status
of each run, the seed, the run length (BENCHMARK.json's ``run_seconds``)
and the machine. Two one-shot blocks that no workload gates sit beside
them: ``tier1``, the wall time and outcome counts of one Tier-1 run, and
``scale``, the time of each of ``simulate``, ``fit``, ``denoise`` and
``residuals`` on one Poisson panel at m=50 000, q=20, with the peak RSS
of the fresh interpreter that ran them and the time its ``import
sibglm.cli`` took (``import_s``, numpy's import included).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy as np


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last line of standard output is the result."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    print(" ".join(argv), file=sys.stderr, flush=True)
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ROADMAP's Tier-1 command, run with ``src`` first on PYTHONPATH
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1() -> dict:
    """One run of the Tier-1 suite on ``src``: wall time and the counts of
    pytest's summary line (``passed``, ``failed``, ...)."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, *TIER1]
    print(" ".join(argv), file=sys.stderr, flush=True)
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - started
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"command": TIER1, "returncode": done.returncode, "wall_s": seconds, "counts": counts}


# The scale shape, and one round of its four commands, run in-process by a
# fresh interpreter (one BLAS thread, glibc's mmap threshold fixed as the
# benchmark fixes it) so that its peak RSS is that round's alone.
SCALE = {"family": "poisson", "m": 50_000, "q": 20, "sigma_eps": 0.1}
SCALE_ROUND = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import ctypes, json, resource, time
try:
    ctypes.CDLL(None).mallopt(-3, 128 * 1024)
except (OSError, AttributeError):
    pass
sys.path.insert(0, "src")
started = time.perf_counter()
import sibglm.cli
out = {"import_s": time.perf_counter() - started}

work, family, m, q, sigma_eps, seed = sys.argv[1:]
panel = os.path.join(work, "panel.csv")
fam = ["--family", family]
calls = {
    "simulate": ["simulate", *fam, "--m", m, "--q", q, "--sigma-eps", sigma_eps,
                 "--seed", seed, "--output", panel],
    "fit": ["fit", *fam, "--input", panel, "--output", os.path.join(work, "fit.csv")],
    "denoise": ["denoise", *fam, "--input", panel, "--output", os.path.join(work, "den.csv")],
    "residuals": ["residuals", *fam, "--input", panel, "--proxy-column", "truth_noise",
                  "--output", os.path.join(work, "res.csv")],
}
for name, argv in calls.items():
    started = time.perf_counter()
    rc = sibglm.cli.main(argv)
    out[name + "_s"] = time.perf_counter() - started
    out[name + "_rc"] = rc
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
"""


def scale(seed: int) -> dict:
    """One round of the four commands at the scale shape (``SCALE``): the
    time of the interpreter's ``import sibglm.cli``, the wall time and
    return code of each command, and the round's peak RSS."""
    with tempfile.TemporaryDirectory() as work:
        argv = [sys.executable, "-c", SCALE_ROUND, work,
                *(str(SCALE[k]) for k in ("family", "m", "q", "sigma_eps")), str(seed)]
        print(f"scale round: {SCALE}", file=sys.stderr, flush=True)
        done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return {**SCALE, "seed": seed, **json.loads(done.stdout.strip().splitlines()[-1])}


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
        "tier1": tier1(),
        "scale": scale(args.seed),
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
