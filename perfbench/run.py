"""Benchmark for sibglm: three workloads timed in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 30 --trace 0

Each workload runs in this one process: the CLI is called in-process
through ``sibglm.cli.main(argv)``, so interpreter start-up is paid once
and measured apart, as ``setup_s``, by starting fresh interpreters that
import the CLI and do the workload's set-up. A run repeats whole rounds
of the workload's operations until ``--seconds`` have passed and reports
medians over the rounds. With ``--trace 1`` it alternates untraced and
traced rounds and reports per-layer metrics instead (see tracing.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import os

# One thread in every numeric library: the workloads stay within the
# machine's cores and reductions keep a fixed order, so counts repeat.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes

# Fix glibc's mmap threshold at its default of 128 KiB. Left dynamic, it
# rises after the first large free, and the peak RSS of one and the same
# round of the four commands at m=50 000 read 195 or 248 MB, depending on
# the order of earlier frees.
try:
    ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # -3 is M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

SETUP_PROBES = 5
OUT_DIR = os.path.join("perfbench", "out")
SIGMA_EPS = 0.1


@dataclass(frozen=True)
class Study:
    """Flags of one ``sibglm benchmark`` command."""

    m: int
    q_grid: tuple[int, ...]
    estimators: tuple[str, ...]
    kinds: tuple[str, ...]
    replicates: int

    @property
    def cells(self) -> int:
        per_q = sum(len(self.kinds) if e == "sglm" else 1 for e in self.estimators)
        return per_q * len(self.q_grid)


@dataclass(frozen=True)
class Workload:
    """A family, the panel shape the four commands run on, and an optional study."""

    family: str
    dispersion: float
    m: int
    q: int
    study: Study | None


Q_GRID = (2, 6, 11, 21)
WORKLOADS = {
    # The paper's study; IRLS dominates it.
    "paper_study": Workload(
        "poisson", 1.0, 120, 21,
        Study(120, Q_GRID, ("glm", "sglm"), ("fisher",), 10),
    ),
    # The field user at survey scale; panel I/O dominates it.
    "survey_cli": Workload("poisson", 1.0, 10_000, 20, None),
    # The same layers used differently: Gamma domain checks, every
    # residual kind (studentized refactors the weighted design), and the
    # linear sibling estimators.
    "gamma_kinds": Workload(
        "gamma", 2.0, 400, 21,
        Study(400, Q_GRID, ("glm", "sglm", "half_sibling", "three_quarter"),
              ("fisher", "raw", "student", "deviance"), 5),
    ),
}
COMMANDS = ("simulate", "fit", "denoise", "residuals")


def operations(w: Workload, seed: int, work: str, warmup: bool = False) -> list[tuple[str, list[str]]]:
    """The argv of every CLI call in one round, in order.

    The warm-up round runs the same calls on a small input so that lazy
    set-up inside the libraries is done before timing starts.
    """
    fam = ["--family", w.family, "--dispersion", repr(w.dispersion)]
    panel = os.path.join(work, "panel.csv")
    m = min(w.m, 1000) if warmup else w.m
    ops = []
    if w.study is not None:
        s = w.study
        ops.append(("benchmark", ["benchmark", *fam, "--m", str(s.m),
                                  "--q-grid", ",".join(map(str, s.q_grid)),
                                  "--estimator", ",".join(s.estimators),
                                  "--residual", ",".join(s.kinds),
                                  "--sigma-eps", repr(SIGMA_EPS),
                                  "--replicates", "1" if warmup else str(s.replicates),
                                  "--seed", str(seed), "--jobs", "1",
                                  "--output", os.path.join(work, "study.csv")]))
    ops += [
        ("simulate", ["simulate", *fam, "--m", str(m), "--q", str(w.q),
                      "--sigma-eps", repr(SIGMA_EPS), "--seed", str(seed), "--output", panel]),
        ("fit", ["fit", *fam, "--input", panel, "--output", os.path.join(work, "fit.csv")]),
        ("denoise", ["denoise", *fam, "--input", panel,
                     "--output", os.path.join(work, "denoised.csv")]),
        ("residuals", ["residuals", *fam, "--input", panel, "--proxy-column", "truth_noise",
                       "--output", os.path.join(work, "residuals.csv")]),
    ]
    return ops


class Runner:
    """Runs rounds of CLI calls in-process and keeps per-operation times."""

    def __init__(self, w: Workload, ops):
        import sibglm.cli

        self.main = sibglm.cli.main
        self.w = w
        self.ops = ops
        self.times: dict[str, list[float]] = {name: [] for name, _ in ops}
        self.attempted = 0
        self.failed = 0
        self.last_ok: dict[str, bool] = {}
        self.errors: list[str] = []

    def _call(self, argv) -> tuple[float, object, str]:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.main(argv)
            except Exception as exc:  # an operation that raises counts as failed
                rc = exc
        return time.perf_counter() - t0, rc, sink.getvalue()

    def round(self) -> None:
        for name, argv in self.ops:
            dt, rc, log = self._call(argv)
            self.times[name].append(dt)
            ok = rc == 0
            if name == "benchmark":
                cells = self.w.study.cells
                failed = cells if not ok else _failed_cells(argv[-1])
                self.attempted += cells
                self.failed += failed
                ok = failed == 0
            else:
                self.attempted += 1
                self.failed += not ok
            if not ok and len(self.errors) < 5:
                self.errors.append(f"{name}: {rc!r} {log.strip()[-300:]}")
            self.last_ok[name] = ok


def _failed_cells(path: str) -> int:
    cells = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and ",failed," in line:
                cells.add(tuple(line.split(",")[:6]))
    return len(cells)


def work_dir(name: str, probe: bool) -> str:
    return os.path.join(OUT_DIR, f"work-{name}" + ("-probe" if probe else ""))


def prepare(name: str, seed: int, probe: bool = False) -> Runner:
    """The workload's set-up: work directory and one warm-up round.

    Set-up probes get a directory of their own, so they never overwrite
    the outputs of the measured rounds.
    """
    w = WORKLOADS[name]
    work = work_dir(name, probe)
    os.makedirs(work, exist_ok=True)
    Runner(w, operations(w, seed, work, warmup=True)).round()
    return Runner(w, operations(w, seed, work))


def setup_probe(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the CLI and prepares the workload."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--probe",
            "--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def check_outputs(runner: Runner, seed: int) -> list[str]:
    """Run every output check on the last round; return the failures."""
    import checks
    from sibglm.families import family_from_name

    w = runner.w
    argv_of = dict(runner.ops)
    panel = argv_of["simulate"][-1]
    k = w.dispersion
    jobs = [
        ("simulate", lambda: checks.check_simulate(panel, w.family, w.m, w.q)),
        ("fit", lambda: checks.check_fit(argv_of["fit"][-1], panel, w.family, k)),
        ("denoise", lambda: checks.check_denoise(argv_of["denoise"][-1], panel, w.family, k)),
        ("residuals", lambda: checks.check_residuals(argv_of["residuals"][-1], panel, w.family, k)),
    ]
    if w.study is not None:
        s, fam = w.study, family_from_name(w.family, w.dispersion)
        jobs.append(("benchmark", lambda: checks.check_study(
            argv_of["benchmark"][-1], fam, s.m, SIGMA_EPS, s.q_grid, s.replicates, seed)))
        jobs.append(("benchmark", lambda: checks.check_sglm(
            fam, s.m, SIGMA_EPS, s.q_grid, s.kinds, seed)))
    problems = []
    for op, job in jobs:
        if not runner.last_ok.get(op, False):
            continue  # a failed operation is counted in `failed`, not checked
        try:
            job()
        except checks.CheckError as exc:
            problems.append(f"{op}: {exc}")
    return problems


def end_to_end(runner: Runner, setup: list[float], rss_mb: float) -> dict[str, tuple[float, str]]:
    t = runner.times
    if runner.w.study is not None:
        panels = runner.w.study.cells * runner.w.study.replicates
        rate = statistics.median(panels / s for s in t["benchmark"])
    else:
        # One panel goes through all four commands in a round.
        rate = 1.0 / sum(statistics.median(t[c]) for c in COMMANDS)
    out = {"setup_s": (statistics.median(setup), "s"), "panels_per_s": (rate, "1/s")}
    for c in COMMANDS:
        out[f"{c}_s"] = (statistics.median(t[c]), "s")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sibglm", "cli.py")):
        print("error: run from the root of a sibglm checkout (src/sibglm not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    if args.probe:
        prepare(args.workload, args.seed, probe=True)
        return 0

    runner = prepare(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import LAYER_METRICS, Tracer

        tracer = Tracer()
    # Rounds run until --seconds of rounds have been measured. Set-up
    # probes are spread over the run, outside the measured time, so that
    # their median does not rest on one stretch of machine speed.
    setup, untraced, traced = [], [], []
    measured = 0.0
    while True:
        due = 0 if args.trace else min(SETUP_PROBES, 1 + int(SETUP_PROBES * measured / args.seconds))
        while len(setup) < due:
            setup.append(setup_probe(args.workload, args.seed))
        t0 = time.perf_counter()
        runner.round()
        untraced.append(time.perf_counter() - t0)
        if tracer is not None:
            traced.append(tracer.run_round(runner.round))
        measured += untraced[-1] + (traced[-1] if traced else 0.0)
        if measured >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed))

    problems = check_outputs(runner, args.seed)
    if tracer is not None:
        if not tracer.counts_repeat():
            problems.append("trace: layer counts differ between identical rounds")
        metrics = {n: (v, LAYER_METRICS[n]) for n, v in tracer.layer_metrics().items()}
        metrics["trace.round_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(runner, setup, rss_mb)
    for probe in (False, True):
        shutil.rmtree(work_dir(args.workload, probe), ignore_errors=True)

    for line in runner.errors + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    rounds = len(untraced) + len(traced)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"attempted={runner.attempted} failed={runner.failed} correct={not problems}")
    for n, (v, u) in metrics.items():
        print(f"  {n:26s} {v:14.6g} {u}")
    text = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
