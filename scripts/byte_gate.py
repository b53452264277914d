"""Run a fixed grid of CLI calls and write a manifest of what each produced.

Run it once per checkout and compare the two manifests:

    python3 scripts/byte_gate.py --src path/to/base/src --out base.json
    python3 scripts/byte_gate.py --src src --out change.json
    diff base.json change.json

The calls run in this process through ``sibglm.cli.main``, imported from
``--src``. They cover simulate, fit, residuals, denoise and benchmark over
the four families, every estimator, residual kind, noise strategy and
flag, studies with ``--jobs 1`` and ``--jobs 2``, a study with no ``sglm``
cell, study grids whose cells fail, among them one whose cells fail in
different waves of blocks, grids whose replicates have a series with no
first fit or residual, one whose replicates are shared unevenly by
``--jobs 3``, and one in which a stacked group of proxies and of linear
estimates each holds failing and succeeding requests and a residual
matrix stops at a failing series, panels on which IRLS halves its steps
or meets a separated series, a panel whose auxiliaries are exact lines in x,
a Gaussian panel read as Poisson, panels whose covariate is named
``intercept`` or ``noise_hat``, missing-path errors, bad configs, option
values outside their choices or of the wrong type given by flag or by
config, and settings that no panel can have. Every path is relative to a
work directory (``--workdir``, by default a fresh temporary directory)
that holds nothing else, so the manifest does not depend on where it is.
Per call the manifest records the return code, the SHA-256 of each CSV
file the call wrote, with the file's own path removed, the standard
output, and the ``error:`` line of standard error (null when there is
none).
"""

from __future__ import annotations

import os

# One BLAS thread, so sums keep one order and the bytes repeat.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile

import numpy as np

# Written out rather than imported, so every checkout runs the same grid.
FAMILIES = (("gaussian", "1.0"), ("poisson", "1.0"), ("bernoulli", "1.0"), ("gamma", "2.0"))
ESTIMATORS = ("glm", "sglm", "half_sibling", "three_quarter")
RESIDUAL_KINDS = ("fisher", "raw", "student", "deviance")
NOISE_STRATEGIES = ("regression", "mean_of_residuals")
GAMMA_FAILING = [
    "benchmark", "--family", "gamma", "--dispersion", "2.0", "--m", "40", "--sigma-eps", "0.7",
    "--estimator", "glm,sglm,half_sibling", "--replicates", "8", "--seed", "1",
]
# (command, option dest, value outside the option's choices)
BAD_CHOICES = (
    ("benchmark", "noise_strategy", "ridge"),
    ("benchmark", "noise_scheme", "half"),
    ("benchmark", "family", "Poisson"),
    ("denoise", "estimator", "bogus"),
    ("denoise", "residual", "pearson"),
)


def _panel_csv(x: np.ndarray, ys: np.ndarray, covariate: str = "x") -> str:
    """A panel file with covariate ``x`` and series ``s00``, ``s01``, ..."""
    header = ",".join([f"x_{covariate}", *(f"y_s{j:02d}" for j in range(ys.shape[1]))])
    rows = (",".join(repr(float(v)) for v in row) for row in np.column_stack([x, ys]))
    return "\n".join([header, *rows]) + "\n"


def _gamma_halving_panel() -> str:
    """Gamma (shape 2) series whose Newton steps leave the domain and are halved."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 60)
    ys = []
    for s in (0.3, 1.5, 2.5, 4.5):
        mu = -2.0 / (-s - 0.05 + s * x)
        ys.append(rng.gamma(shape=2.0, scale=mu / 2.0))
    return _panel_csv(x, np.column_stack(ys))


def _bernoulli_separated_panel() -> str:
    """Two noisy Bernoulli series and a third, ``s02``, perfectly separated by x."""
    x = np.linspace(-1, 1, 40)
    noisy = (np.random.default_rng(0).random((40, 2)) < 0.5).astype(float)
    return _panel_csv(x, np.column_stack([noisy, x > 0]))


def _gaussian_linear_panel() -> str:
    """A Gaussian target ``1 + 0.5x`` plus noise, and two auxiliaries, ``1 + 2x``
    and ``2 - x``, that are exact lines in x, so their residuals are rounding error."""
    x = np.linspace(-1, 1, 30)
    y = 1 + 0.5 * x + np.random.default_rng(1).normal(0, 0.3, 30)
    return _panel_csv(x, np.column_stack([y, 1 + 2 * x, 2 - x]))


def _poisson_panel(covariate: str) -> str:
    """Three Poisson series of mean ``exp(1 + x)`` whose covariate is named ``covariate``."""
    x = np.linspace(-1, 1, 30)
    ys = np.random.default_rng(2).poisson(np.exp(1 + x)[:, None], (30, 3)).astype(float)
    return _panel_csv(x, ys, covariate)


# Covariate names that other columns of a design take
CLASHING_COVARIATES = ("intercept", "noise_hat")

# Panels on which IRLS halves steps or fails: (file, family flags, series)
HARD_PANELS = (
    ("gamma-halving", ["--family", "gamma", "--dispersion", "2.0"], 4),
    ("bernoulli-separated", ["--family", "bernoulli"], 3),
)

# Files the calls read besides the panels they write themselves.
FILES = {
    "gamma-halving.csv": _gamma_halving_panel(),
    "bernoulli-separated.csv": _bernoulli_separated_panel(),
    "gaussian-linear.csv": _gaussian_linear_panel(),
    **{f"x-{name}.csv": _poisson_panel(name) for name in CLASHING_COVARIATES},
    "paths.json": json.dumps({"input": "poisson.csv", "output": "config-paths.csv"}),
    "output.json": json.dumps({"output": "config-output.csv", "m": 50, "q": 3}),
    "list.json": json.dumps(["m"]),
    "unknown.json": json.dumps({"no_such_option": 1}),
    "broken.json": "{",
    "bad.csv": "x_x,y_a\n1,2\n3,oops\n",
    **{f"bad-{dest}.json": json.dumps({dest: value}) for _, dest, value in BAD_CHOICES},
    "m-float.json": json.dumps({"m": 2.5}),
    "m-true.json": json.dumps({"m": True}),
    "step3-no.json": json.dumps({"step3_with_x": "no"}),
    "sigma-zero.json": json.dumps({"sigma_eps": 0, "seed": 0}),
    "grid-list.json": json.dumps({"q_grid": [2, 3], "step3_with_x": True}),
}


def cases():
    """(name, argv) of every call in the order they run; see ``run_case`` for outputs."""
    for family, dispersion in FAMILIES:
        fam = ["--family", family, "--dispersion", dispersion]
        panel = f"{family}.csv"
        yield family, ["simulate", *fam, "--m", "120", "--q", "6", "--seed", "3"]
        for scheme in ("zero", "one"):
            yield f"{family}-simulate-{scheme}", [
                "simulate", *fam, "--m", "60", "--q", "3", "--seed", "5",
                "--sigma-eps", "0.2", "--noise-scheme", scheme,
            ]
        yield f"{family}-fit", ["fit", *fam, "--input", panel]
        yield f"{family}-fit-target", ["fit", *fam, "--input", panel, "--target", "s02"]
        yield f"{family}-fit-unknown-target", ["fit", *fam, "--input", panel, "--target", "zz"]
        yield f"{family}-residuals", ["residuals", *fam, "--input", panel]
        for column in ("truth_noise", "x_x", "y_s01", "nope"):
            yield f"{family}-residuals-{column}", [
                "residuals", *fam, "--input", panel, "--proxy-column", column,
            ]
        for estimator in ESTIMATORS:
            yield f"{family}-denoise-{estimator}", [
                "denoise", *fam, "--input", panel, "--estimator", estimator,
            ]
            yield f"{family}-denoise-{estimator}-target", [
                "denoise", *fam, "--input", panel, "--estimator", estimator, "--target", "s03",
            ]
        for kind in RESIDUAL_KINDS:
            for strategy in NOISE_STRATEGIES:
                for step3 in ((), ("--step3-with-x",)):
                    yield f"{family}-denoise-{kind}-{strategy}{''.join(step3)}", [
                        "denoise", *fam, "--input", panel, "--residual", kind,
                        "--noise-strategy", strategy, *step3,
                    ]
        study = [
            "benchmark", *fam, "--m", "60", "--q-grid", "2,3,6",
            "--estimator", ",".join(ESTIMATORS), "--residual", ",".join(RESIDUAL_KINDS),
            "--replicates", "3", "--seed", "2",
        ]
        for jobs in ("1", "2"):
            yield f"{family}-benchmark-jobs{jobs}", [*study, "--jobs", jobs]
        yield f"{family}-benchmark-flags", [
            *study, "--step3-with-x", "--noise-strategy", "mean_of_residuals",
            "--noise-scheme", "one", "--sigma-eps", "0.3",
        ]

    # study grids whose cells fail, in the shared step and in a cell's own
    for jobs in ("1", "2", "3"):
        yield f"gamma-failing-jobs{jobs}", [*GAMMA_FAILING, "--q-grid", "2,4,8,16", "--jobs", jobs]
    # a grid run in several waves of blocks whose cells fail in different waves:
    # with seed 4 the 4 blocks of 10 replicates fail the q=16 cells in the
    # second, the q=4 and q=8 cells in the third, and the q=8 ones again in the last
    for jobs in ("1", "2"):
        yield f"gamma-waves-jobs{jobs}", [
            "benchmark", "--family", "gamma", "--dispersion", "2.0", "--m", "400",
            "--sigma-eps", "0.6", "--estimator", "glm,sglm,half_sibling",
            "--q-grid", "2,4,8,16", "--replicates", "40", "--seed", "4", "--jobs", jobs,
        ]
    yield "gamma-all-failing", [
        "benchmark", "--family", "gamma", "--dispersion", "2.0", "--m", "60",
        "--sigma-eps", "5.0", "--q-grid", "2", "--estimator", "glm", "--replicates", "2",
        "--seed", "4",
    ]
    for jobs in ("1", "2"):
        yield f"bernoulli-small-m-jobs{jobs}", [
            "benchmark", "--family", "bernoulli", "--m", "12", "--q-grid", "2,4,8",
            "--estimator", ",".join(ESTIMATORS), "--residual", "fisher,student",
            "--replicates", "6", "--seed", "3", "--jobs", jobs,
        ]
    # a grid whose stacked groups have mixed outcomes: with seed 1 at m=4, some
    # replicates' proxies are rank deficient and others not, and some drop a
    # constant sibling or fail a linear estimator's fit while others do not
    yield "bernoulli-tiny-m-step3-with-x", [
        "benchmark", "--family", "bernoulli", "--m", "4", "--q-grid", "2,3,4,8",
        "--estimator", ",".join(ESTIMATORS), "--residual", ",".join(RESIDUAL_KINDS),
        "--replicates", "6", "--seed", "1", "--step3-with-x",
    ]
    # a grid with no sglm cell
    for jobs in ("1", "2"):
        yield f"linear-only-jobs{jobs}", [
            "benchmark", "--m", "60", "--q-grid", "2,3,6",
            "--estimator", "glm,half_sibling,three_quarter", "--replicates", "5",
            "--seed", "2", "--jobs", jobs,
        ]
    # grids that straddle a series whose first fit or residual fails: with seed 42
    # at m=6, series 4 has no first fit on replicate 1 and series 6 no student
    # residual on replicate 0; with seed 7 at m=12, series 6 has no first fit on
    # replicate 2
    for m, seed in (("6", "42"), ("12", "7")):
        for jobs in ("1", "2"):
            yield f"bernoulli-partway-m{m}-jobs{jobs}", [
                "benchmark", "--family", "bernoulli", "--m", m, "--q-grid", "2,4,7,8",
                "--estimator", ",".join(ESTIMATORS), "--residual", "fisher,student",
                "--replicates", "4", "--seed", seed, "--jobs", jobs,
            ]

    # panels on which IRLS halves steps, or fails on a separated series
    for name, fam, q in HARD_PANELS:
        panel = f"{name}.csv"
        for j in range(q):
            yield f"{name}-fit-s{j:02d}", ["fit", *fam, "--input", panel, "--target", f"s{j:02d}"]
        for estimator in ("glm", "sglm"):
            yield f"{name}-denoise-{estimator}", [
                "denoise", *fam, "--input", panel, "--estimator", estimator,
            ]
        yield f"{name}-residuals", ["residuals", *fam, "--input", panel]

    # auxiliaries with no residual but rounding error: a proxy of rounding
    # error, or one so small that the refit design is rank deficient
    for strategy in NOISE_STRATEGIES:
        yield f"gaussian-linear-denoise-{strategy}", [
            "denoise", "--family", "gaussian", "--input", "gaussian-linear.csv",
            "--noise-strategy", strategy,
        ]

    # a panel outside the family support, and covariates named like other columns
    for command in ("fit", "denoise", "residuals"):
        yield f"poisson-on-gaussian-{command}", [
            command, "--family", "poisson", "--input", "gaussian.csv",
        ]
    for name in CLASHING_COVARIATES:
        for command in ("fit", "denoise"):
            yield f"x-{name}-{command}", [command, "--input", f"x-{name}.csv"]

    # one larger panel through every command
    yield "large", ["simulate", "--m", "3000", "--q", "20", "--seed", "11"]
    for command in ("fit", "denoise", "residuals"):
        yield f"large-{command}", [command, "--input", "large.csv"]

    # paths: missing, or given by a config file
    for command in ("simulate", "benchmark"):
        yield f"{command}-no-output", [command, "--no-output"]
    for command in ("fit", "denoise", "residuals"):
        yield f"{command}-no-paths", [command, "--no-output"]
        yield f"{command}-input-only", [command, "--input", "poisson.csv", "--no-output"]
        yield f"{command}-output-only", [command]
        yield f"{command}-config-paths", [command, "--config", "paths.json", "--no-output"]
    yield "simulate-config-output", ["simulate", "--config", "output.json", "--no-output"]
    yield "missing-input", ["fit", "--input", "missing.csv"]
    yield "bad-panel", ["fit", "--input", "bad.csv"]

    # other errors
    yield "simulate-q1", ["simulate", "--q", "1"]
    yield "config-list", ["simulate", "--config", "list.json"]
    yield "config-unknown-key", ["simulate", "--config", "unknown.json"]
    yield "config-broken", ["simulate", "--config", "broken.json"]
    yield "config-missing", ["simulate", "--config", "missing.json"]
    yield "bad-choice", ["denoise", "--input", "poisson.csv", "--estimator", "nope"]
    yield "bad-int", ["simulate", "--m", "many"]
    yield "benchmark-bad-estimator", ["benchmark", "--estimator", "glm,nope", "--q-grid", "2"]
    yield "benchmark-bad-residual", ["benchmark", "--residual", "nope", "--q-grid", "2"]
    yield "benchmark-bad-grid", ["benchmark", "--q-grid", "1,2"]
    yield "benchmark-empty-list", ["benchmark", "--estimator", ",", "--q-grid", "2"]
    yield "benchmark-jobs0", ["benchmark", "--jobs", "0", "--q-grid", "2"]
    yield "benchmark-replicates0", ["benchmark", "--replicates", "0", "--q-grid", "2"]

    # a bad choice given as a flag, by a config file, and by a config a valid flag overrides
    small = {
        "benchmark": ["benchmark", "--m", "30", "--q-grid", "2", "--replicates", "1"],
        "denoise": ["denoise", "--input", "poisson.csv"],
    }
    for command, dest, value in BAD_CHOICES:
        flag = "--" + dest.replace("_", "-")
        config = ["--config", f"bad-{dest}.json"]
        yield f"{command}-bad-{dest}-flag", [*small[command], flag, value]
        yield f"{command}-bad-{dest}-config", [*small[command], *config]
    yield "denoise-bad-estimator-config-overridden", [
        *small["denoise"], "--config", "bad-estimator.json", "--estimator", "glm",
    ]

    # config values that are not strings: each given as the flags it stands for
    yield "simulate-config-m-float", ["simulate", "--q", "3", "--config", "m-float.json"]
    yield "simulate-config-m-true", ["simulate", "--q", "3", "--config", "m-true.json"]
    yield "benchmark-config-step3-no", [*small["benchmark"], "--config", "step3-no.json"]
    yield "simulate-config-sigma-zero", [
        "simulate", "--m", "30", "--q", "3", "--config", "sigma-zero.json",
    ]
    yield "benchmark-config-grid-list", [
        "benchmark", "--m", "30", "--replicates", "2", "--config", "grid-list.json",
    ]

    # settings no panel can have, and a fixed dispersion given another value
    yield "benchmark-m1", ["benchmark", "--m", "1", "--q-grid", "2"]
    yield "benchmark-negative-sigma-eps", ["benchmark", "--sigma-eps", "-1", "--q-grid", "2"]
    yield "simulate-poisson-dispersion5", [
        "simulate", "--family", "poisson", "--dispersion", "5", "--q", "3",
    ]
    yield "simulate-negative-seed", ["simulate", "--seed", "-1", "--q", "3"]
    yield "benchmark-negative-seed", [*small["benchmark"], "--seed", "-1"]


def _csv_files() -> dict[str, tuple[int, int]]:
    """Modification time and size of each CSV file in the work directory."""
    return {
        entry.name: (entry.stat().st_mtime_ns, entry.stat().st_size)
        for entry in os.scandir(".") if entry.name.endswith(".csv")
    }


def run_case(main, name: str, argv: list[str]) -> dict:
    """Run one call with ``--output <name>.csv``, or with no ``--output`` if ``argv``
    holds ``--no-output``."""
    if "--no-output" in argv:
        argv = [a for a in argv if a != "--no-output"]
    else:
        argv = [*argv, "--output", f"{name}.csv"]
    before = _csv_files()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # a traceback the CLI should not give; record it
            code = f"uncaught {type(exc).__name__}: {exc}"
    digests = {}
    for path, stamp in sorted(_csv_files().items()):
        if before.get(path) != stamp:
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha256(fh.read().replace(path.encode(), b"")).hexdigest()
    errors = [line for line in err.getvalue().splitlines() if "error: " in line]
    return {
        "argv": argv,
        "code": code,
        "outputs": digests,
        "stdout": out.getvalue(),
        "error": errors[-1] if errors else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="manifest JSON to write")
    parser.add_argument("--workdir", help="empty or new directory for the calls' files")
    args = parser.parse_args()

    src = os.path.abspath(args.src)
    out = os.path.abspath(args.out)
    sys.path.insert(0, src)
    import sibglm.cli

    if not os.path.abspath(sibglm.cli.__file__).startswith(src + os.sep):
        parser.error(f"imported sibglm from {sibglm.cli.__file__}, not from {src}")

    with contextlib.ExitStack() as stack:
        workdir = args.workdir or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(workdir, exist_ok=True)
        if os.listdir(workdir):
            parser.error(f"{workdir} is not empty")
        os.chdir(workdir)
        for path, text in FILES.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        manifest = {name: run_case(sibglm.cli.main, name, argv) for name, argv in cases()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = sum(case["code"] != 0 for case in manifest.values())
    print(f"{len(manifest)} calls, {failed} nonzero exits; manifest in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
