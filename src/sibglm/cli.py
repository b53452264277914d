"""Command-line front end: panel files, fitting, denoising, benchmarks.

Panel files are UTF-8 CSV with a header row; column names are prefixed
``x_`` (covariates), ``y_`` (response series), or ``truth_`` (optional
ground-truth columns). Lines starting with ``#`` before the header carry
``key = value`` metadata; every command echoes its resolved
configuration into that header. Numbers are serialized with 17
significant digits so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import benchmark as bench
from . import residuals as res
from . import sibling
from .families import FAMILY_KINDS, DomainError, Family, family_from_name
from .glm import (
    ConvergenceError, Design, SingularDesignError, design_with_intercept, fit_glm, fit_glms,
)
from .inference import sandwich
from .simulate import NOISE_COEF_SCHEMES, GenerationError, MetricsRecord, SimConfig, generate


class PanelFormatError(ValueError):
    """A panel file violates the CSV panel format."""


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".17g")
    return str(v)


@dataclass
class PanelData:
    x_names: list[str]
    x: np.ndarray
    y_names: list[str]
    y: np.ndarray
    truth: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.y.shape[0]


def read_panel(path: str) -> PanelData:
    """Parse a panel CSV; parse errors carry row and column locations."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if header is None and "=" in line:
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                continue
            if len(cells) != len(header):
                raise PanelFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            rows.append(cells)
    if header is None:
        raise PanelFormatError(f"{path}: no header row found")
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")

    data = np.empty((len(rows), len(header)))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                raise PanelFormatError(
                    f"{path}: missing cell at row {i + 1}, column {header[j]!r}"
                )
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: bad number {cell!r} at row {i + 1}, column {header[j]!r}"
                ) from None

    x_idx = [j for j, n in enumerate(header) if n.startswith("x_")]
    y_idx = [j for j, n in enumerate(header) if n.startswith("y_")]
    t_idx = [j for j, n in enumerate(header) if n.startswith("truth_")]
    known = set(x_idx) | set(y_idx) | set(t_idx)
    unknown = [header[j] for j in range(len(header)) if j not in known]
    if unknown:
        raise PanelFormatError(
            f"{path}: unknown columns {unknown}; names must start with x_, y_, or truth_"
        )
    if not y_idx:
        raise PanelFormatError(f"{path}: need at least one y_ column")

    return PanelData(
        x_names=[header[j][2:] for j in x_idx],
        x=data[:, x_idx],
        y_names=[header[j][2:] for j in y_idx],
        y=data[:, y_idx],
        truth={header[j]: data[:, j] for j in t_idx},
        meta=meta,
    )


def _write_table(path: str, meta: dict[str, str], columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    m = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {meta[key]}\n")
        fh.write(",".join(names) + "\n")
        for i in range(m):
            fh.write(",".join(_fmt(columns[n][i]) for n in names) + "\n")


# -- configuration plumbing -------------------------------------------


def _series_names(q: int) -> list[str]:
    width = max(2, len(str(q - 1)))
    return [f"s{j:0{width}d}" for j in range(q)]


def _settings(args: argparse.Namespace) -> dict:
    """A command's resolved settings: every option but the parser's own."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}


def _meta(args: argparse.Namespace) -> dict[str, str]:
    meta = {"command": args.command}
    for key, value in _settings(args).items():
        meta[key] = _fmt(value) if value is not None else ""
    return meta


def _family(args: argparse.Namespace) -> Family:
    return family_from_name(args.family, args.dispersion)


def _design_from_file(panel: PanelData) -> Design:
    x = panel.x if panel.x.shape[1] else None
    return design_with_intercept(x, names=panel.x_names, m=panel.m)


def _target_index(panel: PanelData, target: str | None) -> int:
    if target is None:
        return 0
    if target not in panel.y_names:
        raise ValueError(f"unknown target series {target!r}; have {panel.y_names}")
    return panel.y_names.index(target)


def _panel_from_file(panel: PanelData, family: Family, target: str | None) -> sibling.Panel:
    return sibling.Panel(
        design=_design_from_file(panel),
        responses=panel.y,
        family=family,
        target_index=_target_index(panel, target),
    )


# -- commands ----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.output:
        raise ValueError("simulate requires --output")
    truth = generate(
        SimConfig(
            family=_family(args),
            m=args.m,
            q=args.q,
            sigma_eps=args.sigma_eps,
            seed=args.seed,
            noise_coefficient_scheme=args.noise_scheme,
        )
    )
    names = _series_names(args.q)
    columns: dict[str, np.ndarray] = {"x_x": truth.x}
    for j, name in enumerate(names):
        columns[f"y_{name}"] = truth.y[:, j]
    columns["truth_noise"] = truth.noise
    for j, name in enumerate(names):
        columns[f"truth_z_{name}"] = truth.signal[:, j] + truth.theta_shift

    meta = _meta(args)
    meta["truth_theta_shift"] = _fmt(truth.theta_shift)
    for j, name in enumerate(names):
        meta[f"truth_w_x_{name}"] = _fmt(truth.x_coefs[j])
        meta[f"truth_w_n_{name}"] = _fmt(truth.noise_coefs[j])
    _write_table(args.output, meta, columns)
    print(f"seed = {args.seed}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    if not args.input or not args.output:
        raise ValueError("fit requires --input and --output")
    family = _family(args)
    panel = read_panel(args.input)
    design = _design_from_file(panel)
    target_index = _target_index(panel, args.target)
    y1 = panel.y[:, target_index]
    fit = fit_glm(design, y1, family)
    sw = sandwich(fit, design, y1)

    meta = _meta(args)
    meta["target"] = panel.y_names[target_index]
    meta["loglik"] = _fmt(fit.loglik)
    meta["converged"] = str(fit.converged).lower()
    meta["iterations"] = str(fit.iterations)
    columns = {
        "coefficient": np.array(design.column_names, dtype=object),
        "estimate": fit.beta,
        "stderr": sw.standard_errors,
    }
    _write_table(args.output, meta, columns)
    return 0


def cmd_denoise(args: argparse.Namespace) -> int:
    if not args.input or not args.output:
        raise ValueError("denoise requires --input and --output")
    if args.estimator not in bench.ESTIMATORS:
        raise ValueError(f"unknown estimator {args.estimator!r}")
    family = _family(args)
    panel = read_panel(args.input)
    p = _panel_from_file(panel, family, args.target)
    target = panel.y_names[p.target_index]
    est = bench.run_estimator(
        p, args.estimator, args.residual, args.step3_with_x, args.noise_strategy
    )

    meta = _meta(args)
    meta["target"] = target
    if est.fit is not None:
        sw = sandwich(est.fit, est.design, p.responses[:, p.target_index])
        for name, value, se in zip(est.design.column_names, est.fit.beta, sw.standard_errors):
            meta[f"coef_{name}"] = _fmt(value)
            meta[f"stderr_{name}"] = _fmt(se)
        meta["converged"] = str(est.fit.converged).lower()
        meta["iterations"] = str(est.fit.iterations)
    # the coefficient is the bias target only on the one-covariate design
    # the simulator writes, whose truth_w_x_ lines name it
    w_key = f"truth_w_x_{target}"
    scores = MetricsRecord.score(
        est.signal_hat,
        est.noise_hat,
        float(est.fit.beta[1]) if est.fit is not None and len(panel.x_names) == 1 else None,
        panel.truth.get(f"truth_z_{target}"),
        panel.truth.get("truth_noise"),
        float(panel.meta[w_key]) if w_key in panel.meta else None,
    )
    for name, value in asdict(scores).items():
        if not math.isnan(value):
            meta[f"metric_{name}"] = _fmt(value)
    _write_table(
        args.output,
        meta,
        {"noise_hat": est.noise_hat, "signal_hat": est.signal_hat, "mu_hat": est.mu_hat},
    )
    return 0


def cmd_residuals(args: argparse.Namespace) -> int:
    if not args.input or not args.output:
        raise ValueError("residuals requires --input and --output")
    family = _family(args)
    panel = read_panel(args.input)
    design = _design_from_file(panel)

    proxy = None
    if args.proxy_column:
        name = args.proxy_column
        if name in panel.truth:
            proxy = panel.truth[name]
        elif name.startswith("x_") and name[2:] in panel.x_names:
            proxy = panel.x[:, panel.x_names.index(name[2:])]
        elif name.startswith("y_") and name[2:] in panel.y_names:
            proxy = panel.y[:, panel.y_names.index(name[2:])]
        else:
            raise ValueError(f"unknown proxy column {name!r}")

    meta = _meta(args)
    columns: dict[str, np.ndarray] = {}
    fits = fit_glms(design, panel.y, family)
    for j, sname in enumerate(panel.y_names):
        for kind in res.RESIDUAL_KINDS:
            values = res.compute(kind, fits[j], panel.y[:, j], design=design)
            columns[f"{kind}_{sname}"] = values
            if proxy is not None:
                varies = np.std(values) > 0.0 and np.std(proxy) > 0.0
                corr = float(np.corrcoef(values, proxy)[0, 1]) if varies else float("nan")
                meta[f"corr_{kind}_{sname}"] = _fmt(corr)
    _write_table(args.output, meta, columns)
    return 0


def _parse_list(value, parse=str) -> list:
    if isinstance(value, (list, tuple)):
        return [parse(v) for v in value]
    return [parse(v.strip()) for v in str(value).split(",") if v.strip()]


def build_cells(args: argparse.Namespace) -> list[bench.CellSpec]:
    family = _family(args)
    q_grid = _parse_list(args.q_grid, int)
    estimators = _parse_list(args.estimator)
    kinds = _parse_list(args.residual)
    for name, values in (("q_grid", q_grid), ("estimator", estimators), ("residual", kinds)):
        if not values:
            raise ValueError(f"{name} must be nonempty")
    if any(q < 2 for q in q_grid):
        raise ValueError("q_grid entries must be >= 2 (target plus auxiliaries)")
    for e in estimators:
        if e not in bench.ESTIMATORS:
            raise ValueError(f"unknown estimator {e!r}")
    for k in kinds:
        if k not in res.RESIDUAL_KINDS:
            raise ValueError(f"unknown residual kind {k!r}")

    cells = []
    for q in q_grid:
        for estimator in estimators:
            cell_kinds = kinds if estimator == bench.SGLM else [kinds[0]]
            for kind in cell_kinds:
                cells.append(
                    bench.CellSpec(
                        family=family,
                        m=args.m,
                        q=q,
                        estimator=estimator,
                        residual_kind=kind,
                        sigma_eps=args.sigma_eps,
                        include_x=args.step3_with_x,
                        strategy=args.noise_strategy,
                        noise_scheme=args.noise_scheme,
                        replicates=args.replicates,
                        master_seed=args.seed,
                    )
                )
    return cells


def cmd_benchmark(args: argparse.Namespace) -> int:
    if not args.output:
        raise ValueError("benchmark requires --output")
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")
    cells = build_cells(args)

    started = time.perf_counter()
    results = []
    with contextlib.ExitStack() as stack:
        run_all = map
        if args.jobs > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs)
            run_all = stack.enter_context(pool).map
        for cell, result in zip(cells, run_all(bench.run_cell, cells)):
            print(
                f"cell q={cell.q} estimator={cell.estimator} residual={cell.residual_kind}: "
                f"{result.seconds:.2f}s",
                file=sys.stderr,
            )
            results.append(result)
    print(f"benchmark wall clock: {time.perf_counter() - started:.2f}s", file=sys.stderr)

    header = [
        "family", "m", "sigma_eps", "q", "estimator", "residual",
        "metric", "mean", "stderr", "replicates", "status", "note",
    ]
    lines = []
    for cell, result in zip(cells, results):
        prefix = [
            cell.family.kind, str(cell.m), _fmt(cell.sigma_eps), str(cell.q),
            cell.estimator,
            cell.residual_kind if cell.estimator == bench.SGLM else "-",
        ]
        if result.error is not None:
            lines.append(prefix + ["", "", "", str(cell.replicates), "failed", result.error])
            continue
        for metric in bench.METRIC_NAMES:
            lines.append(
                prefix
                + [
                    metric,
                    _fmt(result.mean(metric)),
                    _fmt(result.stderr(metric)),
                    str(cell.replicates),
                    "ok",
                    "",
                ]
            )

    meta = _meta(args)
    del meta["jobs"]  # execution detail; bytes must not depend on it
    _write_table(args.output, meta, {n: [row[k] for row in lines] for k, n in enumerate(header)})
    return 0


# -- argument parsing --------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, *names: str) -> None:
    sp.add_argument("--family", choices=FAMILY_KINDS, default="poisson")
    sp.add_argument(
        "--dispersion", type=float, default=1.0, help="variance (gaussian) or shape (gamma)"
    )
    if "input" in names:
        sp.add_argument("--input", help="input panel CSV")
    sp.add_argument("--output", help="output file path")
    if "seed" in names:
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by command name, its subparsers."""
    parser = argparse.ArgumentParser(
        prog="sibglm",
        description="Sibling regression for generalized linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="write a synthetic panel with ground truth")
    _add_common(sp, "seed")
    sp.add_argument("--m", type=int, default=120, help="observations per series")
    sp.add_argument("--q", type=int, default=20, help="number of series (target + auxiliaries)")
    sp.add_argument("--sigma-eps", dest="sigma_eps", type=float, default=0.1)
    sp.add_argument(
        "--noise-scheme", dest="noise_scheme", choices=NOISE_COEF_SCHEMES, default="uniform"
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="fit one GLM to a target series")
    _add_common(sp, "input")
    sp.add_argument("--target", help="y_ column to fit (default: first)")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("denoise", help="estimate the denoised series for a target")
    _add_common(sp, "input")
    sp.add_argument("--target", help="y_ column to denoise (default: first)")
    sp.add_argument("--estimator", choices=bench.ESTIMATORS, default=bench.SGLM)
    sp.add_argument("--residual", choices=res.RESIDUAL_KINDS, default=res.FISHER)
    sp.add_argument(
        "--noise-strategy", dest="noise_strategy", choices=sibling.NOISE_STRATEGIES,
        default=sibling.REGRESSION,
    )
    sp.add_argument(
        "--step3-with-x", dest="step3_with_x", action="store_true",
        help="condition the residual regressions on the covariates as well",
    )
    sp.set_defaults(func=cmd_denoise)

    sp = sub.add_parser("residuals", help="write all residual kinds for every series")
    _add_common(sp, "input")
    sp.add_argument(
        "--proxy-column", dest="proxy_column",
        help="column to correlate each residual kind with (e.g. truth_noise)",
    )
    sp.set_defaults(func=cmd_residuals)

    sp = sub.add_parser("benchmark", help="replicated sweep over q, estimators, residuals")
    _add_common(sp, "seed")
    sp.add_argument("--m", type=int, default=120)
    sp.add_argument("--sigma-eps", dest="sigma_eps", type=float, default=0.1)
    sp.add_argument("--q-grid", dest="q_grid", default="2,6,11,21", help="comma-separated q values")
    sp.add_argument("--estimator", default="glm,sglm", help="comma-separated estimators")
    sp.add_argument(
        "--residual", default=res.FISHER, help="comma-separated residual kinds (sglm cells)"
    )
    sp.add_argument(
        "--noise-strategy", dest="noise_strategy", choices=sibling.NOISE_STRATEGIES,
        default=sibling.REGRESSION,
    )
    sp.add_argument(
        "--noise-scheme", dest="noise_scheme", choices=NOISE_COEF_SCHEMES, default="uniform"
    )
    sp.add_argument("--step3-with-x", dest="step3_with_x", action="store_true")
    sp.add_argument("--replicates", type=int, default=100)
    sp.add_argument("--jobs", type=int, default=1, help="concurrent benchmark cells")
    sp.set_defaults(func=cmd_benchmark)

    return parser, sub.choices


KNOWN_ERRORS = (
    DomainError,
    SingularDesignError,
    ConvergenceError,
    GenerationError,
    PanelFormatError,
    ValueError,
    OSError,
    json.JSONDecodeError,
)


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config file replaces the defaults of the chosen command,
            # so parsing again lets explicit flags override it
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            settings = _settings(args)
            for key in loaded:
                if key not in settings:
                    raise ValueError(f"unknown config key {key!r}")
            commands[args.command].set_defaults(**loaded)
            args = parser.parse_args(argv)
        return args.func(args)
    except KNOWN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
