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
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import benchmark as bench
from . import residuals as res
from . import sibling
from .families import FAMILY_KINDS, Family, family_from_name
from .glm import ConvergenceError, Design, design_with_intercept, fit_glm, fit_glms
from .inference import sandwich
from .simulate import (
    NOISE_COEF_SCHEMES, GenerationError, MetricsRecord, SimConfig, correlation, generate,
)


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


# Data rows per block when parsing or writing a panel. Blocks of 128 to
# 512 rows were no faster, and they raised the peak RSS of writing an
# m=50 000 panel by up to 9 MB of allocator heap, not of live objects.
_BLOCK_ROWS = 64


def read_panel(path: str) -> PanelData:
    """Parse a panel CSV; parse errors carry row and column locations.

    Data rows are parsed a block at a time while the file is read, so the
    cells' strings never all sit in memory at once. A cell reads as
    ``float(cell.strip())`` reads it. A wrong cell count anywhere in the
    file is reported before a bad cell.
    """
    meta: dict[str, str] = {}
    header: list[str] | None = None
    blocks: list[np.ndarray] = []
    rows: list[list[str]] = []  # data rows not parsed yet
    parsed = 0  # data rows before ``rows``
    cell_error: PanelFormatError | None = None

    def parse_rows() -> None:
        nonlocal rows, parsed, cell_error
        if cell_error is None:
            try:
                blocks.append(_parse_rows(path, header, rows, parsed))
            except PanelFormatError as exc:
                cell_error = exc
        parsed += len(rows)
        rows = []

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
            if len(rows) == _BLOCK_ROWS:
                parse_rows()
    if rows:
        parse_rows()
    if header is None:
        raise PanelFormatError(f"{path}: no header row found")
    if not parsed:
        raise PanelFormatError(f"{path}: no data rows")
    if cell_error is not None:
        raise cell_error
    data = np.concatenate(blocks)

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
    repeated = [n for j, n in enumerate(header) if n in header[:j]]
    if repeated:
        raise PanelFormatError(f"{path}: column {repeated[0]!r} appears more than once")

    return PanelData(
        x_names=[header[j][2:] for j in x_idx],
        x=data[:, x_idx],
        y_names=[header[j][2:] for j in y_idx],
        y=data[:, y_idx],
        truth={header[j]: data[:, j] for j in t_idx},
        meta=meta,
    )


def _parse_rows(path: str, header: list[str], rows: list[list[str]], first: int) -> np.ndarray:
    """Rows of cells as floats; ``first`` data rows precede them in the file.

    numpy converts each cell with Python's ``float``. Only when that fails
    does the per-cell loop run: it names the first bad cell, or parses a
    block whose cells carry characters that ``str.strip`` removes and
    ``float`` alone rejects, such as ``"\\x1f"``.
    """
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        pass
    data = np.empty((len(rows), len(header)))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                raise PanelFormatError(
                    f"{path}: missing cell at row {first + i + 1}, column {header[j]!r}"
                )
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: bad number {cell!r} at row {first + i + 1}, column {header[j]!r}"
                ) from None
    return data


def _write_table(path: str, meta: dict[str, str], columns: dict) -> None:
    """Write metadata lines, a header and the columns' rows, a block of rows per write.

    Float64 array columns are written with ``%.17g``, which gives the
    same text as ``format(v, ".17g")``; other columns are written as
    ``_fmt`` gives them.
    """
    cols = list(columns.values())
    m = len(cols[0])
    floats = [isinstance(c, np.ndarray) and c.dtype == np.float64 for c in cols]
    row = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, m, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, m)
            cells = [
                c[start:stop].tolist() if f else [_fmt(v) for v in c[start:stop]]
                for c, f in zip(cols, floats)
            ]
            fh.write((row * (stop - start)) % tuple(chain.from_iterable(zip(*cells))))


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


# -- commands ----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
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
    family = _family(args)
    panel = read_panel(args.input)
    p = sibling.Panel(_design_from_file(panel), panel.y, family, _target_index(panel, args.target))
    target = panel.y_names[p.target_index]
    est = sibling.run_estimator(
        p, args.estimator, args.residual, args.step3_with_x, args.noise_strategy
    )

    meta = _meta(args)
    meta["target"] = target
    fit = est.refit
    if fit is not None:
        sw = sandwich(fit, est.refit_design, p.responses[:, p.target_index])
        for name, value, se in zip(est.refit_design.column_names, fit.beta, sw.standard_errors):
            meta[f"coef_{name}"] = _fmt(value)
            meta[f"stderr_{name}"] = _fmt(se)
        meta["converged"] = str(fit.converged).lower()
        meta["iterations"] = str(fit.iterations)
    # the coefficient is the bias target only on the one-covariate design
    # the simulator writes, whose truth_w_x_ lines name it
    w_key = f"truth_w_x_{target}"
    scores = MetricsRecord.score(
        est.signal_hat,
        est.noise_hat,
        float(fit.beta[1]) if fit is not None and len(panel.x_names) == 1 else None,
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
                meta[f"corr_{kind}_{sname}"] = _fmt(correlation(values, proxy))
    _write_table(args.output, meta, columns)
    return 0


def _parse_list(value: str, parse=str) -> list:
    return [parse(v.strip()) for v in value.split(",") if v.strip()]


def build_cells(args: argparse.Namespace) -> list[sibling.CellSpec]:
    q_grid = _parse_list(args.q_grid, int)
    estimators = _parse_list(args.estimator)
    kinds = _parse_list(args.residual)
    for name, values in (("q_grid", q_grid), ("estimator", estimators), ("residual", kinds)):
        if not values:
            raise ValueError(f"{name} must be nonempty")
    for e in estimators:
        if e not in sibling.ESTIMATORS:
            raise ValueError(f"unknown estimator {e!r}")
    for k in kinds:
        if k not in res.RESIDUAL_KINDS:
            raise ValueError(f"unknown residual kind {k!r}")

    cells = []
    for q in q_grid:
        for estimator in estimators:
            cell_kinds = kinds if estimator == sibling.SGLM else [kinds[0]]
            cells.extend(sibling.CellSpec(q, estimator, kind) for kind in cell_kinds)
    return cells


def cmd_benchmark(args: argparse.Namespace) -> int:
    study = bench.Study(
        _family(args), args.m, args.sigma_eps, args.noise_scheme, args.replicates,
        master_seed=args.seed, include_x=args.step3_with_x, strategy=args.noise_strategy,
    )
    cells = build_cells(args)

    started = time.perf_counter()
    results, shared_seconds = bench.run_study(study, cells, args.jobs)
    for cell, result in zip(cells, results):
        print(
            f"cell q={cell.q} estimator={cell.estimator} residual={cell.residual_kind}: "
            f"{result.seconds:.2f}s",
            file=sys.stderr,
        )
    print(f"shared generate and fit: {shared_seconds:.2f}s", file=sys.stderr)
    print(f"benchmark wall clock: {time.perf_counter() - started:.2f}s", file=sys.stderr)

    header = [
        "family", "m", "sigma_eps", "q", "estimator", "residual",
        "metric", "mean", "stderr", "replicates", "status", "note",
    ]
    lines = []
    for cell, result in zip(cells, results):
        prefix = [
            study.family.kind, str(study.m), _fmt(study.sigma_eps), str(cell.q),
            cell.estimator,
            cell.residual_kind if cell.estimator == sibling.SGLM else "-",
        ]
        if result.error is not None:
            lines.append(prefix + ["", "", "", str(study.replicates), "failed", result.error])
            continue
        for metric in bench.METRIC_NAMES:
            lines.append(
                prefix
                + [
                    metric,
                    _fmt(result.mean(metric)),
                    _fmt(result.stderr(metric)),
                    str(study.replicates),
                    "ok",
                    "",
                ]
            )

    meta = _meta(args)
    del meta["jobs"]  # execution detail; bytes must not depend on it
    _write_table(args.output, meta, {n: [row[k] for row in lines] for k, n in enumerate(header)})
    return 0


# -- argument parsing --------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, *groups: str) -> None:
    """Options every command takes, and those of the named shared groups.

    ``input``: an input panel; ``target``: its target series;
    ``simulation``: the simulated panels' settings; ``proxy``: how the
    ``sglm`` noise proxy is built.
    """
    sp.add_argument("--family", choices=FAMILY_KINDS, default="poisson")
    sp.add_argument(
        "--dispersion", type=float, default=1.0, help="variance (gaussian) or shape (gamma)"
    )
    if "input" in groups:
        sp.add_argument("--input", help="input panel CSV")
    sp.add_argument("--output", help="output file path")
    if "target" in groups:
        sp.add_argument("--target", help="y_ column of the target series (default: first)")
    if "simulation" in groups:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--m", type=int, default=120, help="observations per series")
        sp.add_argument("--sigma-eps", dest="sigma_eps", type=float, default=0.1)
        sp.add_argument(
            "--noise-scheme", dest="noise_scheme", choices=NOISE_COEF_SCHEMES, default="uniform"
        )
    if "proxy" in groups:
        sp.add_argument(
            "--noise-strategy", dest="noise_strategy", choices=sibling.NOISE_STRATEGIES,
            default=sibling.REGRESSION,
        )
        sp.add_argument(
            "--step3-with-x", dest="step3_with_x", action="store_true",
            help="condition the residual regressions on the covariates as well",
        )
    sp.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by command name, its subparsers."""
    parser = argparse.ArgumentParser(
        prog="sibglm",
        description="Sibling regression for generalized linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="write a synthetic panel with ground truth")
    _add_common(sp, "simulation")
    sp.add_argument("--q", type=int, default=20, help="number of series (target + auxiliaries)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="fit one GLM to a target series")
    _add_common(sp, "input", "target")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("denoise", help="estimate the denoised series for a target")
    _add_common(sp, "input", "target", "proxy")
    sp.add_argument("--estimator", choices=sibling.ESTIMATORS, default=sibling.SGLM)
    sp.add_argument("--residual", choices=res.RESIDUAL_KINDS, default=res.FISHER)
    sp.set_defaults(func=cmd_denoise)

    sp = sub.add_parser("residuals", help="write all residual kinds for every series")
    _add_common(sp, "input")
    sp.add_argument(
        "--proxy-column", dest="proxy_column",
        help="column to correlate each residual kind with (e.g. truth_noise)",
    )
    sp.set_defaults(func=cmd_residuals)

    sp = sub.add_parser("benchmark", help="replicated sweep over q, estimators, residuals")
    _add_common(sp, "simulation", "proxy")
    sp.add_argument("--q-grid", dest="q_grid", default="2,6,11,21", help="comma-separated q values")
    sp.add_argument("--estimator", default="glm,sglm", help="comma-separated estimators")
    sp.add_argument(
        "--residual", default=res.FISHER, help="comma-separated residual kinds (sglm cells)"
    )
    sp.add_argument("--replicates", type=int, default=100)
    sp.add_argument("--jobs", type=int, default=1, help="processes sharing the replicates")
    sp.set_defaults(func=cmd_benchmark)

    return parser, sub.choices


# errors reported in one line; the typed errors not named here and
# json.JSONDecodeError subclass ValueError
KNOWN_ERRORS = (ValueError, ConvergenceError, GenerationError, OSError)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()[0]
    args = parser.parse_args(argv)
    try:
        if args.config:
            # a config file stands for its flags, written before the command
            # line's, so argparse checks each value as a flag's and a later flag wins
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            config_flags = []
            for key, value in loaded.items():
                if key not in _settings(args):
                    raise ValueError(f"unknown config key {key!r}")
                flag = "--" + key.replace("_", "-")
                if value is True:
                    config_flags.append(flag)
                elif value is not False and value is not None:
                    value = ",".join(map(str, value)) if isinstance(value, list) else value
                    config_flags.append(f"{flag}={value}")
            args = parser.parse_args([argv[0], *config_flags, *argv[1:]])
        paths = [name for name in ("input", "output") if name in vars(args)]
        if not all(getattr(args, name) for name in paths):
            flags = " and ".join(f"--{name}" for name in paths)
            raise ValueError(f"{args.command} requires {flags}")
        return args.func(args)
    except KNOWN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
