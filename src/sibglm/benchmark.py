"""Replicated simulation studies over estimators, residual kinds, and q.

A study runs replicate-major: each replicate draws one panel at the
largest q of the grid and fits every series' GLM once; each cell then
takes the first q series and runs only what depends on q before it is
scored against the ground truth. Replicates run in blocks of
consecutive ones, capped at about 2**14 ``sglm`` cells x m x replicates
(one replicate per block at m=50 000), and the ``sglm`` cells of every
replicate of a block go through one ``sibling.denoise_all`` call, which
refits all their targets in one IRLS loop and returns each cell's
estimate or error. The shared step keeps its outcome per series, so a
series that cannot be generated, fitted or turned into residuals fails
only the cells that use it, with the note a run of that cell alone gives
(``_failure``). Replicate seeds are derived from the master seed by
replicate index only, so runs at different q (or with different
estimators) see the same draws and comparisons are paired.

``_estimate`` is the one place that branches on the estimator, and
``_fit_step`` decides which GLM fits and residuals it needs. A study
cell runs ``_estimate`` on its replicate's step; ``run_estimator``, the
library's entry point that the ``denoise`` command calls, runs it on
the step of its one panel and estimator. The linear sibling
estimators operate on log1p-transformed responses for the Poisson and
Gamma families (the standard count transformation the comparison is
about) and on the raw responses otherwise; they estimate the denoised
series directly, so only MSE and the noise correlation are defined for
them.
"""

from __future__ import annotations

import contextlib
import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .families import GAMMA, POISSON, Family
from .glm import _RANK_DEFICIENT, GlmFit, SingularDesignError, _deficient_designs, _fit_rows
from .glm import _for_series, fit_glm  # fit_glm unused; perfbench/tracing.py patches it here
from . import residuals as res
from . import sibling
from .sibling import Estimate
from .simulate import GenerationError, MetricsRecord, SimConfig, generate, metrics
from .simulate import replicate_seed, to_panel

GLM_ESTIMATOR = "glm"
HALF_SIBLING = "half_sibling"
THREE_QUARTER = "three_quarter"
SGLM = "sglm"

ESTIMATORS = (GLM_ESTIMATOR, HALF_SIBLING, THREE_QUARTER, SGLM)

METRIC_NAMES = ("bias", "mse", "noise_corr")


@dataclass(frozen=True)
class Study:
    """The settings every cell of a study shares.

    ``family``, ``m``, ``sigma_eps`` and ``noise_scheme`` describe the
    simulated panels, ``replicates`` and ``master_seed`` which of them are
    drawn, and ``include_x`` and ``strategy`` how the ``sglm`` cells
    build their noise proxy.
    """

    family: Family
    m: int
    sigma_eps: float = 0.1
    noise_scheme: str = "uniform"
    replicates: int = 100
    master_seed: int = 0
    include_x: bool = False
    strategy: str = sibling.REGRESSION

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        # reject what each replicate's SimConfig would, before any cell runs
        SimConfig(self.family, self.m, 2, self.sigma_eps, self.master_seed, self.noise_scheme)


@dataclass(frozen=True)
class CellSpec:
    """One benchmark cell: a (q, estimator, residual kind) combination."""

    q: int
    estimator: str
    residual_kind: str = res.FISHER


@dataclass
class CellResult:
    spec: CellSpec
    samples: dict[str, np.ndarray] = field(default_factory=dict)
    error: str | None = None
    seconds: float = 0.0

    def mean(self, metric: str) -> float:
        return float(np.mean(self.samples[metric]))

    def stderr(self, metric: str) -> float:
        v = self.samples[metric]
        if len(v) < 2:
            return float("nan")
        return float(np.std(v, ddof=1) / math.sqrt(len(v)))


def working_scale(family: Family, y: np.ndarray) -> np.ndarray:
    """Observation scale the linear sibling estimators operate on."""
    if family.kind in (POISSON, GAMMA):
        return np.log1p(y)
    return y


def _needed(estimators: set[str], q: int, target: int) -> range:
    """The series among the first q whose first fits ``estimators`` need."""
    if SGLM in estimators:
        return range(q)
    return range(target, target + 1) if GLM_ESTIMATOR in estimators else range(0)


def _fit_step(panel: sibling.Panel, cells: list[CellSpec]) -> tuple[dict, dict]:
    """The first fits and residuals the cells need on ``panel``, per series:
    after ``fit_glms``' design check, one ``_fit_rows`` call gives each series
    ``_needed`` names, by index, a ``GlmFit`` or an exception, and each
    ``sglm`` residual kind a matrix of the leading fitted series' columns
    and the exception of the next one, if it raised."""
    rows = _needed({c.estimator for c in cells}, panel.q, panel.target_index)
    if rows and _deficient_designs(panel.design.x):
        raise SingularDesignError(_RANK_DEFICIENT)
    ys = np.ascontiguousarray(panel.responses.T[rows.start : rows.stop])
    fits = dict(zip(rows, _fit_rows(panel.design.x, ys, panel.family))) if rows else {}
    residuals = {}
    for kind in {c.residual_kind for c in cells if c.estimator == SGLM}:
        columns, error = [np.empty((panel.m, 0))], None  # stacks to m x 0 with no column
        for j, fit in fits.items():
            if not isinstance(fit, GlmFit):
                break
            try:
                columns.append(res.compute(kind, fit, panel.responses[:, j], design=panel.design))
            except ValueError as exc:
                error = exc
                break
        residuals[kind] = np.column_stack(columns), error
    return fits, residuals


def _failure(spec: CellSpec, step) -> Exception | None:
    """What fails ``spec`` on a step ``(truth, panel, fits, residuals, error)``,
    in the order its own pipeline meets it: one of its q series not generated
    (``error``), a fit its estimator needs, named as ``fit_glms`` names it (on
    a copy, since one exception serves several cells), a residual of its kind."""
    _, panel, fits, residuals, error = step
    if panel is None or panel.q < spec.q:
        return error
    needed = _needed({spec.estimator}, spec.q, panel.target_index)
    for j in needed:
        if isinstance(fits[j], Exception):
            return _for_series(copy.copy(fits[j]), j, len(needed))
    if spec.estimator == SGLM and residuals[spec.residual_kind][0].shape[1] < spec.q:
        return residuals[spec.residual_kind][1]
    return None


def _request(spec: CellSpec, step):
    """The ``denoise_all`` request of an ``sglm`` cell: its q series and their residuals."""
    _, panel, _, residuals, _ = step
    return _cell_panel(panel, spec.q), residuals[spec.residual_kind][0][:, : spec.q]


def _estimate(spec: CellSpec, step, include_x: bool, strategy: str) -> Estimate:
    """Run ``spec``'s estimator on the first q series of a step, raising its
    ``_failure`` if it has one."""
    outcome = _failure(spec, step)
    if outcome is None and spec.estimator == SGLM:
        (outcome,) = sibling.denoise_all([_request(spec, step)], include_x, strategy)
    if isinstance(outcome, Exception):
        raise outcome
    if outcome is not None:
        return outcome
    _, panel, fits, _, _ = step
    family, t = panel.family, panel.target_index
    if spec.estimator == GLM_ESTIMATOR:
        return Estimate.of_fit(fits[t], panel.design)

    panel = _cell_panel(panel, spec.q)
    ty = working_scale(family, panel.responses)
    aux = np.delete(ty, t, axis=1)
    if spec.estimator == HALF_SIBLING:
        signal_hat = sibling.half_sibling(ty[:, t], aux)
    elif spec.estimator == THREE_QUARTER:
        # the design's intercept is constant, so the estimator drops it
        signal_hat = sibling.three_quarter_sibling(panel.design.x, ty[:, t], aux)
    else:
        raise ValueError(f"unknown estimator {spec.estimator!r}")
    # back from the working scale to the mean
    mu_hat = np.expm1(signal_hat) if family.kind in (POISSON, GAMMA) else signal_hat
    return Estimate(signal_hat, ty[:, t] - signal_hat, mu_hat, None, None)


def run_estimator(
    panel: sibling.Panel,
    estimator: str,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = sibling.REGRESSION,
) -> Estimate:
    """Denoise the panel's target series with one of ``ESTIMATORS``.

    ``residual_kind``, ``include_x`` and ``strategy`` apply to ``sglm``.
    """
    spec = CellSpec(panel.q, estimator, residual_kind)
    return _estimate(spec, (None, panel, *_fit_step(panel, [spec]), None), include_x, strategy)


def _shared_replicate(study: Study, cells: list[CellSpec], index: int):
    """Generate replicate ``index`` at the cells' largest q once and fit what they share.

    Returns the step ``(truth, panel, fits, residuals, error)``: the series
    made before ``error``, the ``GenerationError`` if one cut them short, as
    a panel (None for fewer than two) whose first q series are bitwise those
    ``generate`` gives at that q, and ``_fit_step``'s fits and residuals."""
    q = max(c.q for c in cells)
    seed = replicate_seed(study.master_seed, index)
    config = SimConfig(study.family, study.m, q, study.sigma_eps, seed, study.noise_scheme)
    try:
        truth, error = generate(config), None
    except GenerationError as exc:
        truth, error = exc.truth, exc
    if truth.y.shape[1] < 2:
        return truth, None, {}, {}, error
    panel = to_panel(truth, study.family)
    return (truth, panel, *_fit_step(panel, cells), error)


def _cell_panel(panel: sibling.Panel, q: int) -> sibling.Panel:
    """The panel of a replicate's first ``q`` series."""
    if panel.q == q:
        return panel
    return sibling.Panel(panel.design, panel.responses[:, :q], panel.family)


def run_cell(
    study: Study, spec: CellSpec, shared, estimate: Estimate | None = None
) -> MetricsRecord:
    """Score one cell on one replicate's step (``_shared_replicate``), running
    only what depends on its q, or only the scoring when ``estimate`` is the
    cell's, already made."""
    if estimate is None:
        estimate = _estimate(spec, shared, study.include_x, study.strategy)
    return metrics(shared[0], estimate)


# Cap on the sglm cells x m x replicates of one block of replicates. A
# block makes one refit call, so the cap bounds that call's design stack
# and the replicates held at once; at m=50 000 a block is one replicate.
_BLOCK_ROWS = 2**14


def _block_size(study: Study, cells: list[CellSpec]) -> int:
    """Replicates per block: as many as the cap allows, at least one."""
    rows = sum(c.estimator == SGLM for c in cells) * study.m
    return max(1, _BLOCK_ROWS // rows) if rows else 1


def run_replicates(
    study: Study, cells: list[CellSpec], start: int, stop: int
) -> tuple[list[CellResult], float]:
    """Run replicates ``start`` to ``stop - 1`` of every cell of a study.

    Each replicate is generated, fitted and turned into residuals once
    for all cells, by ``_shared_replicate``, and ``_failure`` gives each
    cell's failure on it, whose message becomes the cell's note. The range
    runs in blocks of consecutive replicates (``_block_size``), and the
    proxies and refits of every live ``sglm`` cell that has not failed on
    a replicate of a block are made in one ``sibling.denoise_all`` call;
    the error it returns for a cell is that cell's note. A cell that
    failed before the block is left out of the call. Cells are scored
    replicate by replicate, in cell order, by ``run_cell``, and a cell
    stops at its first failure, so the outcomes of its later replicates
    in the block are dropped. Returns each cell's results over the range
    and the time of the shared steps, ``sglm`` refits included.
    """
    results = [
        CellResult(spec, {name: np.empty(stop - start) for name in METRIC_NAMES})
        for spec in cells
    ]
    shared_seconds = 0.0
    block = _block_size(study, cells)
    for first in range(start, stop, block):
        indices = range(first, min(first + block, stop))
        started = time.perf_counter()
        shared = {index: _shared_replicate(study, cells, index) for index in indices}
        live = [r.spec for r in results if r.error is None and r.spec.estimator == SGLM]
        # each live sglm cell's failure on each replicate, else its estimate
        outcomes = {(i, c): _failure(c, shared[i]) for i in indices for c in live}
        keys = [key for key, failure in outcomes.items() if failure is None]
        requests = [_request(c, shared[i]) for i, c in keys]
        outcomes.update(zip(keys, sibling.denoise_all(requests, study.include_x, study.strategy)))
        shared_seconds += time.perf_counter() - started
        for index in indices:
            for result in results:
                if result.error is not None:
                    continue
                spec = result.spec
                started = time.perf_counter()
                try:
                    outcome = outcomes.get((index, spec))
                    if isinstance(outcome, Exception):
                        raise outcome
                    rec = run_cell(study, spec, shared[index], outcome)
                    for name in METRIC_NAMES:
                        result.samples[name][index - start] = getattr(rec, name)
                except Exception as exc:
                    result.samples, result.error = {}, f"{type(exc).__name__}: {exc}"
                result.seconds += time.perf_counter() - started
    return results, shared_seconds


def _merge(parts: tuple[CellResult, ...]) -> CellResult:
    """One cell's results over consecutive replicate ranges; the first failure wins."""
    error = next((p.error for p in parts if p.error is not None), None)
    samples = {}
    if error is None:
        samples = {n: np.concatenate([p.samples[n] for p in parts]) for n in METRIC_NAMES}
    return CellResult(parts[0].spec, samples, error, sum(p.seconds for p in parts))


def run_study(
    study: Study, cells: list[CellSpec], jobs: int = 1
) -> tuple[list[CellResult], float]:
    """Run every replicate of every cell, replicate-major, in ``jobs`` processes.

    Each process runs one contiguous range of replicates; replicate seeds
    depend only on the index, so the results do not depend on ``jobs``.
    Returns each cell's result and the total time of the shared
    generate-and-fit steps.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    replicates = study.replicates
    chunks = min(jobs, replicates)
    bounds = [replicates * i // chunks for i in range(chunks + 1)]
    with contextlib.ExitStack() as stack:
        run_all = map
        if chunks > 1:
            import concurrent.futures
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=chunks)
            run_all = stack.enter_context(pool).map
        parts = list(
            run_all(run_replicates, [study] * chunks, [cells] * chunks, bounds[:-1], bounds[1:])
        )
    results = [_merge(cell_parts) for cell_parts in zip(*(part[0] for part in parts))]
    return results, sum(part[1] for part in parts)
