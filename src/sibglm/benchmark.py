"""Replicated simulation studies over estimators, residual kinds, and q.

A study runs replicate-major: each replicate draws one panel at the
largest q of the grid and fits every series' GLM once; each cell then
takes the first q series and runs only what depends on q before it is
scored against the ground truth. Replicates run in blocks of
consecutive ones, capped at 2**14 ``sglm`` cells (at least one) x m x
replicates, and the block is the study's only unit of work: processes
take whole blocks, and every cell of every replicate of a block gets its
estimate or error from one ``sibling.estimates`` call, which refits all
the ``sglm`` targets in one IRLS loop and stacks the rest by group: one
proxy computation per q over the block's replicates and residual kinds,
and one linear-estimator computation per q and linear estimator over its
replicates. Blocks run in waves of one per process, and a wave runs
only the cells that have not failed in an earlier one. The shared step
keeps its outcome per series, so a series that cannot be generated,
fitted or turned into residuals fails only the cells that use it, with
the note a run of that cell alone gives. Replicate seeds are derived
from the master seed by replicate index only, so runs at different q (or
with different estimators) see the same draws and comparisons are
paired.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .families import Family
from .glm import fit_glm  # unused; perfbench/tracing.py patches it here
from . import sibling
from .sibling import SGLM, CellSpec, Estimate
from .simulate import GenerationError, MetricsRecord, SimConfig, SimTruth, generate, metrics
from .simulate import replicate_seed, to_panel

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
        # reject what each replicate's SimConfig and each sglm cell would,
        # before any cell runs
        SimConfig(self.family, self.m, 2, self.sigma_eps, self.master_seed, self.noise_scheme)
        sibling._check_strategy(self.strategy)


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


def _shared_replicate(study: Study, cells: list[CellSpec], index: int):
    """Generate replicate ``index`` at the cells' largest q once and fit what they share.

    Returns its truth and its step ``(panel, fits, residuals, error)``: the
    series made before ``error``, the ``GenerationError`` if one cut them
    short, as a panel (None for fewer than two) whose first q series are
    bitwise those ``generate`` gives at that q, and ``sibling._fit_step``'s
    fits and residuals."""
    q = max(c.q for c in cells)
    seed = replicate_seed(study.master_seed, index)
    config = SimConfig(study.family, study.m, q, study.sigma_eps, seed, study.noise_scheme)
    try:
        truth, error = generate(config), None
    except GenerationError as exc:
        truth, error = exc.truth, exc
    if truth.y.shape[1] < 2:
        return truth, (None, {}, {}, error)
    panel = to_panel(truth, study.family)
    return truth, (panel, *sibling._fit_step(panel, cells), error)


def run_cell(truth: SimTruth, estimate: Estimate) -> MetricsRecord:
    """Score one cell's estimate on one replicate against its truth."""
    return metrics(truth, estimate)


# Cap on the sglm cells (at least one) x m x replicates of a block. A block
# makes one refit call, so the cap bounds that call's design stack and the
# replicates held at once; at m=50 000 a block is one replicate.
_BLOCK_ROWS = 2**14


def _blocks(study: Study, cells: list[CellSpec], jobs: int) -> list[range]:
    """The consecutive replicate ranges a study runs in: each within the cap
    or one replicate, as few as that allows rounded up to a multiple of
    ``jobs`` (but not above the replicates), so processes get equal shares."""
    sglm_cells = sum(c.estimator == SGLM for c in cells)
    size = max(1, _BLOCK_ROWS // (max(1, sglm_cells) * study.m))
    count = min(study.replicates, -(-study.replicates // (size * jobs)) * jobs)
    bounds = [study.replicates * i // count for i in range(count + 1)]
    return [range(first, stop) for first, stop in zip(bounds, bounds[1:])]


def _run_block(
    study: Study, cells: list[CellSpec], indices: range
) -> tuple[list[CellResult], float]:
    """Run replicates ``indices`` of every cell: one ``_shared_replicate``
    each, then one ``sibling.estimates`` call for all their cells. Cells
    are scored replicate by replicate by ``run_cell`` and stop at their
    first failure, whose message is the note. Returns each cell's results,
    timed by their scoring, and the time of the shared steps; the steps
    and outcomes are freed on return, before the next block makes its own."""
    results = [
        CellResult(spec, {name: np.empty(len(indices)) for name in METRIC_NAMES})
        for spec in cells
    ]
    started = time.perf_counter()
    shared = [_shared_replicate(study, cells, index) for index in indices]
    pairs = [(spec, step) for _, step in shared for spec in cells]
    outcomes = iter(sibling.estimates(pairs, study.include_x, study.strategy))
    seconds = time.perf_counter() - started
    for row, (truth, _) in enumerate(shared):
        for result, outcome in zip(results, outcomes):
            if result.error is not None:
                continue
            started = time.perf_counter()
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                rec = run_cell(truth, outcome)
                for name in METRIC_NAMES:
                    result.samples[name][row] = getattr(rec, name)
            except Exception as exc:
                result.samples, result.error = {}, f"{type(exc).__name__}: {exc}"
            result.seconds += time.perf_counter() - started
    return results, seconds


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

    Processes take whole blocks (``_blocks``); a block's results depend
    only on its replicates, so they do not depend on ``jobs``. The blocks
    run in waves of one block per process, and a wave runs only the cells
    that have not failed in an earlier one; the study stops when none is
    left. A block draws at the largest q of its cells, and a draw's first
    q series are bitwise those of a draw at a larger q, so its cells keep
    their results. Within a wave, ``_merge`` drops a cell's outcomes after
    its first failure. Returns each cell's result and the total time of
    the shared generate-and-fit steps.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    blocks = _blocks(study, cells, jobs)
    workers = min(jobs, len(blocks))
    cell_parts: list[list[CellResult]] = [[] for _ in cells]
    seconds = 0.0
    pool, run = contextlib.nullcontext(), map
    if workers > 1:
        import concurrent.futures
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        run = pool.map
    with pool:
        for first in range(0, len(blocks), workers):
            live = [i for i, done in enumerate(cell_parts) if all(p.error is None for p in done)]
            if not live:
                break
            wave = blocks[first : first + workers]
            args = ([study] * len(wave), [[cells[i] for i in live]] * len(wave), wave)
            for results, shared in run(_run_block, *args):
                for i, result in zip(live, results):
                    cell_parts[i].append(result)
                seconds += shared
    return [_merge(tuple(done)) for done in cell_parts], seconds
