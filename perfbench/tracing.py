"""Per-layer spans and counts recorded from outside the package.

The tracer wraps public functions of ``sibglm`` at the names their
callers look up, so nothing under ``src/`` changes. A span records its
name, start, end and parent; counts are recorded at the same
boundaries. Spans stay in memory until the run writes them out.
Wrappers are installed only around traced rounds and removed after, so
untraced rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter

import sibglm.benchmark
import sibglm.cli
import sibglm.glm
import sibglm.residuals
import sibglm.sibling
import sibglm.simulate
from sibglm.families import Family

CLI_COMMANDS = ("simulate", "fit", "denoise", "residuals")

# Public Family methods; the domain and support checks are counted apart
# because IRLS re-runs them inside every step.
FAMILY_METHODS = (
    "in_domain", "check_domain", "check_support", "log_partition", "mean",
    "fisher_info", "response_variance", "theta_from_mean", "unit_deviance",
    "log_pdf", "sample",
)
FAMILY_CHECKS = ("in_domain", "check_domain", "check_support")

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "simulate.generate_s": "s",
    "simulate.generate_calls": "count",
    "simulate.score_s": "s",
    "glm.fit_s": "s",
    "glm.fit_calls": "count",
    "glm.irls_iterations": "count",
    "families.calls": "count",
    "families.checks": "count",
    "residuals.compute_s": "s",
    "residuals.compute_calls": "count",
    "sibling.self_s": "s",
    "sibling.linear_s": "s",
    "inference.sandwich_s": "s",
    "cli.read_s": "s",
    "cli.read_bytes": "B",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "benchmark.self_s": "s",
    "benchmark.cells": "count",
}


class Tracer:
    """Records spans and counts while installed; one round at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.rounds: list[tuple[Counter, dict[str, float]]] = []
        self._stack: list[int] = []
        self._counts = Counter()
        self._round = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self._round])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count(self, keys, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                self._counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _after_fit(self, args, fit):
        self._counts["glm.fit_calls"] += 1
        self._counts["glm.irls_iterations"] += fit.iterations

    def _after_read(self, args, panel):
        self._counts["cli.read_bytes"] += os.path.getsize(args[0])

    def _after_command(self, args, rc):
        path = getattr(args[0], "output", None)
        if rc == 0 and path and os.path.exists(path):
            self._counts["cli.write_bytes"] += os.path.getsize(path)

    def install(self) -> None:
        """Wrap every layer boundary at the names its callers use."""
        fit = sibglm.glm.fit_glm
        gen = sibglm.simulate.generate
        for module in (sibglm.benchmark, sibglm.sibling, sibglm.cli):
            self._patch(module, "fit_glm", self._span("glm.fit_glm", fit, self._after_fit))
        for module in (sibglm.benchmark, sibglm.cli):
            self._patch(
                module, "generate",
                self._span("simulate.generate", self._count(["simulate.generate_calls"], gen)),
            )
        self._patch(sibglm.benchmark, "metrics",
                    self._span("simulate.metrics", sibglm.benchmark.metrics))
        self._patch(sibglm.benchmark, "run_cell",
                    self._count(["benchmark.cells"], sibglm.benchmark.run_cell))
        self._patch(sibglm.residuals, "compute",
                    self._span("residuals.compute",
                               self._count(["residuals.compute_calls"], sibglm.residuals.compute)))
        self._patch(sibglm.sibling, "sglm_denoise",
                    self._span("sibling.sglm_denoise", sibglm.sibling.sglm_denoise))
        for attr in ("half_sibling", "three_quarter_sibling"):
            self._patch(sibglm.sibling, attr,
                        self._span("sibling.linear", getattr(sibglm.sibling, attr)))
        self._patch(sibglm.cli, "sandwich",
                    self._span("inference.sandwich", sibglm.cli.sandwich))
        self._patch(sibglm.cli, "read_panel",
                    self._span("cli.read_panel", sibglm.cli.read_panel, self._after_read))
        for command in CLI_COMMANDS:
            attr = f"cmd_{command}"
            self._patch(sibglm.cli, attr,
                        self._span(f"cli.{command}", getattr(sibglm.cli, attr), self._after_command))
        self._patch(sibglm.cli, "cmd_benchmark",
                    self._span("benchmark", sibglm.cli.cmd_benchmark, self._after_command))
        for method in FAMILY_METHODS:
            keys = ["families.calls"] + (["families.checks"] if method in FAMILY_CHECKS else [])
            self._patch(Family, method, self._count(keys, getattr(Family, method)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- rounds ----------------------------------------------------------

    def run_round(self, body) -> float:
        """Run ``body`` traced; returns its wall time and keeps its layer totals."""
        self._counts = Counter()
        first = len(self.spans)
        self.install()
        try:
            t0 = time.perf_counter()
            body()
            wall = time.perf_counter() - t0
        finally:
            self.uninstall()
        self.rounds.append((self._counts, self._layer_times(first)))
        self._round += 1
        return wall

    def _layer_times(self, first: int) -> dict[str, float]:
        """Inclusive time per span name and self time per span name.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly because the workload is single-threaded.
        """
        inclusive = Counter()
        self_time = Counter()
        covered = Counter()
        for idx in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[idx]
            inclusive[name] += end - start
            if parent >= first:
                covered[parent] += end - start
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            self_time[name] += (end - start) - covered[idx]
        return {
            "simulate.generate_s": inclusive["simulate.generate"],
            "simulate.score_s": inclusive["simulate.metrics"],
            "glm.fit_s": inclusive["glm.fit_glm"],
            "residuals.compute_s": inclusive["residuals.compute"],
            "sibling.self_s": self_time["sibling.sglm_denoise"],
            "sibling.linear_s": inclusive["sibling.linear"],
            "inference.sandwich_s": inclusive["inference.sandwich"],
            "cli.read_s": inclusive["cli.read_panel"],
            "cli.write_s": sum(self_time[f"cli.{c}"] for c in CLI_COMMANDS),
            "benchmark.self_s": self_time["benchmark"],
        }

    def counts_repeat(self) -> bool:
        """True when every traced round recorded exactly the same counts."""
        return all(c == self.rounds[0][0] for c, _ in self.rounds)

    def layer_metrics(self) -> dict[str, float]:
        """Counts of the first traced round and median times over traced rounds."""
        counts = self.rounds[0][0]
        out = {}
        for name, unit in LAYER_METRICS.items():
            if unit == "s":
                out[name] = statistics.median(times[name] for _, times in self.rounds)
            else:
                out[name] = counts[name]
        return out

    def write(self, path: str) -> None:
        """Write every span and each round's counts as JSON lines."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "round": rnd,
                }) + "\n")
            for rnd, (counts, times) in enumerate(self.rounds):
                fh.write(json.dumps({"round": rnd, "counts": dict(counts), "times": times}) + "\n")

