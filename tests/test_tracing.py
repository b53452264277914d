"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` patches functions at the names their callers
look up; a renamed or removed name makes ``install`` fail. One traced
round of every command shows each wrapper is installed, reached, and
removed again.
"""

import importlib.util
import os

import sibglm.cli
import sibglm.glm

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    tracer = _load_tracing().Tracer()
    panel = str(tmp_path / "panel.csv")
    calls = [
        ["simulate", "--m", "60", "--q", "3", "--seed", "1", "--output", panel],
        ["fit", "--input", panel, "--output", str(tmp_path / "fit.csv")],
        ["denoise", "--input", panel, "--output", str(tmp_path / "den.csv")],
        ["residuals", "--input", panel, "--output", str(tmp_path / "res.csv")],
        ["benchmark", "--m", "60", "--q-grid", "2", "--replicates", "1",
         "--output", str(tmp_path / "bm.csv")],
    ]
    codes = []
    tracer.run_round(lambda: codes.extend(sibglm.cli.main(argv) for argv in calls))
    assert codes == [0] * len(calls)

    counts = tracer.rounds[0][0]
    for key in ("simulate.generate_calls", "glm.fit_calls", "residuals.compute_calls",
                "benchmark.cells", "families.checks", "cli.read_bytes", "cli.write_bytes"):
        assert counts[key] > 0, key
    assert sibglm.cli.fit_glm is sibglm.glm.fit_glm
    assert not hasattr(sibglm.cli.cmd_fit, "__wrapped__")
