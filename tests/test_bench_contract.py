"""What the benchmark's traced runs need from the package.

``bench/launch.py`` rebinds the names in its ``CLI_NAMES`` on
``exciton_eit.cli``, so the CLI must call its kernels through those
attributes, and reads each writer's first positional argument as the
output path.  ``bench/warm.py`` traces the warm workloads, where it
reads ``LinearizedTrajectory.nfev``, ``PropagationParams.z_steps`` and
``sweep_control(threads=2)``, and calls
``integrate_bloch(t_eval=np.linspace(0, T, 101))``.  These tests fail when
a rename, a signature change, a deleted field or a narrowed input rule
would break those traced runs, or when the pulse-warm pulse leaves the
real FFT route it is meant to time.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exciton_eit import cli

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "bench" / "launch.py"
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))   # bench/ is scripts, not a package


def cli_names():
    tree = ast.parse(LAUNCH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_NAMES":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/launch.py defines no CLI_NAMES")


def test_every_traced_name_is_a_cli_attribute():
    names = cli_names()
    assert "write_csv" in names and "write_json" in names
    for name in names:
        assert callable(getattr(cli, name, None)), name


# the kernel spans each command's traced launch records, with their counts;
# the CLI imports its kernels lazily, and a runner that bypassed the rebound
# module attribute would record none
KERNEL_SPANS = {
    "spectrum": {"susceptibility.compute_spectrum": 4},
    "sweep": {"susceptibility.sweep_control": 1},
    "levels": {"levels.level_table": 1},
    "propagate": {"susceptibility.window_metrics": 1, "propagation.propagate_pulse": 1},
}


@pytest.mark.parametrize("command", sorted(KERNEL_SPANS))
def test_traced_launch_records_the_writer_spans(tmp_path, command):
    spans_file = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), str(spans_file),
         "--format", "both", "--out", str(tmp_path / "out"), command],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"]
    for writer in ("output.write_csv", "output.write_json"):
        written = [s["counts"]["output.bytes"] for s in spans if s["name"] == writer]
        assert written and min(written) > 0, writer
    names = [s["name"] for s in spans]
    for kernel, calls in KERNEL_SPANS[command].items():
        assert names.count(kernel) == calls, kernel


@pytest.mark.parametrize("workload, counter", [("study-warm", "bloch.linearized_nfev"),
                                               ("pulse-warm", "propagation.cells")])
def test_traced_warm_operation_passes_its_checks(workload, counter):
    import scenarios
    import warm

    op, check = warm.WORKLOADS[workload]
    traced = warm.Traced(workload)
    seconds, failures = traced.attempt(op, check, scenarios.warmup(workload), 0)
    assert failures == [] and seconds > 0
    counts = [s["counts"][counter] for s in traced.tracer.spans if counter in s["counts"]]
    assert counts and min(counts) > 0, counter


def test_pulse_warm_takes_one_real_fft_pair(monkeypatch):
    # every pulse-warm draw is a real Gaussian at resonant drive, the route
    # that takes one rfft/irfft pair; a detour through the complex pair
    # would change what the workload measures
    import scenarios
    import warm

    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    warm.pulse(warm.package_api(), scenarios.warmup("pulse-warm"))
    assert calls == ["rfft", "irfft"]
