"""What a fresh process loads: the package root loads none of its modules,
each command loads the modules the README's "Cold start" table lists,
and `validate`, `levels` at equal masses (gamma_aniso = 1) and `sweep` at
two-photon resonance run without numpy.  Each check starts its own
interpreter, with no bytecode written, as the benchmark's cold launches
do."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package root imported eagerly before it became lazy
ROOT_NAMES = (
    "CONST", "PhysicalConstants", "angular_frequency_to_energy",
    "energy_to_angular_frequency", "ev_to_angular_frequency", "rabi_frequency",
    "FieldDrive", "LadderSystem",
    "ControlSweep", "EvaluationError", "SpectrumTable", "WindowMetrics", "chi",
    "chi_derivative", "compute_spectrum", "dressed_peaks", "group_index",
    "group_velocity", "locate_absorption_peaks", "sweep_control", "window_metrics",
    "BlochTrajectory", "DensityMatrixState", "SingularSteadyStateError", "bloch_rhs",
    "integrate_bloch", "integrate_linearized", "steady_state_linearized",
    "PropagationParams", "PulseRecord", "gaussian_envelope", "propagate_pulse",
    "LevelModelParams", "LevelRow", "SecularRoots", "anisotropy_eta",
    "dipole_moment_squared", "energy_nlm", "level_table", "mixed_level",
    "solve_secular", "stark_coupling",
    "ConfigError", "ScenarioConfig", "parse_config", "resolved_params_dict",
    "serialize_config",
)


def fresh(code: str) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_submodule():
    assert fresh("import sys, exciton_eit; "
                 "print([m for m in sys.modules if m.startswith('exciton_eit.')])") == "[]"


@pytest.mark.parametrize("command", ["validate", "levels"])
def test_command_at_equal_masses_loads_no_numpy(tmp_path, command):
    assert fresh("import sys; from exciton_eit.cli import main; "
                 f"code = main(['--out', {str(tmp_path)!r}, {command!r}]); "
                 "print(code, 'numpy' in sys.modules)") == "0 False"


# Each kernel the CLI calls is wrapped to record numpy's overflow mode at
# the call: None while numpy is not loaded, "raise" under the CLI's
# errstate.  The wrapper resolves the kernel through the package root, as
# the CLI does, so it loads nothing the command would not.
CENSUS = """
import sys
from exciton_eit import cli

seen = set()

def spy(name):
    def kernel(*args, **kwargs):
        np = sys.modules.get("numpy")
        seen.add(np.geterr()["over"] if np else None)
        return getattr(sys.modules["exciton_eit"], name)(*args, **kwargs)
    return kernel

for name in cli._KERNELS:
    setattr(cli, name, spy(name))
code = cli.main(sys.argv[1:])
print(code, sorted(m.partition(".")[2] for m in sys.modules if m.startswith("exciton_eit.")),
      "numpy" in sys.modules, sorted(seen, key=str))
"""
VALIDATE = ["cli", "config", "constants", "medium", "output"]


@pytest.mark.parametrize("command, text, modules, numpy, seen", [
    ("validate", "", VALIDATE, False, []),
    ("levels", "", sorted(VALIDATE + ["levels"]), False, [None]),
    ("spectrum", "", sorted(VALIDATE + ["susceptibility"]), True, ["raise"]),
    ("sweep", "", sorted(VALIDATE + ["susceptibility"]), False, [None]),
    # off two-photon resonance, or with Omega2 = 0 on the grid, the sweep
    # takes the complex broadcast, under numpy's errstate
    ("sweep", "delta2 = 1 Grad/s", sorted(VALIDATE + ["susceptibility"]), True, ["raise"]),
    ("sweep", "omega2_min = 0 rad/s", sorted(VALIDATE + ["susceptibility"]), True, ["raise"]),
    # past FLOAT_SWEEP_POINTS points the broadcast is the faster
    ("sweep", "omega2_points = 200001", sorted(VALIDATE + ["susceptibility"]), True, ["raise"]),
    # the pulse itself runs with overflow ignored; a non-finite result raises after
    ("propagate", "", sorted(VALIDATE + ["propagation", "susceptibility"]), True,
     ["ignore", "raise"]),
])
def test_cold_command_census(tmp_path, command, text, modules, numpy, seen):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CENSUS, "--config", str(cfg),
                           "--out", str(tmp_path / "run"), command],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == f"0 {modules} {numpy} {seen}"


def test_every_former_root_name_resolves():
    names = ", ".join(ROOT_NAMES)
    assert fresh(f"import exciton_eit; from exciton_eit import {names}; "
                 f"listed = set(exciton_eit.__all__) & set(dir(exciton_eit)); "
                 f"print(sorted(set({ROOT_NAMES!r}) - listed))") == "[]"


def test_unknown_root_name_is_an_attribute_error():
    assert fresh("import exciton_eit; print(hasattr(exciton_eit, 'no_such_name'))") == "False"
