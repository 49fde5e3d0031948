"""What a fresh process loads: the package root loads none of its modules,
and `validate` and `levels` at equal masses (gamma_aniso = 1) run
without numpy.  Each check starts its own interpreter, with no bytecode
written, as the benchmark's cold launches do."""

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


def test_every_former_root_name_resolves():
    names = ", ".join(ROOT_NAMES)
    assert fresh(f"import exciton_eit; from exciton_eit import {names}; "
                 f"listed = set(exciton_eit.__all__) & set(dir(exciton_eit)); "
                 f"print(sorted(set({ROOT_NAMES!r}) - listed))") == "[]"


def test_unknown_root_name_is_an_attribute_error():
    assert fresh("import exciton_eit; print(hasattr(exciton_eit, 'no_such_name'))") == "False"
