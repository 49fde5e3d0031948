"""What a fresh process loads: the package root loads none of its modules,
each command loads the modules the README's "Cold start" table lists,
and `validate`, `levels` at equal masses (gamma_aniso = 1), and
`spectrum`, `sweep` and `propagate` at default sizes run without numpy,
at any drive, as the window kernels do.
Each check starts its own interpreter, with no bytecode written, as the
benchmark's cold launches do."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package root imported eagerly before it became lazy, but
# the test-only functions since moved to tests/oracles.py
ROOT_NAMES = (
    "CONST", "PhysicalConstants", "energy_to_angular_frequency", "ev_to_angular_frequency",
    "FieldDrive", "LadderSystem",
    "ControlSweep", "EvaluationError", "SpectrumTable", "WindowMetrics", "chi",
    "compute_spectrum", "dressed_peaks", "group_index", "group_velocity",
    "locate_absorption_peaks", "sweep_control", "window_metrics",
    "BlochTrajectory", "DensityMatrixState", "SingularSteadyStateError",
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
# the call: None while numpy is not loaded, and numpy's default "warn"
# once it is, since each kernel keeps its own fault policy and the CLI
# arms no errstate.  The wrapper resolves the kernel through the package
# root, as the CLI does, so it loads nothing the command would not.  The
# last column is whether `dataclasses` was loaded: of the CLI's modules
# only `propagation` keeps dataclass records, so only `propagate` loads
# it, numpy or not (numpy loads `inspect` but not `dataclasses`).
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
      "numpy" in sys.modules, sorted(seen, key=str), "dataclasses" in sys.modules)
"""
VALIDATE = ["cli", "config", "constants", "medium", "output"]


@pytest.mark.parametrize("command, text, modules, numpy, seen", [
    ("validate", "", VALIDATE, False, []),
    ("levels", "", sorted(VALIDATE + ["levels"]), False, [None]),
    ("spectrum", "", sorted(VALIDATE + ["susceptibility"]), False, [None]),
    ("sweep", "", sorted(VALIDATE + ["susceptibility"]), False, [None]),
    # the window center's real form runs in floats at any delta2, and the
    # bare line takes it where Omega2 = 0
    ("sweep", "delta2 = 1 Grad/s", sorted(VALIDATE + ["susceptibility"]), False, [None]),
    ("sweep", "omega2_min = 0 rad/s", sorted(VALIDATE + ["susceptibility"]), False, [None]),
    # past FLOAT_POINTS points the broadcast is the faster
    ("sweep", "omega2_points = 200001", sorted(VALIDATE + ["susceptibility"]), True, ["warn"]),
    ("propagate", "", sorted(VALIDATE + ["propagation", "susceptibility"]), False, [None]),
    # a spectrum of more than FLOAT_POINTS values in all (four tables of
    # 25001 here) takes numpy, as a longer sweep does
    ("spectrum", "omega_points = 25001", sorted(VALIDATE + ["susceptibility"]), True,
     ["warn"]),
    # past the FFT limit (t_steps 9000 pads to 18432) the pulse takes numpy,
    # loaded after the window metrics, at two-photon resonance in floats
    ("propagate", "t_steps = 9000", sorted(VALIDATE + ["propagation", "susceptibility"]),
     True, [None, "warn"]),
    # off two-photon resonance the window's polynomials are rooted in floats,
    # and the pulse runs in floats too
    ("propagate", "delta2 = 1 Grad/s", sorted(VALIDATE + ["propagation", "susceptibility"]),
     False, [None]),
])
def test_cold_command_census(tmp_path, command, text, modules, numpy, seen):
    # a fresh process prints numpy's RuntimeWarnings to stderr, where the
    # in-process tests' warning filter makes them errors: there are none
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CENSUS, "--config", str(cfg),
                           "--out", str(tmp_path / "run"), command],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    dataclasses = command == "propagate"   # for `propagation`'s records alone
    assert proc.stdout.strip().splitlines()[-1] == f"0 {modules} {numpy} {seen} {dataclasses}"


def test_detuned_window_and_peaks_load_no_numpy():
    # off two-photon resonance both kernels root their polynomials in floats
    assert fresh("import sys; from exciton_eit.config import ScenarioConfig; "
                 "from exciton_eit.susceptibility import window_metrics, "
                 "locate_absorption_peaks; "
                 "cfg = ScenarioConfig(delta2=1e9); s = cfg.build_system(); "
                 "d = cfg.build_drive(s); w = window_metrics(s, d); "
                 "p = locate_absorption_peaks(s, d); "
                 "print(w.width > 0, len(p), 'numpy' in sys.modules)") == "True 2 False"


def test_every_former_root_name_resolves():
    names = ", ".join(ROOT_NAMES)
    assert fresh(f"import exciton_eit; from exciton_eit import {names}; "
                 f"listed = set(exciton_eit.__all__) & set(dir(exciton_eit)); "
                 f"print(sorted(set({ROOT_NAMES!r}) - listed))") == "[]"


def test_unknown_root_name_is_an_attribute_error():
    assert fresh("import exciton_eit; print(hasattr(exciton_eit, 'no_such_name'))") == "False"
