"""EIT and slow light in a Cu2O Rydberg-exciton ladder medium.

Core pieces: the steady-state probe susceptibility and its dispersion
analysis, time-domain density-matrix dynamics, slab pulse propagation,
the anisotropy/field-mixing level model, and a deterministic CLI.

Importing the package loads none of its modules: each public name below
imports its module on first access (PEP 562), so a command pays only for
the modules it runs.
"""

import importlib

# module -> the public names it defines
_MODULES = {
    "constants": ("CONST", "PhysicalConstants", "energy_to_angular_frequency",
                  "ev_to_angular_frequency"),
    "medium": ("FieldDrive", "LadderSystem"),
    "susceptibility": ("ControlSweep", "EvaluationError", "SpectrumTable",
                       "WindowMetrics", "chi", "compute_spectrum", "dressed_peaks",
                       "group_index", "group_velocity", "locate_absorption_peaks",
                       "sweep_control", "window_metrics"),
    "bloch": ("BlochTrajectory", "DensityMatrixState", "SingularSteadyStateError",
              "integrate_bloch", "integrate_linearized", "steady_state_linearized"),
    "propagation": ("PropagationParams", "PulseRecord", "gaussian_envelope",
                    "propagate_pulse"),
    "levels": ("LevelModelParams", "LevelRow", "SecularRoots", "anisotropy_eta",
               "dipole_moment_squared", "energy_nlm", "level_table", "mixed_level",
               "solve_secular", "stark_coupling"),
    "config": ("ConfigError", "ScenarioConfig", "parse_config",
               "resolved_params_dict", "serialize_config"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
