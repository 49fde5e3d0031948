"""EIT and slow light in a Cu2O Rydberg-exciton ladder medium.

Core pieces: the steady-state probe susceptibility and its dispersion
analysis, time-domain density-matrix dynamics, slab pulse propagation,
the anisotropy/field-mixing level model, and a deterministic CLI.
"""

from .constants import (CONST, PhysicalConstants, angular_frequency_to_energy,
                        energy_to_angular_frequency, ev_to_angular_frequency,
                        rabi_frequency)
from .medium import FieldDrive, LadderSystem
from .susceptibility import (ControlSweep, EvaluationError, SpectrumTable,
                             WindowMetrics, chi, chi_derivative,
                             compute_spectrum, dressed_peaks, group_index,
                             group_index_fd, group_velocity,
                             locate_absorption_peaks, sweep_control,
                             window_metrics)
from .bloch import (BlochTrajectory, DensityMatrixState,
                    SingularSteadyStateError, bloch_rhs,
                    integrate_bloch, integrate_linearized,
                    steady_state_linearized)
from .propagation import (PropagationParams, PulseRecord, analytic_envelope,
                          gaussian_envelope, propagate_pulse)
from .levels import (LevelModelParams, LevelRow, SecularRoots, anisotropy_eta,
                     dipole_moment_squared, energy_nlm, level_table,
                     mixed_level, solve_secular, stark_coupling,
                     stark_coupling_integral)
from .config import (ConfigError, ScenarioConfig, parse_config,
                     resolved_params_dict, serialize_config)

__version__ = "0.1.0"
