"""Physical constants and the unit conversions shared by every other module.

All frequencies inside the package are angular (rad/s).  Energies are kept
in eV at the boundaries and converted with E/hbar on the way in, so kernels
never mix unit systems.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-style constants, immutable after construction."""

    hbar: float = 1.054571817e-34      # J s
    eps0: float = 8.8541878128e-12     # F / m
    c: float = 299792458.0             # m / s
    e_charge: float = 1.602176634e-19  # C


CONST = PhysicalConstants()

# rad/s per meV
_RADS_PER_MEV = 1e-3 * CONST.e_charge / CONST.hbar


def energy_to_angular_frequency(energy_mev: float) -> float:
    """Convert an energy in meV to an angular frequency in rad/s (E/hbar)."""
    return energy_mev * _RADS_PER_MEV


def angular_frequency_to_energy(omega: float) -> float:
    """Inverse of :func:`energy_to_angular_frequency`; rad/s to meV."""
    return omega / _RADS_PER_MEV


def ev_to_angular_frequency(energy_ev: float) -> float:
    """Convert an energy in eV to an angular frequency in rad/s."""
    return energy_ev * (1e3 * _RADS_PER_MEV)


def rabi_frequency(dipole_moment: float, field_amplitude: float) -> float:
    """Rabi rate d*eps/hbar in rad/s.

    Parameters
    ----------
    dipole_moment : float
        Transition dipole moment in C m, must be >= 0.
    field_amplitude : float
        Electric field amplitude in V/m.
    """
    if dipole_moment < 0:
        raise ValueError("dipole moment must be non-negative")
    return dipole_moment * field_amplitude / CONST.hbar
