"""Physical constants, unit conversions and the float square shared by every
other module.

All frequencies inside the package are angular (rad/s).  Energies are kept
in eV at the boundaries and converted with E/hbar on the way in, so kernels
never mix unit systems.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class PhysicalConstants(NamedTuple):
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


def ev_to_angular_frequency(energy_ev: float) -> float:
    """Convert an energy in eV to an angular frequency in rad/s."""
    return energy_ev * (1e3 * _RADS_PER_MEV)


def _square(v: float) -> float:
    """v * v, correctly rounded, where ``v ** 2`` takes the platform libm's
    pow, which may round it apart; past the float range it raises
    OverflowError, as ``**`` does."""
    w = v * v
    if w == math.inf:
        raise OverflowError("a square leaves floating-point range")
    return w
