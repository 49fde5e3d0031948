"""Unit conversions and the shared parameter types."""

import numpy as np
import pytest

from exciton_eit import CONST, FieldDrive, LadderSystem, energy_to_angular_frequency
from oracles import angular_frequency_to_energy, rabi_frequency

# (meV, rad/s) pairs from the working parameter set; each must agree with
# E/hbar to 0.05%
FREQUENCY_PAIRS = [
    (2150.3, 3.266576e15),
    (20.6714, 3.1402e13),
    (30e-3, 4.5573e10),
    (5e-3, 7.596e9),
]


@pytest.mark.parametrize("mev,rads", FREQUENCY_PAIRS)
def test_parameter_pairs_consistent(mev, rads):
    assert energy_to_angular_frequency(mev) == pytest.approx(rads, rel=5e-4)


def test_reference_conversions():
    assert energy_to_angular_frequency(2150.3) == pytest.approx(3.2666e15, rel=5e-4)
    assert energy_to_angular_frequency(0.005) == pytest.approx(7.596e9, rel=5e-4)
    assert energy_to_angular_frequency(0.0) == 0.0


def test_round_trip_bijection():
    rng = np.random.default_rng(42)
    for e in rng.uniform(1e-6, 1e4, size=200):
        back = angular_frequency_to_energy(energy_to_angular_frequency(e))
        assert abs(back - e) / e < 1e-12


def test_rabi_frequency_definition():
    assert rabi_frequency(0.0, 1e5) == 0.0
    # invert Omega = d eps / hbar for the 25 Grad/s working point
    eps = 1500.0
    d = 25e9 * CONST.hbar / eps
    assert rabi_frequency(d, eps) == pytest.approx(25e9, rel=1e-12)
    assert rabi_frequency(d, 2 * eps) == pytest.approx(2 * rabi_frequency(d, eps))
    with pytest.raises(ValueError):
        rabi_frequency(-1e-30, eps)


def test_ladder_ordering_enforced():
    with pytest.raises(ValueError):
        LadderSystem(omega_ab=1.5e15, omega_ac=3e15, dipole_ab_sq=1e-60,
                     Gamma_ab=0.0, Gamma_ca=0.0, gamma_ab=0.0, gamma_bc=0.0,
                     gamma_ac=0.0, N=1.0)
    with pytest.raises(ValueError):
        LadderSystem(omega_ab=3e15, omega_ac=1.5e15, dipole_ab_sq=1e-60,
                     Gamma_ab=-1.0, Gamma_ca=0.0, gamma_ab=0.0, gamma_bc=0.0,
                     gamma_ac=0.0, N=1.0)


def test_from_frequencies_defaults():
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13,
        gamma_ab=4.5573e10, gamma_bc=7.596e9,
        N=6.2422e25, dipole_ab_sq=0.334e-60)
    # the ladder is held exactly as configured
    assert sys_.omega_ab == 3.266576e15
    assert sys_.omega_ac == 3.1402e13
    assert sys_.dipole_ab_sq == 0.334e-60
    # gamma ~ Gamma/2 rule applied by default
    assert sys_.Gamma_ab == pytest.approx(2 * sys_.gamma_ab)
    assert sys_.Gamma_ca == pytest.approx(2 * sys_.gamma_bc)
    assert sys_.gamma_ac == pytest.approx(sys_.gamma_ab + sys_.gamma_bc)


def test_resonant_drive_has_zero_detuning():
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13,
        gamma_ab=4.5573e10, gamma_bc=7.596e9,
        N=6.2422e25, dipole_ab_sq=0.334e-60)
    drive = FieldDrive.from_detunings(sys_, Omega1=1e6, Omega2=2.5e10)
    assert drive.delta1 == 0.0
    assert drive.delta2 == 0.0
    assert drive.omega1 == sys_.omega_ab
