"""Parameter objects describing the three-level ladder medium and its drive.

The ladder is b (crystal ground state) -> a (upper exciton state) probed on
b-a, with the control beam coupling a-c.  Level ordering is E_a > E_c > E_b.
Both objects are frozen dataclasses; every operation elsewhere treats them
as immutable values, which makes concurrent sweeps safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONST, ev_to_angular_frequency


@dataclass(frozen=True)
class LadderSystem:
    """Medium parameters: level energies, probe dipole, dampings, density.

    Energies are in eV, the dipole moment in C m, all rates in rad/s, the
    exciton density N in m^-3.  Coherence dampings default to half the
    population dampings when built through :meth:`from_frequencies`.
    """

    E_a: float
    E_b: float
    E_c: float
    d_ab: float
    Gamma_ab: float
    Gamma_ca: float
    gamma_ab: float
    gamma_bc: float
    gamma_ac: float
    N: float

    def __post_init__(self):
        if not (self.E_a > self.E_c > self.E_b):
            raise ValueError(
                f"ladder ordering requires E_a > E_c > E_b, got "
                f"E_a={self.E_a}, E_c={self.E_c}, E_b={self.E_b}"
            )
        for name in ("Gamma_ab", "Gamma_ca", "gamma_ab", "gamma_bc", "gamma_ac"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # N = 0 is the vacuum limit used by the propagation identity checks
        if self.N < 0:
            raise ValueError("exciton density N must be non-negative")

    @classmethod
    def from_frequencies(
        cls,
        omega_ab: float,
        omega_ac: float,
        gamma_ab: float,
        gamma_bc: float,
        N: float,
        dipole_ab_sq: float,
        gamma_ac: float | None = None,
        Gamma_ab: float | None = None,
        Gamma_ca: float | None = None,
        E_b: float = 0.0,
    ) -> "LadderSystem":
        """Build a system from transition frequencies (rad/s).

        ``dipole_ab_sq`` is |d_ab|^2 in C^2 m^2, matching the raw config
        value.  Population dampings default to twice the coherence rates
        (gamma ~ Gamma/2) and gamma_ac to gamma_ab + gamma_bc, consistent
        with the same rule; both can be overridden.
        """
        ev = CONST.hbar / CONST.e_charge  # eV per (rad/s)
        E_a = E_b + omega_ab * ev
        E_c = E_a - omega_ac * ev
        return cls(
            E_a=E_a,
            E_b=E_b,
            E_c=E_c,
            d_ab=math.sqrt(dipole_ab_sq),
            Gamma_ab=2.0 * gamma_ab if Gamma_ab is None else Gamma_ab,
            Gamma_ca=2.0 * gamma_bc if Gamma_ca is None else Gamma_ca,
            gamma_ab=gamma_ab,
            gamma_bc=gamma_bc,
            gamma_ac=(gamma_ab + gamma_bc) if gamma_ac is None else gamma_ac,
            N=N,
        )

    @property
    def omega_ab(self) -> float:
        """Probe transition angular frequency (E_a - E_b)/hbar in rad/s."""
        return ev_to_angular_frequency(self.E_a - self.E_b)

    @property
    def omega_ac(self) -> float:
        """Control transition angular frequency (E_a - E_c)/hbar in rad/s."""
        return ev_to_angular_frequency(self.E_a - self.E_c)

    @property
    def chi_prefactor(self) -> float:
        """N |d_ab|^2 / (hbar eps0) in rad/s, the susceptibility scale."""
        return self.N * self.d_ab**2 / (CONST.hbar * CONST.eps0)


@dataclass(frozen=True)
class FieldDrive:
    """Probe/control field configuration.

    Detunings follow delta = (transition frequency) - (field frequency),
    so a positive delta means the field is red of its transition.  Rabi
    frequencies may be complex.
    """

    omega1: float
    omega2: float
    k1: float
    k2: float
    Omega1: complex
    Omega2: complex
    delta1: float
    delta2: float

    @classmethod
    def from_detunings(
        cls,
        system: LadderSystem,
        Omega1: complex,
        Omega2: complex,
        delta1: float = 0.0,
        delta2: float = 0.0,
    ) -> "FieldDrive":
        """Drive a given system at the stated detunings (rad/s).

        The detunings are stored exactly as given; the carrier frequencies
        omega = transition - detuning are consistent with them to within
        one rounding of the (much larger) transition frequency.
        """
        omega1 = system.omega_ab - delta1
        omega2 = system.omega_ac - delta2
        return cls(
            omega1=omega1,
            omega2=omega2,
            k1=omega1 / CONST.c,
            k2=omega2 / CONST.c,
            Omega1=Omega1,
            Omega2=Omega2,
            delta1=delta1,
            delta2=delta2,
        )

    def with_control(self, Omega2: complex) -> "FieldDrive":
        """Copy of this drive with a different control Rabi frequency."""
        return FieldDrive(omega1=self.omega1, omega2=self.omega2, k1=self.k1, k2=self.k2,
                          Omega1=self.Omega1, Omega2=Omega2,
                          delta1=self.delta1, delta2=self.delta2)

