"""Parameter objects describing the three-level ladder medium and its drive.

The ladder is b (crystal ground state) -> a (upper exciton state) probed on
b-a, with the control beam coupling a-c.  Level ordering is E_a > E_c > E_b.
Both objects are frozen dataclasses; every operation elsewhere treats them
as immutable values, which makes concurrent sweeps safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .constants import CONST


@dataclass(frozen=True)
class LadderSystem:
    """Medium parameters, held as configured.

    Transition frequencies and all rates are in rad/s, the probe dipole
    as |d_ab|^2 in C^2 m^2, the exciton density N in m^-3.  Population
    dampings are twice the coherence rates when built through
    :meth:`from_frequencies`.
    """

    omega_ab: float       # probe transition (E_a - E_b)/hbar
    omega_ac: float       # control transition (E_a - E_c)/hbar
    dipole_ab_sq: float
    Gamma_ab: float
    Gamma_ca: float
    gamma_ab: float
    gamma_bc: float
    gamma_ac: float
    N: float

    def __post_init__(self):
        if not 0 < self.omega_ac < self.omega_ab:
            raise ValueError(
                f"ladder ordering requires 0 < omega_ac < omega_ab, got "
                f"omega_ac={self.omega_ac}, omega_ab={self.omega_ab}"
            )
        for name in ("dipole_ab_sq", "Gamma_ab", "Gamma_ca", "gamma_ab", "gamma_bc",
                     "gamma_ac"):
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
    ) -> "LadderSystem":
        """Build a system from its configured values.

        Population dampings are twice the coherence rates (gamma ~ Gamma/2),
        and gamma_ac defaults to gamma_ab + gamma_bc by the same rule.
        """
        return cls(
            omega_ab=omega_ab,
            omega_ac=omega_ac,
            dipole_ab_sq=dipole_ab_sq,
            Gamma_ab=2.0 * gamma_ab,
            Gamma_ca=2.0 * gamma_bc,
            gamma_ab=gamma_ab,
            gamma_bc=gamma_bc,
            gamma_ac=(gamma_ab + gamma_bc) if gamma_ac is None else gamma_ac,
            N=N,
        )

    @property
    def chi_prefactor(self) -> float:
        """N |d_ab|^2 / (hbar eps0) in rad/s, the susceptibility scale."""
        return self.N * self.dipole_ab_sq / (CONST.hbar * CONST.eps0)


@dataclass(frozen=True)
class FieldDrive:
    """Probe/control field configuration.

    Detunings follow delta = (transition frequency) - (field frequency),
    so a positive delta means the field is red of its transition.  Rabi
    frequencies may be complex.  ``omega1`` is the probe carrier.
    """

    omega1: float
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

        The detunings are stored exactly as given; the probe carrier
        omega1 = omega_ab - delta1 is consistent with them to within one
        rounding of the (much larger) transition frequency.
        """
        return cls(omega1=system.omega_ab - delta1, Omega1=Omega1, Omega2=Omega2,
                   delta1=delta1, delta2=delta2)

    def with_control(self, Omega2: complex) -> "FieldDrive":
        """Copy of this drive with a different control Rabi frequency."""
        return replace(self, Omega2=Omega2)
