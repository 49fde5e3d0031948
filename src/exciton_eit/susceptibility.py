"""Steady-state linear response of the ladder medium to a weak probe.

The central object is the complex susceptibility

    chi(w) = -(N |d_ab|^2 / (hbar eps0))
             / [ (w - delta1 + i gamma_ab)
                 - |Omega2|^2 / (w - delta1 + delta2 + i gamma_bc) ]

where w is the probe spectral offset from its carrier.  With this sign
convention Im chi > 0 means absorption.  The transparency window sits at
two-photon resonance, w = delta1 - delta2.

Derivatives are taken analytically (quotient rule on the rational
response); the finite-difference group index the tests check them
against is in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .medium import FieldDrive, LadderSystem


class EvaluationError(ArithmeticError):
    """Raised when a result has no finite value: the response evaluated
    exactly on a pole, or a time evolution that overflows."""


def _response(omega, om2_sq, system: LadderSystem, drive: FieldDrive,
              derivative: bool = False):
    """chi, or d chi/d omega, at offsets ``omega`` broadcast against |Omega2|^2.

    Written in product form: with P = one * inner - |Omega2|^2,
    chi = -pref inner / P and chi' = pref (inner^2 + |Omega2|^2) / P^2.
    Nothing divides by the inner denominator, so with gamma_bc = 0 chi
    and chi' reach their two-photon limits, 0 and pref/|Omega2|^2, with no
    overflow however close to resonance.  Without control inner is taken
    as 1, which leaves the bare line.
    """
    pref = system.chi_prefactor
    one = omega - drive.delta1 + 1j * system.gamma_ab
    inner = np.where(om2_sq == 0, 1.0,
                     omega - drive.delta1 + drive.delta2 + 1j * system.gamma_bc)
    p = one * inner - om2_sq
    if np.any(p == 0):
        raise EvaluationError("susceptibility evaluated exactly on a pole")
    if derivative:
        return pref * (inner * inner + om2_sq) / (p * p)
    return -pref * inner / p


def chi(omega, system: LadderSystem, drive: FieldDrive):
    """Complex susceptibility at probe offset ``omega`` (rad/s).

    Accepts a scalar or an array.  When gamma_bc = 0 the value exactly at
    two-photon resonance is taken as its analytic limit (0 for a nonzero
    control field).  An exact pole, reachable only with all dampings zero,
    raises :class:`EvaluationError` rather than returning an infinity.
    """
    x = _response(np.asarray(omega, dtype=float), abs(drive.Omega2) ** 2, system, drive)
    return complex(x) if x.ndim == 0 else x


def chi_derivative(omega, system: LadderSystem, drive: FieldDrive):
    """Analytic d chi / d omega at probe offset ``omega`` (units s)."""
    dx = _response(np.asarray(omega, dtype=float), abs(drive.Omega2) ** 2, system, drive,
                   derivative=True)
    return complex(dx) if dx.ndim == 0 else dx


def group_index(omega, system: LadderSystem, drive: FieldDrive):
    """Group index n_g = 1 + (omega1/2) d Re(chi)/d omega."""
    return 1.0 + 0.5 * drive.omega1 * np.real(chi_derivative(omega, system, drive))


def group_velocity(omega, system: LadderSystem, drive: FieldDrive):
    """Group velocity c / (1 + Re(chi)/2 + (omega1/2) d Re(chi)/d omega).

    Negative values (anomalous dispersion) are returned as-is.
    """
    denom = (1.0 + 0.5 * np.real(chi(omega, system, drive))
             + 0.5 * drive.omega1 * np.real(chi_derivative(omega, system, drive)))
    if np.any(np.asarray(denom) == 0):
        raise EvaluationError("group velocity denominator vanished")
    return CONST.c / denom


@dataclass
class SpectrumTable:
    """Sampled (omega, chi', chi'', n_g) records."""

    omega_grid: np.ndarray
    chi_re: np.ndarray
    chi_im: np.ndarray
    n_g: np.ndarray

    def __post_init__(self):
        n = len(self.omega_grid)
        if not (len(self.chi_re) == len(self.chi_im) == len(self.n_g) == n):
            raise ValueError("spectrum arrays must share one length")
        if n > 1 and not np.all(np.diff(self.omega_grid) > 0):
            raise ValueError("omega grid must be strictly increasing")
        if n and np.max(np.abs(self.chi_im)) > 0:
            floor = -1e-12 * np.max(np.abs(self.chi_im))
            if np.min(self.chi_im) < floor:
                raise ValueError("spectrum shows spurious gain (Im chi < 0)")


def compute_spectrum(system: LadderSystem, drive: FieldDrive, omega_grid) -> SpectrumTable:
    """Evaluate chi and n_g over a strictly increasing offset grid."""
    w = np.asarray(omega_grid, dtype=float)
    x = chi(w, system, drive)
    return SpectrumTable(
        omega_grid=w,
        chi_re=x.real,
        chi_im=x.imag,
        n_g=np.asarray(group_index(w, system, drive)),
    )


@dataclass(frozen=True)
class WindowMetrics:
    """Transparency-window figures of merit at two-photon resonance."""

    center_abs: float       # Im chi at the window center
    width: float            # span where Im chi < half of the bare peak, rad/s
    ng_center: float        # group index at the center
    slope: float            # d Re(chi)/d omega at the center, s


def _im_chi_fraction(system: LadderSystem, drive: FieldDrive):
    """(s, N, D) with Im chi(center + s x) = (pref / s) N(x) / D(x).

    With the resonance factors divided by s, a + x and b + x with
    a = (i gamma_ab - delta2)/s and b = i gamma_bc/s, and
    P = (a + x)(b + x) - |Omega2|^2/s^2, N = -Im((b + x) conj P) and
    D = |P|^2 are real polynomials in x (ascending coefficients) of degree
    2 and 4, written out term by term; s = max(gamma_ab, |Omega2|) keeps
    their coefficients of order one.
    """
    s = max(system.gamma_ab, abs(drive.Omega2))
    a = (1j * system.gamma_ab - drive.delta2) / s
    b = 1j * system.gamma_bc / s
    p0 = a * b - abs(drive.Omega2) ** 2 / s**2
    p1 = a + b
    c0, c1 = p0.conjugate(), p1.conjugate()
    numer = np.array([-(b * c0).imag, -(b * c1 + c0).imag, -(b + c1).imag])
    den = np.array([(p0 * c0).real, (p0 * c1 + p1 * c0).real,
                    (p0 + p1 * c1 + c0).real, (p1 + c1).real, 1.0])
    return s, numer, den


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Sorted real roots of a real polynomial (ascending coefficients).

    Trailing zero coefficients are trimmed; the roots are then the
    eigenvalues of the companion matrix that numpy's ``polyroots`` builds,
    rotated by 180 degrees, which makes the window edges about a third
    more accurate.
    """
    n = len(coef) - 1
    while n > 0 and coef[n] == 0:
        n -= 1
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.array([-coef[0] / coef[1]])
    mat = np.zeros((n, n))
    mat.reshape(-1)[n::n + 1] = 1.0
    mat[:, -1] -= coef[:n] / coef[n]
    r = np.linalg.eigvals(mat[::-1, ::-1])
    return np.sort(r.real[r.imag == 0])


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of a polynomial (ascending)."""
    return coef[1:] * np.arange(1, len(coef))


def window_metrics(system: LadderSystem, drive: FieldDrive) -> WindowMetrics:
    """Locate the transparency window around two-photon resonance.

    The window edges are where Im chi crosses half of the bare (control
    off) Lorentzian peak N|d|^2/(hbar eps0 gamma_ab).  The crossings are
    the real roots of a quartic (see ``_im_chi_fraction``), and each edge
    is the one nearest the center on its side; a root at the center itself
    (the dip floor on the half level) closes the window.  With the control
    off, or while the dip floor still sits above the half level, the
    window is reported absent (width 0).  An edge farther than max(10 gamma_ab,
    4 |Omega2|) from the center, or missing, is capped at that span.
    gamma_ab = 0 raises :class:`EvaluationError`.
    """
    if system.gamma_ab == 0:
        raise EvaluationError("window metrics need gamma_ab > 0: at gamma_ab = 0 "
                              "the bare peak, and so the half level, is infinite")
    pref = system.chi_prefactor
    center = drive.delta1 - drive.delta2
    half = 0.5 * pref / system.gamma_ab
    om2_sq = abs(drive.Omega2) ** 2
    # _response at the center, in numpy scalars, whose complex division
    # rounds as the array loop does (Python's does not); with gamma_ab > 0
    # the center is no pole
    one = np.complex128(center - drive.delta1 + 1j * system.gamma_ab)
    inner = np.complex128(center - drive.delta1 + drive.delta2 + 1j * system.gamma_bc
                          if om2_sq != 0 else 1.0)
    p = one * inner - om2_sq
    center_abs = float((-pref * inner / p).imag)
    slope = float((pref * (inner * inner + om2_sq) / (p * p)).real)
    ng_center = 1.0 + 0.5 * drive.omega1 * slope

    if abs(drive.Omega2) == 0.0 or center_abs >= half:
        return WindowMetrics(center_abs=center_abs, width=0.0,
                             ng_center=ng_center, slope=slope)

    s, numer, den = _im_chi_fraction(system, drive)
    span = max(10.0 * system.gamma_ab, 4.0 * abs(drive.Omega2))
    edges = _real_roots(np.concatenate((numer, [0.0, 0.0]))
                        - 0.5 * s / system.gamma_ab * den)
    right = min(s * np.min(edges[edges >= 0], initial=np.inf), span)
    left = min(-s * np.max(edges[edges <= 0], initial=-np.inf), span)
    return WindowMetrics(center_abs=center_abs, width=float(right + left),
                         ng_center=ng_center, slope=slope)


def dressed_peaks(system: LadderSystem, drive: FieldDrive) -> tuple[float, float]:
    """Predicted absorption-maximum offsets for a resonant control field.

    Valid only at control resonance (delta2 = 0), where the dressed pair
    splits the bare line by +-|Omega2| about the probe resonance.
    """
    if drive.delta2 != 0.0:
        raise ValueError("dressed-state prediction requires delta2 = 0")
    om2 = abs(drive.Omega2)
    return (drive.delta1 - om2, drive.delta1 + om2)


def locate_absorption_peaks(system: LadderSystem,
                            drive: FieldDrive) -> tuple[float, ...]:
    """Offsets of the maxima of Im chi, sorted ascending.

    The extrema of Im chi = (pref / s) N / D are the real roots of
    N' D - N D'; the maxima are those where that polynomial falls through
    zero.  One entry when the doublet has merged into a single line.
    """
    s, numer, den = _im_chi_fraction(system, drive)
    slope = (np.convolve(_derivative(numer), den)
             - np.convolve(numer, _derivative(den)))
    x = _real_roots(slope)
    maxima = x[np.polyval(_derivative(slope)[::-1], x) < 0]   # Horner
    center = drive.delta1 - drive.delta2
    return tuple(float(center + s * v) for v in maxima)


@dataclass
class ControlSweep:
    """Window-center response across a control-field grid."""

    omega2_grid: np.ndarray
    ng_center: np.ndarray
    chi_im_center: np.ndarray
    argmax_omega2: float
    ng_max: float


def sweep_control(system: LadderSystem, drive: FieldDrive, omega2_grid,
                  threads: int = 1) -> ControlSweep:
    """Evaluate n_g and Im chi at the window center across an Omega2 grid.

    The whole grid is one broadcast of the rational response; ``threads``
    is accepted and has no effect.
    """
    om2 = np.asarray(omega2_grid, dtype=float)
    if om2.size == 0:
        raise ValueError("omega2 grid must be non-empty")
    if om2.size > 1 and not np.all(np.diff(om2) > 0):
        raise ValueError("omega2 grid must be strictly increasing")

    center = drive.delta1 - drive.delta2
    dchi = _response(center, om2**2, system, drive, derivative=True)
    ng = 1.0 + 0.5 * drive.omega1 * dchi.real
    i = int(np.argmax(ng))
    return ControlSweep(
        omega2_grid=om2,
        ng_center=ng,
        chi_im_center=_response(center, om2**2, system, drive).imag,
        argmax_omega2=float(om2[i]),
        ng_max=float(ng[i]),
    )
