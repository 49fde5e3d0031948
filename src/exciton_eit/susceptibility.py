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

numpy is imported by the functions that use it, on first call: the
closed forms at two-photon resonance (the window center, width and
peaks, and a control sweep over a list) run in Python floats, so a
resonant ``sweep`` loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import CONST
from .medium import FieldDrive, LadderSystem

if TYPE_CHECKING:
    import numpy as np


class EvaluationError(ArithmeticError):
    """Raised when a result has no finite value: the response evaluated
    exactly on a pole, or a time evolution that overflows."""


def _product_form(omega, om2_sq, system: LadderSystem, drive: FieldDrive):
    """(chi, inner, P) at offsets ``omega`` broadcast against |Omega2|^2.

    Written in product form: with P = one * inner - |Omega2|^2,
    chi = -pref inner / P.  Nothing divides by the inner denominator, so
    with gamma_bc = 0 chi reaches its two-photon limit, 0, with no
    overflow however close to resonance.  Without control inner is taken
    as 1, which leaves the bare line.
    """
    import numpy as np

    one = omega - drive.delta1 + 1j * system.gamma_ab
    inner = np.where(om2_sq == 0, 1.0,
                     omega - drive.delta1 + drive.delta2 + 1j * system.gamma_bc)
    p = one * inner - om2_sq
    if np.any(p == 0):
        raise EvaluationError("susceptibility evaluated exactly on a pole")
    return -system.chi_prefactor * inner / p, inner, p


def _response(omega, om2_sq, system: LadderSystem, drive: FieldDrive):
    """(chi, d chi/d omega) from one product form (see ``_product_form``):
    chi' = pref (inner^2 + |Omega2|^2) / P^2, whose two-photon limit at
    gamma_bc = 0 is pref/|Omega2|^2."""
    x, inner, p = _product_form(omega, om2_sq, system, drive)
    return x, system.chi_prefactor * (inner * inner + om2_sq) / (p * p)


def _evaluate(omega, system: LadderSystem, drive: FieldDrive):
    """(chi, chi') at a scalar (as complex numbers) or an array of offsets."""
    import numpy as np

    x, dx = _response(np.asarray(omega, dtype=float), abs(drive.Omega2) ** 2, system, drive)
    return (complex(x), complex(dx)) if x.ndim == 0 else (x, dx)


def _group_index(dchi, drive: FieldDrive):
    """n_g = 1 + (omega1/2) Re chi' from the derivative chi' (a number or an array)."""
    return 1.0 + 0.5 * drive.omega1 * dchi.real


def chi(omega, system: LadderSystem, drive: FieldDrive):
    """Complex susceptibility at probe offset ``omega`` (rad/s).

    Accepts a scalar or an array.  When gamma_bc = 0 the value exactly at
    two-photon resonance is taken as its analytic limit (0 for a nonzero
    control field).  An exact pole, reachable only with all dampings zero,
    raises :class:`EvaluationError` rather than returning an infinity.
    It evaluates chi alone, for callers such as the pulse kernel that need
    no derivative.
    """
    import numpy as np

    x = _product_form(np.asarray(omega, dtype=float), abs(drive.Omega2) ** 2, system, drive)[0]
    return complex(x) if x.ndim == 0 else x


def chi_derivative(omega, system: LadderSystem, drive: FieldDrive):
    """Analytic d chi / d omega at probe offset ``omega`` (units s)."""
    return _evaluate(omega, system, drive)[1]


def group_index(omega, system: LadderSystem, drive: FieldDrive):
    """Group index n_g = 1 + (omega1/2) d Re(chi)/d omega."""
    return _group_index(chi_derivative(omega, system, drive), drive)


def group_velocity(omega, system: LadderSystem, drive: FieldDrive):
    """Group velocity c / (1 + Re(chi)/2 + (omega1/2) d Re(chi)/d omega).

    Negative values (anomalous dispersion) are returned as-is.
    """
    import numpy as np

    x, dx = _evaluate(omega, system, drive)
    denom = 1.0 + 0.5 * x.real + 0.5 * drive.omega1 * dx.real
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
        import numpy as np

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
    import numpy as np

    w = np.asarray(omega_grid, dtype=float)
    x, dx = _evaluate(w, system, drive)
    return SpectrumTable(omega_grid=w, chi_re=x.real, chi_im=x.imag,
                         n_g=_group_index(dx, drive))


@dataclass(frozen=True)
class WindowMetrics:
    """Transparency-window figures of merit at two-photon resonance."""

    center_abs: float       # Im chi at the window center
    width: float            # span where Im chi < half of the bare peak, rad/s
    ng_center: float        # group index at the center


def _im_chi_fraction(system: LadderSystem, drive: FieldDrive):
    """(s, N, D) with Im chi(center + s x) = (pref / s) N(x) / D(x).

    With the resonance factors divided by s, a + x and b + x with
    a = (i gamma_ab - delta2)/s and b = i gamma_bc/s, and
    P = (a + x)(b + x) - |Omega2|^2/s^2, N = -Im((b + x) conj P) and
    D = |P|^2 are real polynomials in x (ascending coefficients) of degree
    2 and 4, written out term by term; s = max(gamma_ab, |Omega2|) keeps
    their coefficients of order one.  At delta2 = 0 a and b are imaginary,
    so the odd coefficients are exactly 0 and both polynomials are
    quadratics in x^2; the kernels then use ``_resonant_ratios`` instead.
    """
    import numpy as np

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


def _resonant_ratios(system: LadderSystem, drive: FieldDrive):
    """(s, a, b, w) for the closed forms at delta2 = 0, where Im chi is even.

    a = gamma_ab/s, b = gamma_bc/s and w = |Omega2|^2/s^2, with s the
    power of two at or below max(gamma_ab, |Omega2|): the division is then
    exact and the ratios lie in [0, 2) but for b.  In u = (x/s)^2, with
    k = ab + w, Im chi(center + x) = (pref/s) (bk + a u) / ((u - k)^2 + (a + b)^2 u).
    """
    om2 = float(abs(drive.Omega2))
    s = math.ldexp(0.5, math.frexp(max(system.gamma_ab, om2))[1])
    r = om2 / s
    return s, system.gamma_ab / s, system.gamma_bc / s, r * r


def _resonant_half_width(system: LadderSystem, drive: FieldDrive) -> float:
    """Center-to-edge distance of the window at delta2 = 0 (0 if closed,
    inf if Im chi never climbs back to the half level).

    With the ratios of ``_resonant_ratios``, the half level pref/(2 gamma_ab)
    is crossed where u^2 - e1 u - e0 = 0, with e0 = (ab + w)(ab - w) and
    e1 = a^2 - b^2 + 2w.  The sign of e0 is the center test: the window is
    open iff e0 < 0, the dip floor below the half level.  Then the roots
    have one sign, and the edge is the smaller, e0 / (-u_far), with
    u_far = (e1 + sqrt(disc))/2 from the stable quadratic formula, so one
    number decides both the test and the edge.  The discriminant
    e1^2 + 4 e0 is written as (a^2 + b^2)^2 + 4w(a^2 - b^2), which does not
    cancel for gamma_bc << |Omega2|.
    """
    s, a, b, w = _resonant_ratios(system, drive)
    ab = a * b
    e0 = (ab + w) * (ab - w)
    if e0 >= 0.0:
        return 0.0
    d, n = (a - b) * (a + b), a * a + b * b
    e1 = d + 2.0 * w
    disc = n * n + 4.0 * w * d
    if e1 <= 0.0 or disc < 0.0:
        return math.inf
    return s * math.sqrt(-e0 / (0.5 * (e1 + math.sqrt(disc))))


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Sorted real roots of a real polynomial (ascending coefficients).

    Trailing zero coefficients are trimmed; the roots are then the
    eigenvalues of the companion matrix that numpy's ``polyroots`` builds,
    rotated by 180 degrees, which makes the window edges about a third
    more accurate.
    """
    import numpy as np

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
    import numpy as np

    return coef[1:] * np.arange(1, len(coef))


def _resonant_center(pref: float, system: LadderSystem, drive: FieldDrive,
                     om2_sq: float) -> tuple[float, float]:
    """(Im chi, n_g) at the window center for delta2 = 0 and Omega2 != 0.

    There both resonance factors are imaginary, i gamma_ab and i gamma_bc,
    so P = -gamma_ab gamma_bc - |Omega2|^2 is real: Im chi = -pref gamma_bc / P
    and chi' = pref (|Omega2|^2 - gamma_bc^2) / P^2, in Python floats.
    numpy divides a complex number by a real one by multiplying with its
    reciprocal, and so does this, so the bits are those of the complex
    route (``_response``); 0.0 - x gives its -0.0 for Im chi at
    gamma_bc = 0.  Python floats overflow silently (and P^2 may underflow
    to 0), so a P or a result that is not finite raises
    :class:`EvaluationError`, where numpy's overflow would raise under the
    CLI's ``errstate``.
    """
    gab, gbc = system.gamma_ab, system.gamma_bc
    p = -gab * gbc - om2_sq
    p_sq = p * p
    center_abs = (0.0 - pref * gbc) * (1.0 / p)
    ng_center = (1.0 + 0.5 * drive.omega1 * ((pref * (om2_sq - gbc * gbc)) * (1.0 / p_sq))
                 if p_sq else math.inf)
    if not (math.isfinite(p) and math.isfinite(center_abs) and math.isfinite(ng_center)):
        raise EvaluationError(
            f"overflow at the window center: chi prefactor = {pref:.6g} rad/s, gamma_ab = "
            f"{gab:.6g}, gamma_bc = {gbc:.6g} and |Omega2| = {math.sqrt(om2_sq):.6g} rad/s "
            "leave floating-point range")
    return float(center_abs), float(ng_center)


def window_metrics(system: LadderSystem, drive: FieldDrive) -> WindowMetrics:
    """Locate the transparency window around two-photon resonance.

    The window edges are where Im chi crosses half of the bare (control
    off) Lorentzian peak N|d|^2/(hbar eps0 gamma_ab).  At delta2 = 0 the
    window is symmetric and its edges are the closed-form roots of a
    quadratic in x^2 (``_resonant_half_width``).  Otherwise the crossings
    are the real roots of a quartic (see ``_im_chi_fraction``), and each
    edge is the one nearest the center on its side; a root at the center
    itself (the dip floor on the half level) closes the window.  With the
    control off, or while the dip floor still sits above the half level,
    the window is reported absent (width 0).  An edge farther than
    max(10 gamma_ab, 4 |Omega2|) from the center, or missing, is capped at
    that span.  gamma_ab = 0 raises :class:`EvaluationError`, and so does
    a center value at delta2 = 0 that leaves floating-point range.
    """
    if system.gamma_ab == 0:
        raise EvaluationError("window metrics need gamma_ab > 0: at gamma_ab = 0 "
                              "the bare peak, and so the half level, is infinite")
    pref = system.chi_prefactor
    center = drive.delta1 - drive.delta2
    half = 0.5 * pref / system.gamma_ab
    om2_sq = float(abs(drive.Omega2) ** 2)
    if drive.delta2 == 0 and om2_sq != 0:
        center_abs, ng_center = _resonant_center(pref, system, drive, om2_sq)
    else:
        # _response written out in numpy scalars, because a one-point array
        # call costs about eight times as much.  The values may differ from
        # the array path's in the last bit.  With gamma_ab > 0 the center
        # is no pole
        import numpy as np

        one = np.complex128(center - drive.delta1 + 1j * system.gamma_ab)
        inner = np.complex128(center - drive.delta1 + drive.delta2 + 1j * system.gamma_bc
                              if om2_sq != 0 else 1.0)
        p = one * inner - om2_sq
        center_abs = float((-pref * inner / p).imag)
        ng_center = float(_group_index(
            float((pref * (inner * inner + om2_sq) / (p * p)).real), drive))

    span = max(10.0 * system.gamma_ab, 4.0 * abs(drive.Omega2))
    if drive.delta2 == 0:
        width = float(2.0 * min(_resonant_half_width(system, drive), span))
    elif abs(drive.Omega2) == 0.0 or center_abs >= half:
        width = 0.0
    else:
        import numpy as np

        s, numer, den = _im_chi_fraction(system, drive)
        edges = _real_roots(np.concatenate((numer, [0.0, 0.0]))
                            - 0.5 * s / system.gamma_ab * den)
        right = min(s * np.min(edges[edges >= 0], initial=np.inf), span)
        left = min(-s * np.max(edges[edges <= 0], initial=-np.inf), span)
        width = float(right + left)
    return WindowMetrics(center_abs=center_abs, width=width, ng_center=ng_center)


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

    At delta2 = 0, in the terms of ``_resonant_ratios``, N' D - N D' is
    -2 sqrt(u) (q0 + q1 u + a u^2) with q0 = k (b^3 - w(a + 2b)) and
    q1 = 2bk, so q1, a >= 0.  The center is the one maximum if q0 > 0, and
    also if q0 = 0 with q1 > 0 or a > 0 (the bare line at Omega2 =
    gamma_bc = 0, say), since the slope is then -2 sqrt(u) (q1 u + a u^2);
    if q0 < 0 the maxima are the pair at the positive root
    u = -2 q0 / (q1 + sqrt(q1^2 - 4 a q0)), where the slope falls through
    zero because q1 + 2au > 0.  If q0 = q1 = a = 0 (gamma_ab = 0 and
    gamma_bc |Omega2| = 0) Im chi vanishes off its poles and there is none.
    """
    center = drive.delta1 - drive.delta2
    if drive.delta2 == 0:
        s, a, b, w = _resonant_ratios(system, drive)
        k = a * b + w
        q0 = k * (b * b * b - w * (a + 2.0 * b))
        q1 = 2.0 * b * k
        if q0 == q1 == a == 0.0:
            return ()
        if q0 >= 0.0:
            return (float(center),)
        x = s * math.sqrt(-2.0 * q0 / (q1 + math.sqrt(q1 * q1 - 4.0 * a * q0)))
        return (float(center - x), float(center + x))
    import numpy as np

    s, numer, den = _im_chi_fraction(system, drive)
    slope = (np.convolve(_derivative(numer), den)
             - np.convolve(numer, _derivative(den)))
    x = _real_roots(slope)
    maxima = x[np.polyval(_derivative(slope)[::-1], x) < 0]   # Horner
    return tuple(float(center + s * v) for v in maxima)


@dataclass
class ControlSweep:
    """Window-center response across a control-field grid.

    The three columns are lists when the grid came in as a list, and
    arrays otherwise.
    """

    omega2_grid: list[float] | np.ndarray
    ng_center: list[float] | np.ndarray
    chi_im_center: list[float] | np.ndarray
    argmax_omega2: float
    ng_max: float


# The longest list grid ``sweep_control`` evaluates in Python floats.  On a
# 2^20-point list the closed form took 0.78 us per point and the broadcast
# 0.14 us, list conversions included (Intel Xeon, CPython 3.11), so past about
# 2e5 points the broadcast gains back the 0.1-0.15 s that importing numpy
# costs.
FLOAT_SWEEP_POINTS = 200_000


def sweep_in_floats(delta2: float, omega2_first: float, points: int) -> bool:
    """Whether ``sweep_control`` evaluates a strictly increasing list of
    ``points`` Omega2 from ``omega2_first`` in Python floats, without numpy.

    It does at delta2 = 0, where each value is the window center's real
    closed form (``_resonant_center``), when no Omega2 has a square of 0
    (every point lies above ``omega2_first`` > 0, so every square is at
    least its square), and for at most ``FLOAT_SWEEP_POINTS`` points.
    """
    return (delta2 == 0 and omega2_first > 0 and omega2_first * omega2_first > 0
            and points <= FLOAT_SWEEP_POINTS)


def sweep_control(system: LadderSystem, drive: FieldDrive, omega2_grid,
                  threads: int = 1) -> ControlSweep:
    """Evaluate n_g and Im chi at the window center across an Omega2 grid.

    A list on which ``sweep_in_floats`` holds is evaluated point by point
    in Python floats, by the closed form of ``_resonant_center``, which
    needs no numpy and has the bits of the complex response; there a value
    that is not finite raises :class:`EvaluationError`, and an Omega2 whose
    square overflows raises OverflowError, as squaring a Python float with
    ``**`` does.  Every other grid is one broadcast of the complex response
    (``_response``).  A list in gives lists out.  ``threads`` is accepted
    and has no effect.
    """
    listed = isinstance(omega2_grid, list)
    if listed and omega2_grid and sweep_in_floats(drive.delta2, omega2_grid[0],
                                                  len(omega2_grid)):
        om2 = [float(v) for v in omega2_grid]
        if not all(a < b for a, b in zip(om2, om2[1:])):
            raise ValueError("omega2 grid must be strictly increasing")
        om2_sq = [v * v for v in om2]
        if math.inf in om2_sq:
            raise OverflowError("|Omega2|^2 leaves floating-point range")
        pref = system.chi_prefactor
        columns = [_resonant_center(pref, system, drive, w) for w in om2_sq]
        absorption, ng = [c[0] for c in columns], [c[1] for c in columns]
        i = ng.index(max(ng))
        return ControlSweep(om2, ng, absorption, om2[i], ng[i])

    import numpy as np

    om2 = np.asarray(omega2_grid, dtype=float)
    if om2.size == 0:
        raise ValueError("omega2 grid must be non-empty")
    if om2.size > 1 and not np.all(np.diff(om2) > 0):
        raise ValueError("omega2 grid must be strictly increasing")

    center = drive.delta1 - drive.delta2
    x, dx = _response(center, om2**2, system, drive)
    ng = _group_index(dx, drive)
    i = int(np.argmax(ng))
    if listed:
        return ControlSweep(om2.tolist(), ng.tolist(), x.imag.tolist(), float(om2[i]),
                            float(ng[i]))
    return ControlSweep(
        omega2_grid=om2,
        ng_center=ng,
        chi_im_center=x.imag,
        argmax_omega2=float(om2[i]),
        ng_max=float(ng[i]),
    )
