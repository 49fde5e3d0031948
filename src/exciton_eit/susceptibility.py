"""Steady-state linear response of the ladder medium to a weak probe.

The central object is the complex susceptibility

    chi(w) = -(N |d_ab|^2 / (hbar eps0))
             / [ (w - delta1 + i gamma_ab)
                 - |Omega2|^2 / (w - delta1 + delta2 + i gamma_bc) ]

where w is the probe spectral offset from its carrier.  With this sign
convention Im chi > 0 means absorption.  The transparency window sits at
two-photon resonance, w = delta1 - delta2.

Every value of chi and n_g, at every caller, comes from one real closed
form, ``_real_response``: over offsets (``_columns``: the spectrum,
``chi``, ``group_index``, ``group_velocity`` and the pulse's transfer)
or at the window center over |Omega2|^2 (``_center``: the window metrics
and the control sweep).  Its derivative is analytic (the quotient rule
on the rational response); the finite-difference group index and the
complex product form the tests check it against are in tests/oracles.py.

numpy is imported by the functions that use it, on first call: the real
closed form over a list and the window's closed forms at two-photon
resonance (its width and peaks) run in Python floats, so ``spectrum``
and ``sweep`` load no numpy at any delta2.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .constants import CONST, _square
from .medium import FieldDrive, LadderSystem

if TYPE_CHECKING:
    import numpy as np


class EvaluationError(ArithmeticError):
    """Raised when a result has no finite value: the response evaluated
    exactly on a pole, or a time evolution that overflows."""


class OutOfRangeError(EvaluationError):
    """An ``EvaluationError`` for a value that leaves floating-point range,
    which a change of the inputs' size can mend; the CLI names the config
    keys to bring back into range.  An exact pole is not one."""


def _real_response(x, y, a, b, k0, w, pref, half_omega1, xp):
    """(Re chi, Im chi, n_g) at x = omega - delta1 and y = x + delta2, with
    real arithmetic only, on Python floats (``xp`` = math) or numpy arrays
    (``xp`` = numpy).

    With a = gamma_ab, b = gamma_bc and w = |Omega2|^2, the product form's
    P = (x + ia)(y + ib) - w has P_r = xy - k0, with k0 = ab + w, and
    P_i = xb + ya.  With D = P_r^2 + P_i^2,

        Re chi  = -pref (y P_r + b P_i) / D
        Im chi  =  pref (b k0 + a y^2) / D
        Re chi' =  pref Re(Q conj(P)^2) / D^2,  Q = (y^2 - b^2 + w) + 2iyb,

    so Im chi is a ratio of non-negative terms and never negative.  The
    bare line (w = 0) takes the inner factor 1: y = 1 and b = 0.

    P is scaled by 1/s, with s the power of two at or below |P_r| + |P_i|,
    which is exact and puts d = D/s^2 in [1/2, 4).  D^2 is never formed:
    each ratio is multiplied by r = 1/d, and by pref before its last
    factors 1/s, so every intermediate is bounded by a value the complex
    product form also forms (pref times the inner factor or Q, the inner
    factor squared, P), and no medium that form evaluates finitely
    overflows here.  Every step is one correctly rounded +, -, * or /, with
    no fused multiply-add, so both carriers give the same bits on every
    CPU.  P = 0 raises :class:`EvaluationError` before any division.  The
    steps run in place, which on an array saves a fifth of the time; on a
    float each rebinds.  With ``half_omega1`` None, n_g is skipped (None).
    """
    pr = x * y
    pr -= k0
    pi = x * b
    pi += y * a
    s = abs(pr)
    s += abs(pi)
    inv = 1.0 / xp.ldexp(0.5, xp.frexp(s)[1])
    pr *= inv
    pi *= inv
    pr2, pi2 = pr * pr, pi * pi
    d = pr2 + pi2
    pole = d == 0
    if pole if xp is math else pole.any():
        raise EvaluationError("susceptibility evaluated exactly on a pole")
    r = 1.0 / d
    re = y * pr
    re += b * pi
    re *= r
    re *= -pref
    re *= inv
    im = (a * y) * y
    im += b * k0
    im *= inv
    im *= r
    im *= pref
    im *= inv
    if half_omega1 is None:
        return re, im, None
    pr2 -= pi2
    pr2 *= r
    ng = y * y
    ng += w - b * b
    ng *= pr2
    pr *= pi
    pr *= r + r
    pr *= (b + b) * y
    ng += pr
    ng *= pref
    ng *= r
    ng *= inv
    ng *= inv
    ng *= half_omega1
    ng += 1.0
    return re, im, ng


def _columns(omega, system: LadderSystem, drive: FieldDrive, group: bool = True):
    """(Re chi, Im chi, n_g) by ``_real_response`` at the offsets ``omega``:
    at a number, as floats; over a list, point by point in Python floats,
    as three lists; over an array, as one broadcast, as three arrays, with
    the same bits.  The spectrum, ``chi``, ``group_index``,
    ``group_velocity`` and both carriers of the pulse's transfer take it;
    without ``group`` n_g is not evaluated, and None stands in its place."""
    w = _square(abs(drive.Omega2))
    a, b = system.gamma_ab, system.gamma_bc if w else 0.0
    k0, pref = a * b + w, system.chi_prefactor
    half_omega1 = 0.5 * drive.omega1 if group else None
    d1, d2 = drive.delta1, drive.delta2
    if not isinstance(omega, (list, float)):
        import numpy as np

        x = np.asarray(omega, dtype=float)
        if x.ndim:
            x = x - d1
            return _real_response(x, x + d2 if w else 1.0, a, b, k0, w, pref, half_omega1, np)
        omega = float(x)
    if isinstance(omega, float):
        x = omega - d1
        return _real_response(x, x + d2 if w else 1.0, a, b, k0, w, pref, half_omega1, math)
    rows = [_real_response(x, x + d2 if w else 1.0, a, b, k0, w, pref, half_omega1, math)
            for x in [v - d1 for v in omega]]
    return tuple(map(list, zip(*rows))) if rows else ([], [], [])


def chi(omega, system: LadderSystem, drive: FieldDrive):
    """Complex susceptibility at probe offset ``omega`` (rad/s), Re chi +
    i Im chi from the real closed form ``compute_spectrum`` takes: a
    complex at a number, an array otherwise.

    When gamma_bc = 0 the value exactly at two-photon resonance is its
    analytic limit (0 for a nonzero control field).  An exact pole,
    reachable only with all dampings zero, raises
    :class:`EvaluationError` rather than returning an infinity.
    """
    re, im, _ = _columns(omega, system, drive)
    if isinstance(re, float):
        return complex(re, im)
    import numpy as np

    return np.asarray(re) + 1j * np.asarray(im)


def group_index(omega, system: LadderSystem, drive: FieldDrive):
    """Group index n_g = 1 + (omega1/2) d Re(chi)/d omega, from the real
    closed form ``compute_spectrum`` takes: a float at a number, an array
    otherwise."""
    return _columns(omega, system, drive)[2]


def group_velocity(omega, system: LadderSystem, drive: FieldDrive):
    """Group velocity c / (n_g + Re(chi)/2), from the real closed form
    ``compute_spectrum`` takes: a float at a number, an array otherwise.

    Negative values (anomalous dispersion) are returned as-is.
    """
    re, _, ng = _columns(omega, system, drive)
    denom = ng + 0.5 * re
    if not (denom != 0 if isinstance(denom, float) else denom.all()):
        raise EvaluationError("group velocity denominator vanished")
    return CONST.c / denom


def _increasing(values) -> bool:
    """Whether a list (or any sequence) or an array is strictly increasing."""
    if hasattr(values, "ndim"):
        return bool((values[1:] > values[:-1]).all())
    return all(a < b for a, b in zip(values, values[1:]))


class _SpectrumFields(NamedTuple):
    """The columns of :class:`SpectrumTable`, which checks them."""

    omega_grid: list[float] | np.ndarray
    chi_re: list[float] | np.ndarray
    chi_im: list[float] | np.ndarray
    n_g: list[float] | np.ndarray


class SpectrumTable(_SpectrumFields):
    """Sampled (omega, chi', chi'', n_g) records: four lists, or four arrays."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.omega_grid)
        if not (len(self.chi_re) == len(self.chi_im) == len(self.n_g) == n):
            raise ValueError("spectrum arrays must share one length")
        if not _increasing(self.omega_grid):
            raise ValueError("omega grid must be strictly increasing")
        im = self.chi_im
        if n and (im.min() if hasattr(im, "ndim") else min(im)) < 0:
            raise ValueError("spectrum shows spurious gain (Im chi < 0)")
        return self


def compute_spectrum(system: LadderSystem, drive: FieldDrive, omega_grid) -> SpectrumTable:
    """Evaluate chi and n_g over a strictly increasing offset grid.

    Every value comes from one real closed form (``_real_response``), in
    which Im chi >= 0 holds exactly.  A list on which ``in_floats`` holds is
    evaluated point by point in Python floats, without numpy, and gives
    lists; any other grid is one numpy broadcast and gives arrays, with the
    same bits.  On either, a value that is not finite raises
    :class:`OutOfRangeError`, with one message.
    """
    if isinstance(omega_grid, list) and in_floats(len(omega_grid)):
        w = [float(v) for v in omega_grid]
        columns = _columns(w, system, drive)
        finite = all(all(map(math.isfinite, c)) for c in columns)
    else:
        import numpy as np

        w = np.asarray(omega_grid, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            columns = _columns(w, system, drive)
        finite = np.isfinite(columns).all()
    if not finite:
        raise OutOfRangeError(
            f"overflow in the spectrum at |Omega2| = {abs(drive.Omega2):.6g} rad/s: a value "
            "of chi or n_g leaves floating-point range")
    return SpectrumTable(w, *columns)


class WindowMetrics(NamedTuple):
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
    p0 = a * b - _square(abs(drive.Omega2)) / _square(s)
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
    more accurate.  A coefficient, or one over the leading coefficient,
    that is not finite raises :class:`OutOfRangeError`; the caller ignores
    numpy's overflow and invalid values.
    """
    import numpy as np

    n = len(coef) - 1
    while n > 0 and coef[n] == 0:
        n -= 1
    column = coef[:n] / coef[n]
    if not (np.isfinite(coef).all() and np.isfinite(column).all()):
        raise OutOfRangeError("overflow off two-photon resonance: the coefficients of "
                              "the window's polynomial leave floating-point range")
    if n <= 1:
        return -column
    mat = np.zeros((n, n))
    mat.reshape(-1)[n::n + 1] = 1.0
    mat[:, -1] -= column
    r = np.linalg.eigvals(mat[::-1, ::-1])
    return np.sort(r.real[r.imag == 0])


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of a polynomial (ascending)."""
    import numpy as np

    return coef[1:] * np.arange(1, len(coef))


def _center(w, system: LadderSystem, drive: FieldDrive):
    """(Im chi, n_g) at the window center, by ``_real_response`` at x =
    -delta2 and y = 0, for W = |Omega2|^2 a float or, in one broadcast, an
    array; W = 0 takes the bare line's y = 1 and b = 0.  A value that is
    not finite raises :class:`OutOfRangeError`, on either carrier."""
    a, gbc, pref, x = system.gamma_ab, system.gamma_bc, system.chi_prefactor, -drive.delta2
    if isinstance(w, float):
        y, b = (0.0, gbc) if w else (1.0, 0.0)
        _, im, ng = _real_response(x, y, a, b, a * b + w, w, pref, 0.5 * drive.omega1, math)
        bad = None if math.isfinite(im) and math.isfinite(ng) else w
    else:
        import numpy as np

        bare = w == 0
        y, b = (np.where(bare, 1.0, 0.0), np.where(bare, 0.0, gbc)) if bare.any() else (0.0, gbc)
        with np.errstate(over="ignore", invalid="ignore"):
            _, im, ng = _real_response(x, y, a, b, a * b + w, w, pref, 0.5 * drive.omega1, np)
        finite = np.isfinite(im) & np.isfinite(ng)
        bad = None if finite.all() else float(w[finite.argmin()])
    if bad is not None:   # the first W whose center leaves the range
        raise OutOfRangeError(
            f"overflow at the window center: chi prefactor = {pref:.6g} rad/s, gamma_ab = "
            f"{a:.6g}, gamma_bc = {gbc:.6g} and |Omega2| = {math.sqrt(bad):.6g} rad/s "
            "leave floating-point range")
    return im, ng


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
    that span.  The center values are ``_center``'s.  gamma_ab = 0 raises
    :class:`EvaluationError`, and so does a center value or a quartic
    coefficient that leaves floating-point range.
    """
    if system.gamma_ab == 0:
        raise EvaluationError("window metrics need gamma_ab > 0: at gamma_ab = 0 "
                              "the bare peak, and so the half level, is infinite")
    center_abs, ng_center = _center(_square(float(abs(drive.Omega2))), system, drive)
    span = max(10.0 * system.gamma_ab, 4.0 * abs(drive.Omega2))
    if drive.delta2 == 0:
        width = float(2.0 * min(_resonant_half_width(system, drive), span))
    elif abs(drive.Omega2) == 0.0 or center_abs >= 0.5 * system.chi_prefactor / system.gamma_ab:
        width = 0.0
    else:
        import numpy as np

        s, numer, den = _im_chi_fraction(system, drive)
        with np.errstate(over="ignore", invalid="ignore"):   # an edge past the span is capped
            edges = _real_roots(np.concatenate((numer, [0.0, 0.0]))
                                - 0.5 * s / system.gamma_ab * den)
            right = min(s * np.min(edges[edges >= 0], initial=np.inf), span)
            left = min(-s * np.max(edges[edges <= 0], initial=-np.inf), span)
        width = float(right + left)
    return WindowMetrics(center_abs=float(center_abs), width=width, ng_center=float(ng_center))


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
    zero.  One entry when the doublet has merged into a single line.  Off
    two-photon resonance, a coefficient of that polynomial that leaves
    floating-point range raises :class:`OutOfRangeError`.

    At delta2 = 0, in the terms of ``_resonant_ratios``, N' D - N D' is
    -2 sqrt(u) (q0 + q1 u + a u^2) with q0 = k (b^3 - w(a + 2b)) and
    q1 = 2bk, so q1, a >= 0.  The center is the one maximum if q0 > 0, and
    also if q0 = 0 with q1 > 0 or a > 0 (the bare line at Omega2 =
    gamma_bc = 0, say), since the slope is then -2 sqrt(u) (q1 u + a u^2);
    if q0 < 0 the maxima are the pair at the positive root
    u = -2 q0 / (q1 + sqrt(q1^2 - 4 a q0)), where the slope falls through
    zero because q1 + 2au > 0.  If q0 = q1 = a = 0 (gamma_ab = 0 and
    gamma_bc |Omega2| = 0) Im chi vanishes off its poles and there is none,
    as off two-photon resonance with gamma_ab = |Omega2| = 0.
    """
    center = drive.delta1 - drive.delta2
    if drive.delta2 != 0 and max(system.gamma_ab, abs(drive.Omega2)) == 0.0:
        return ()   # the scale s of _im_chi_fraction is 0
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
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (np.convolve(_derivative(numer), den)
                 - np.convolve(numer, _derivative(den)))
        x = _real_roots(slope)
        maxima = x[np.polyval(_derivative(slope)[::-1], x) < 0]   # Horner
        return tuple(float(center + s * v) for v in maxima)


class ControlSweep(NamedTuple):
    """Window-center response across a control-field grid.

    The three columns are lists when the grid came in as a list, and
    arrays otherwise.
    """

    omega2_grid: list[float] | np.ndarray
    ng_center: list[float] | np.ndarray
    chi_im_center: list[float] | np.ndarray
    argmax_omega2: float
    ng_max: float


# The most values a list, or one CLI run, is evaluated in Python floats,
# without numpy, whose import costs a cold launch 0.1-0.15 s.  On an Intel
# Xeon with CPython 3.11 the spectrum's real form takes about 1.5 us per
# point against 0.3 us for its broadcast, and a cold `spectrum` gained the
# import back from about 7e4 values (+50 ms in floats at 1e5, +0.2 s at
# 2e5); a sweep point, the same form at the window center, takes about
# 2.7 us against 0.05 us, and paired cold `sweep --format csv` launches
# (7 alternations; medians of the float run minus the numpy run) gave
# -66 ms at 3e4 points, +17 ms at 6e4 and +156 ms at 1e5.  One limit
# between the two crossovers keeps either command within about 0.05 s of
# the faster route.
FLOAT_POINTS = 50_000


def in_floats(points: int) -> bool:
    """Whether a kernel evaluates a list of ``points`` values in Python
    floats, without numpy: ``compute_spectrum`` a list of offsets and
    ``sweep_control`` a list of Omega2, while ``points`` is at most
    ``FLOAT_POINTS``.  The CLI asks it too, with the values one run
    evaluates, to build that run's grid as a list or as an array."""
    return points <= FLOAT_POINTS


def sweep_control(system: LadderSystem, drive: FieldDrive, omega2_grid,
                  threads: int = 1) -> ControlSweep:
    """Evaluate n_g and Im chi at the window center across an Omega2 grid.

    Every value is the window center's real closed form (``_center``), at
    any delta2, with the bare line where |Omega2|^2 is 0.  A list on which
    ``in_floats`` holds is evaluated point by point in Python floats,
    without numpy.  Every other grid is one numpy broadcast, with the same
    bits.  On either carrier an Omega2 whose square overflows raises
    OverflowError, as ``constants._square`` does, and a value that is not
    finite raises :class:`OutOfRangeError`, each at the first Omega2 of
    the grid that fails and with one message.  A list in gives lists out.
    ``threads`` is accepted and has no effect.
    """
    listed = isinstance(omega2_grid, list)
    if listed and omega2_grid and in_floats(len(omega2_grid)):
        om2 = [float(v) for v in omega2_grid]
        if not _increasing(om2):
            raise ValueError("omega2 grid must be strictly increasing")
        absorption, ng = map(list, zip(*[_center(_square(v), system, drive) for v in om2]))
        i = ng.index(max(ng))
    else:
        import numpy as np

        om2 = np.asarray(omega2_grid, dtype=float)
        if om2.size == 0:
            raise ValueError("omega2 grid must be non-empty")
        if not _increasing(om2):
            raise ValueError("omega2 grid must be strictly increasing")
        # as the list route, the centers up to the first square out of range:
        # om2 increases, and sqrt(max) is the largest float with a finite square
        _square(float(om2[0]))
        n = int(np.searchsorted(om2, math.sqrt(sys.float_info.max), side="right"))
        absorption, ng = _center(om2[:n] * om2[:n], system, drive)
        if n < om2.size:
            _square(float(om2[n]))
        i = int(np.argmax(ng))
        if listed:
            om2, ng, absorption = om2.tolist(), ng.tolist(), absorption.tolist()
    return ControlSweep(om2, ng, absorption, float(om2[i]), float(ng[i]))
