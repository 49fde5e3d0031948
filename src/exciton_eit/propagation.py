"""Probe-pulse propagation through a crystal slab.

The envelope obeys (d/dt + c d/dz) Omega1 = i kappa1^2 sigma_ab with
kappa1^2 = N |d_ab|^2 omega1 / (2 hbar eps0); the control field is taken
z-independent.  In the retarded frame tau = t - z/c the first-order
coherence is a linear time-invariant response, so each spectral component
e^{-i w tau} of the envelope picks up exp(i w1 chi(w) z / 2c) over a
distance z.  The slab is applied as that transfer function on the
zero-padded FFT of the input, which is the exact solution of the
first-order slab problem sampled on the time grid; a narrowband pulse
reduces to exp(i w1 chi'(0) z / 2c - w1 chi''(0) z / 2c) *
input(t - z/v_g), the steady-dispersion limit that the analytic-envelope
oracle in tests/oracles.py gives.

The padded length N is the smallest multiple of 4 that is 2^a 3^b 5^c
and at least 2 (t_steps + 1).  The FFT factors it into radix-2/3/5
passes instead of falling back to Bluestein's algorithm on a large prime
factor, and the band edge N/4 below sits at exactly a quarter of the
sampling rate.  One pass of length N is a circular convolution: the exact
output's samples past N wrap round onto the window (Oppenheim & Schafer,
Discrete-Time Signal Processing, on the DFT).  The M = t_steps + 1
samples of the window are followed by at least M of zero padding, which
take the output's tail first, and the spill share below measures them.
When the exact output has no more energy past N than in the padding
[M, N), as a tail that decays past the window's end has, the energy that
wraps onto the window is at most the padding's: the spill share bounds it.

The transfer H splits into the Hermitian filters H_e(w) = (H(w) +
H(-w)*)/2 and H_o(w) = (H(w) - H(-w)*)/2i, whose impulse responses are
real, so x_r + i x_i leaves as (h_e x_r - h_o x_i) + i (h_o x_r + h_e x_i):
one rfft of length N per nonzero input part and one irfft per nonzero
output part, with H on the one-sided frequencies of both signs.  The
Nyquist bin is its own twin, at +fs/2 and -fs/2 at once, and takes the
mean of H at the two: the mean's real part goes to H_e, its imaginary
part to H_o.  At delta1 = delta2 = 0, chi(-w) = -chi(w)* exactly, so H
is Hermitian and evaluated once, its mean at the Nyquist bin is the real
part that irfft keeps, and H_o is dropped: a real envelope leaves exactly
real, its phase exactly 0 or pi, and a detuning of 1e-300 rad/s gives the
same envelope to roundoff.

There is no z discretisation: ``PropagationParams.z_steps`` is kept and
reported, but does not change the envelope.  The time grid is the only
resolution, and the one padded pass checks it on two energy shares: the
spectral energy above half the Nyquist frequency, of the input or of the
output (a step too coarse for the pulse, or for the far wings the slab
passes while it absorbs the line centre), and the output energy past the
window's end, in the zero padding (a window too short for the delayed
pulse).  The band is the FFT bins [N/4, 3N/4), which holds bin +N/4 but
not -N/4; on a one-sided spectrum every bin counts twice, for its
negative-frequency twin, except DC, bin N/4 and the Nyquist bin, which
count once.  A bin of x_r + i x_i holds |a|^2 + |b|^2 + 2 Im(a b*), a
and b its parts' spectra; the cross terms of twins cancel but for bin
N/4.  A share above ``LEAK_LIMIT`` marks it unconverged.
Very thick slabs are not resolvable: the ~1e-16 roundoff of the sampled
input (about e^-34 of its peak) passes the transparent wings of chi and
swamps the transmitted pulse, so a measured attenuation below
``ATTENUATION_FLOOR`` (about e^-32) marks the record unconverged too.

The route is written once and runs on a carrier, a table of primitives
(``_Carrier``): ``_LISTS`` for a list envelope whose padded length N is
at most ``_FLOAT_FFT_LENGTH`` (18000, reached at t_steps 8999; 4860 at
the default 2400 steps), in Python floats without numpy, and
``_arrays()``, which imports numpy on first use, for any other envelope.
Only the primitives differ: the rfft and irfft (on lists a self-sorting
radix-4/2/3/5 FFT of Python complex numbers, the real input packed into
one complex pass of length N/2), the transfer's complex exp, the energy
and trapezoid sums (math.fsum, exactly rounded, on lists), the peak pick
and the phase.  The transfer H = exp(i w1 chi L / 2c) is one complex exp
of (-K Im chi) + i (K Re chi), K = kappa1^2 L / (c pref), with chi from
susceptibility's real closed form; cmath.exp point by point and numpy's
exp on the array give the same bits, so the two carriers' transfers are
one.  The FFTs and the sums round apart, so the outputs agree within
roundoff, not bit for bit; a list run's bits depend only on IEEE basic
operations and the platform libm's exp, cos, sin and atan2.  In Python
floats a value out of range raises OverflowError or ZeroDivisionError,
where numpy returns inf or nan, whatever the caller's errstate.
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import functools
import math
from dataclasses import dataclass
from operator import add, attrgetter, methodcaller, mul, neg
from typing import TYPE_CHECKING, Callable, NamedTuple

from .constants import CONST
from .medium import FieldDrive, LadderSystem
from .susceptibility import _columns

if TYPE_CHECKING:
    import numpy as np

# below this peak attenuation the output is the input's roundoff, not the pulse
ATTENUATION_FLOOR = 1e-14
# above this share of energy beyond half Nyquist, or past the window, the grid leaks
LEAK_LIMIT = 1e-2

# The longest padded FFT (``_padded_length``, a multiple of 4) on which a
# list envelope is propagated in Python floats, without numpy: 4860 at the
# default 2400 steps, 18000 at 8999.  On an Intel Xeon with CPython 3.11,
# paired cold `propagate` launches (13-15 alternations; medians of the
# float run minus the numpy run), taken while N was 4x the grid, gave
# -90 ms at N = 9720, -17 ms at 16200, -3 and +7 ms at 20250, +13 ms at
# 24300 and +68 ms at 32400: with numpy's files in the page cache its
# import costs a launch only about 0.06-0.1 s, which the float pulse
# spends by about N = 1.9e4.  At 2x the grid (13 alternations) 18000 gave
# -66 and -148 ms and 20480 +2 and 0 ms.
_FLOAT_FFT_LENGTH = 18_000


@dataclass(frozen=True)
class PropagationParams:
    """Slab and grid description for a propagation run."""

    kappa1_sq: float   # N |d_ab|^2 omega1 / (2 hbar eps0), (rad/s)^2
    L: float           # slab thickness, m
    z_steps: int
    t_steps: int
    dt: float          # retarded-time step, s

    def __post_init__(self):
        if self.L < 0 or self.z_steps < 1 or self.t_steps < 8:
            raise ValueError("propagation grid is degenerate")

    @classmethod
    def from_system(cls, system: LadderSystem, drive: FieldDrive, L: float,
                    z_steps: int, t_steps: int, t_span: float) -> "PropagationParams":
        kappa1_sq = system.N * system.dipole_ab_sq * drive.omega1 / (2.0 * CONST.hbar * CONST.eps0)
        return cls(
            kappa1_sq=kappa1_sq,
            L=L,
            z_steps=z_steps,
            t_steps=t_steps,
            dt=t_span / t_steps,
        )

    @property
    def t_grid(self) -> np.ndarray:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):   # out of range: inf or nan
            return np.arange(self.t_steps + 1) * self.dt

    @property
    def t_list(self) -> list[float]:
        """``t_grid`` as a list of floats, with its bits."""
        dt = self.dt
        return [k * dt for k in range(self.t_steps + 1)]

    def params_dict(self) -> dict:
        return {
            "kappa1_sq": self.kappa1_sq,
            "L_m": self.L,
            "z_steps": self.z_steps,
            "t_steps": self.t_steps,
            "dt_s": self.dt,
        }


def gaussian_envelope(t_grid, center: float, sigma: float,
                      amplitude: complex = 1.0) -> list[complex] | np.ndarray:
    """Gaussian amplitude envelope on a time grid: a list of complex on a
    list, in Python floats, and a complex array otherwise."""
    # both squares are scaled by the same power of two, which is exact, so
    # sigma^2 cannot underflow to 0 and normal-range results keep their bits
    scale = 2.0 ** -math.frexp(sigma)[1]
    unit = sigma * scale
    den = 2.0 * (unit * unit)
    if isinstance(t_grid, list):
        amp = complex(amplitude)
        shifted = [(v - center) * scale for v in t_grid]
        return [amp * math.exp(-(u * u) / den) for u in shifted]
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        t = (np.asarray(t_grid, dtype=float) - center) * scale
        return amplitude * np.exp(-(t**2) / den).astype(complex)


@dataclass
class PulseRecord:
    """Input/output envelopes and the measured propagation observables.

    ``measured_delay`` is the intensity-centroid delay relative to vacuum
    transit (the run works in the retarded frame), so a vacuum run reports
    exactly zero.  ``measured_attenuation`` compares envelope peaks and
    ``measured_phase`` is the phase the output peak gains over the input
    peak, wrapped to (-pi, pi].  ``band_share`` is the larger of the
    input's and the output's share of spectral energy above half the
    Nyquist frequency, and ``spill_share`` the share of the padded
    output's energy past the window's end; both are 0 for an empty medium.
    The grid and the envelopes are lists on the list route of
    ``propagate_pulse`` and arrays otherwise.
    """

    t_grid: list[float] | np.ndarray
    envelope_in: list[complex] | np.ndarray
    envelope_out: list[complex] | np.ndarray
    measured_delay: float
    measured_attenuation: float
    measured_phase: float
    converged: bool = True
    band_share: float = 0.0
    spill_share: float = 0.0

    @property
    def convergence_delta(self) -> float:
        """The larger of the two grid shares, which ``converged`` holds to
        ``LEAK_LIMIT``."""
        return max(self.band_share, self.spill_share)


def propagate_pulse(envelope_in, params: PropagationParams, drive: FieldDrive,
                    system: LadderSystem) -> PulseRecord:
    """Pass the probe envelope through the slab and measure the pulse.

    ``envelope_in`` is the complex probe Rabi envelope sampled on
    ``params.t_grid`` at the entrance face.  The envelope should be
    spectrally narrow compared to the transparency window for the
    first-order theory the source term is built on.  The slab acts as the
    exact transfer function exp(i w1 chi(w) L / 2c) on the zero-padded
    spectrum, in one rfft per nonzero part of the envelope and one irfft
    per nonzero part of the output, so ``params.z_steps`` does not change
    the result.  A list on which ``in_floats`` holds runs that route in
    Python floats and gives a record of lists; any other envelope runs it
    in numpy, where a value out of range is inf or nan, and gives arrays.
    The record is flagged unconverged when its ``band_share`` or
    ``spill_share``, both read off that one pass, exceeds ``LEAK_LIMIT``,
    or when its measured attenuation is below ``ATTENUATION_FLOOR``.
    """
    if isinstance(envelope_in, list) and in_floats(params.t_steps):
        carrier, env0, t = _LISTS, [complex(v) for v in envelope_in], params.t_list
        shape, faults = (len(env0),), contextlib.nullcontext()
    else:
        import numpy as np

        carrier, env0, t = _arrays(), np.asarray(envelope_in, dtype=complex), params.t_grid
        shape, faults = env0.shape, np.errstate(over="ignore", invalid="ignore")
    if shape != (params.t_steps + 1,):
        raise ValueError("envelope length must match the time grid")

    with faults:
        if params.kappa1_sq == 0.0:
            record = _measure(t, env0, copy.copy(env0), carrier)
        else:
            record = _propagate(env0, t, params, drive, system, carrier)
    if (record.convergence_delta > LEAK_LIMIT
            or record.measured_attenuation < ATTENUATION_FLOOR):
        record.converged = False
    return record


def in_floats(t_steps: int) -> bool:
    """Whether ``propagate_pulse`` runs a list envelope on ``t_steps``
    steps in Python floats: while its padded FFT length N is at most
    ``_FLOAT_FFT_LENGTH``."""
    return _padded_length(t_steps) <= _FLOAT_FFT_LENGTH


@functools.lru_cache(maxsize=1024)
def _padded_length(t_steps: int) -> int:
    """FFT length: the smallest multiple of 4 that is 2^a 3^b 5^c and at
    least 2 (t_steps + 1), that is 4 m for the smallest 5-smooth
    m >= (t_steps + 1) / 2."""
    m = (t_steps + 2) // 2
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return 4 * m
        m += 1


def _propagate(env0, t, params: PropagationParams, drive: FieldDrive,
               system: LadderSystem, c: _Carrier) -> PulseRecord:
    """The one FFT route of the module docstring on the carrier ``c``,
    without the terms of a part that is all zero or, at resonant drive,
    of h_o."""
    n_pad = _padded_length(params.t_steps)
    # np.fft.rfftfreq's k * (1 / (N dt)) for the bins k of the one-sided spectrum
    freq = c.apply(functools.partial(mul, 1.0 / (n_pad * params.dt)), c.arange(n_pad // 2 + 1))
    even = _transfer(freq, params, drive, system, c)
    odd = None
    if drive.delta1 != 0.0 or drive.delta2 != 0.0:
        twin = _transfer(c.apply(neg, freq), params, drive, system, c)
        even[-1] = twin[-1] = (even[-1] + twin[-1]) / 2.0   # the Nyquist bin's mean
        twin = c.apply(_conjugate, twin)
        even, odd = (c.apply(lambda e, h: (e + h) / 2.0, even, twin),
                     c.apply(lambda e, h: (e - h) / 2j, even, twin))
    re, im = (c.rfft(part, n_pad) if c.any(part) else None
              for part in (c.apply(_real, env0), c.apply(_imag, env0)))
    out_spectra = []   # of h_e x_r - h_o x_i and of h_o x_r + h_e x_i
    for terms in ((re, even), (im, None if odd is None else c.apply(neg, odd))), \
            ((re, odd), (im, even)):
        products = [c.apply(mul, s, h) for s, h in terms if s is not None and h is not None]
        out_spectra.append(c.apply(add, *products) if len(products) == 2
                           else products[0] if products else None)
    n = len(env0)
    heads = []
    padded_energy = spill_energy = 0.0
    for spectrum in out_spectra:
        if spectrum is None:
            heads.append(c.zeros(n))
            continue
        padded = c.irfft(spectrum, n_pad)
        head, tail = padded[:n], padded[n:]
        spill = c.energy(tail)
        padded_energy += c.energy(head) + spill
        spill_energy += spill
        heads.append(head)
    record = _measure(t, env0, c.join(*heads), c)
    record.band_share = max(_ratio(band, total) for total, band in
                            (_total_and_band(re, im, n_pad, c),
                             _total_and_band(*out_spectra, n_pad, c)))
    record.spill_share = _ratio(spill_energy, padded_energy)
    return record


def _transfer(freq, params: PropagationParams, drive: FieldDrive, system: LadderSystem,
              c: _Carrier):
    """exp(i w1 chi(w) L / 2c) on the FFT frequencies ``freq``: one complex
    exp of (-K Im chi) + i (K Re chi), with K = kappa1^2 L / (c pref) and
    chi from its real closed form (``susceptibility._columns``)."""
    # numpy's inverse FFT builds e^{+i W t}; the envelope component is e^{-i w t}
    omega = c.apply(functools.partial(mul, -2.0 * math.pi), freq)
    re, im, _ = _columns(omega, system, drive, group=False)
    return c.exp(re, im, _gain(params, system))


def _gain(params: PropagationParams, system: LadderSystem) -> float:
    """K = kappa1^2 L / (c pref), so K chi = w1 chi L / 2c for params built
    by ``from_system``; a K past the float range raises OverflowError."""
    gain = params.kappa1_sq * params.L / CONST.c / system.chi_prefactor
    if not math.isfinite(gain):
        raise OverflowError("the slab's phase leaves floating-point range")
    return gain


def _total_and_band(re, im, n_pad: int, c: _Carrier) -> tuple[float, float]:
    """The energy of the two-sided spectrum of x_r + i x_i, whole and in
    the bins [N/4, 3N/4), from its parts' one-sided spectra (None
    for a part that is all zero)."""
    def two_sided(s):
        # every bin has a twin but the first (DC; or bin N/4, whose twin -N/4
        # is outside the band) and the Nyquist bin
        return 2.0 * c.spectral_energy(s) - c.spectral_energy(s[:1]) - c.spectral_energy(s[-1:])

    parts = [s for s in (re, im) if s is not None]
    band = sum(two_sided(s[n_pad // 4:]) for s in parts)
    if len(parts) == 2:   # the cross term of bin N/4
        band += 2.0 * (re[n_pad // 4] * im[n_pad // 4].conjugate()).imag
    return sum(two_sided(s) for s in parts), band


def _ratio(part: float, whole: float) -> float:
    return float(part / whole) if whole else 0.0


def _measure(t, env_in, env_out, c: _Carrier) -> PulseRecord:
    """The record of the pulse ``env_in`` -> ``env_out`` on the grid ``t``."""
    trapezoid = c.trapezoid(t)

    def centroid(magnitude):
        w = c.apply(mul, magnitude, magnitude)
        total = trapezoid(w)
        if total == 0:
            return 0.0
        return float(trapezoid(c.apply(mul, w, t)) / total)

    mag_in, mag_out = c.apply(abs, env_in), c.apply(abs, env_out)
    i_in, i_out = c.peak(mag_in), c.peak(mag_out)
    # the peaks off the magnitudes, as pulse.csv prints them
    peak_in, peak_out = mag_in[i_in], mag_out[i_out]
    phase = c.angle(env_out[i_out] * env_in[i_in].conjugate())
    return PulseRecord(
        t_grid=t,
        envelope_in=env_in,
        envelope_out=env_out,
        measured_delay=centroid(mag_out) - centroid(mag_in),
        measured_attenuation=float(peak_out / peak_in) if peak_in else 0.0,
        # a real output's peaks have exact zero imaginary parts, whose sign
        # can make the angle read -pi; the phase is wrapped to (-pi, pi]
        measured_phase=math.pi if phase == -math.pi else phase,
    )


# ---- a self-sorting mixed-radix FFT on lists of Python complex numbers ----
#
# Stockham's autosort form (Temperton, J. Comput. Phys. 52, 1 (1983)):
# each pass of radix r reads the r chunks of length n/r of its input and
# writes every output in order, so no bit reversal is needed.  A real
# input of length n, a multiple of 4, is packed into one complex sequence
# of length n/2 (Sorensen et al., IEEE Trans. ASSP 35, 849 (1987)).  The
# inverse transforms conjugate, so every pass is a forward one.

_ROOT3 = -1j * math.sqrt(0.75)                     # -i sin(2 pi/3)
_COS5 = math.cos(math.tau / 5), math.cos(2 * math.tau / 5)
_SIN5 = math.sin(math.tau / 5), math.sin(2 * math.tau / 5)


@functools.lru_cache(maxsize=8)
def _roots(n: int) -> list[complex]:
    """exp(-2 pi i k / n) for k < n, n a multiple of 4: each is the sine
    and cosine of an angle within pi/4, turned by exact quarter turns."""
    q = n // 4
    # the angles up to pi/4; past it, k's angle is the complement of q - k's
    angles = [math.tau * k / n for k in range(q // 2 + 1)]
    sines, cosines = list(map(math.sin, angles)), list(map(math.cos, angles))
    c = cosines + sines[(q + 1) // 2 - 1:0:-1]
    s = sines + cosines[(q + 1) // 2 - 1:0:-1]
    return ([complex(x, -y) for x, y in zip(c, s)] + [complex(-y, -x) for x, y in zip(c, s)]
            + [complex(-x, y) for x, y in zip(c, s)] + [complex(y, x) for x, y in zip(c, s)])


def _radices(n: int) -> list[int]:
    """The pass radices of a 5-smooth n: fours, a two, threes, fives."""
    out = []
    for r in (4, 2, 3, 5):
        while n % r == 0:
            out.append(r)
            n //= r
    return out


def _butterfly(a: list, tw: list) -> list:
    """The radix-len(a) DFT of the chunks ``a``, output j times ``tw[j-1]``."""
    if len(a) == 2:
        a0, a1 = a
        return [[u + v for u, v in zip(a0, a1)],
                [(u - v) * t for u, v, t in zip(a0, a1, tw[0])]]
    if len(a) == 3:
        a0, a1, a2 = a
        s = [u + v for u, v in zip(a1, a2)]
        d = [(u - v) * _ROOT3 for u, v in zip(a1, a2)]
        m = [u - 0.5 * v for u, v in zip(a0, s)]
        return [[u + v for u, v in zip(a0, s)],
                [(u + v) * t for u, v, t in zip(m, d, tw[0])],
                [(u - v) * t for u, v, t in zip(m, d, tw[1])]]
    if len(a) == 4:
        a0, a1, a2, a3 = a
        s02 = [u + v for u, v in zip(a0, a2)]
        d02 = [u - v for u, v in zip(a0, a2)]
        s13 = [u + v for u, v in zip(a1, a3)]
        d13 = [(u - v) * -1j for u, v in zip(a1, a3)]
        return [[u + v for u, v in zip(s02, s13)],
                [(u + v) * t for u, v, t in zip(d02, d13, tw[0])],
                [(u - v) * t for u, v, t in zip(s02, s13, tw[1])],
                [(u - v) * t for u, v, t in zip(d02, d13, tw[2])]]
    a0, a1, a2, a3, a4 = a
    (c1, c2), (s1, s2) = _COS5, _SIN5
    t1 = [u + v for u, v in zip(a1, a4)]
    t2 = [u + v for u, v in zip(a2, a3)]
    t3 = [(u - v) * -1j for u, v in zip(a1, a4)]
    t4 = [(u - v) * -1j for u, v in zip(a2, a3)]
    b1 = [z + c1 * u + c2 * v for z, u, v in zip(a0, t1, t2)]
    b2 = [z + c2 * u + c1 * v for z, u, v in zip(a0, t1, t2)]
    d1 = [s1 * u + s2 * v for u, v in zip(t3, t4)]
    d2 = [s2 * u - s1 * v for u, v in zip(t3, t4)]
    return [[z + u + v for z, u, v in zip(a0, t1, t2)],
            [(u + v) * t for u, v, t in zip(b1, d1, tw[0])],
            [(u + v) * t for u, v, t in zip(b2, d2, tw[1])],
            [(u - v) * t for u, v, t in zip(b2, d2, tw[2])],
            [(u - v) * t for u, v, t in zip(b1, d1, tw[3])]]


def _fft(x: list[complex], n: int, roots: list[complex]) -> list[complex]:
    """The forward DFT of ``x`` zero-padded to the 5-smooth length ``n``,
    with ``roots`` the list of ``_roots(m)`` for a multiple m of n.

    A pass of radix r over sub-transforms of length l = r m, s of them
    side by side, maps x[q + s (p + k m)] to y[q + s (r p + j)] with
    twiddle exp(-2 pi i j p / l).  It runs as one butterfly per q over
    strided slices of length m while s <= m, and as one per p over
    contiguous slices of length s after.  While the input is no longer
    than one chunk (the first pass of a zero-padded input), every chunk
    but the first is zero and the butterfly is the twiddles alone.
    """
    step, s, l = len(roots) // n, 1, n
    for r in _radices(n):
        m = l // r
        g = step * (n // l)   # roots[g k] = exp(-2 pi i k / l)
        y = [0j] * n
        if len(x) <= s * m:   # only the first chunk is nonzero; here s = 1
            y[0:r * len(x):r] = x
            for j in range(1, r):
                y[j:r * len(x):r] = list(map(mul, x, roots[0:j * m * g:j * g]))
        elif s <= m:
            x = x + [0j] * (n - len(x))
            tw = [roots[0:j * m * g:j * g] for j in range(1, r)]
            for q in range(s):
                chunks = [x[k * s * m + q:(k + 1) * s * m:s] for k in range(r)]
                for j, out in enumerate(_butterfly(chunks, tw)):
                    y[q + s * j::s * r] = out
        else:
            for p in range(m):
                chunks = [x[s * (p + k * m):s * (p + k * m + 1)] for k in range(r)]
                tw = [[roots[j * p * g]] * s for j in range(1, r)]
                for j, out in enumerate(_butterfly(chunks, tw)):
                    y[s * (r * p + j):s * (r * p + j + 1)] = out
        x, s, l = y, s * r, m
    return x


def _rfft(x: list[float], n: int) -> list[complex]:
    """``np.fft.rfft(x, n)`` of a list of floats, n a multiple of 4:
    n // 2 + 1 bins."""
    roots = _roots(n)
    half = n // 2
    z = list(map(complex, x[0::2], x[1::2]))
    if len(x) % 2:
        z.append(complex(x[-1]))
    z = _fft(z, half, roots)
    # X[k] = E[k] + w^k O[k] with E, O the even and odd samples' spectra:
    # E = (Z[k] + conj Z[M-k]) / 2, O = (Z[k] - conj Z[M-k]) / 2i
    mirror = [v.conjugate() for v in z[:1] + z[:0:-1]]
    turn = roots[n // 4:n // 4 + half]   # -i w^k, the roots a quarter turn on
    spectrum = [0.5 * ((u + v) + (u - v) * t) for u, v, t in zip(z, mirror, turn)]
    spectrum[0] = complex(z[0].real + z[0].imag)
    spectrum.append(complex(z[0].real - z[0].imag))
    return spectrum


def _irfft(spectrum: list[complex], n: int) -> list[float]:
    """``np.fft.irfft(spectrum, n)``, n a multiple of 4: n floats, the
    imaginary parts of bins 0 and n/2 dropped."""
    roots = _roots(n)
    half = n // 2
    x = [complex(spectrum[0].real)] + spectrum[1:half] + [complex(spectrum[half].real)]
    # conj Z[k] = conj(E[k] + i O[k]), whose transform is conj(z) M
    conj = [v.conjugate() for v in x[:half]]
    turn = roots[n // 4:n // 4 + half]
    packed = [0.5 * ((u + v) + (u - v) * t) for u, v, t in zip(conj, x[half:0:-1], turn)]
    z = _fft(packed, half, roots)
    out = [0.0] * n
    out[0::2] = [v.real / half for v in z]
    out[1::2] = [-v.imag / half for v in z]
    return out


# ---- the two carriers: the primitives the route takes ----

class _Carrier(NamedTuple):
    """The primitives of the pulse route on one carrier.  Sequences are
    lists of Python floats and complex numbers on ``_LISTS`` and numpy
    arrays on ``_arrays()``."""

    apply: Callable            # apply(fn, *xs): fn elementwise over equal lengths
    any: Callable              # whether a real sequence has a nonzero element
    arange: Callable           # the integers 0 ... n - 1
    rfft: Callable             # np.fft.rfft(x, n) of a real sequence
    irfft: Callable            # np.fft.irfft(spectrum, n)
    exp: Callable              # exp(re, im, K): the transfer exp((-K im) + i (K re))
    energy: Callable           # the sum of x_k^2 of a real sequence
    spectral_energy: Callable  # the sum of |s_k|^2 of a complex sequence
    trapezoid: Callable        # trapezoid(t): y -> the trapezoid rule of y on t
    peak: Callable             # the index of a sequence's first largest value
    angle: Callable            # the phase of one complex value, in [-pi, pi]
    zeros: Callable            # n real zeros
    join: Callable             # join(re, im): the complex sequence of two parts


_real, _imag, _conjugate = attrgetter("real"), attrgetter("imag"), methodcaller("conjugate")


def _list_exp(re: list[float], im: list[float], gain: float) -> list[complex]:
    try:
        return [cmath.exp(complex(-gain * i, gain * r)) for r, i in zip(re, im)]
    except ValueError:   # cmath.exp of an infinite phase
        raise OverflowError("the slab's phase leaves floating-point range") from None


def _list_trapezoid(t: list[float]):
    dt = [b - a for a, b in zip(t, t[1:])]
    # np.trapezoid(y, t)'s terms, their sum exactly rounded
    return lambda y: math.fsum([d * (u + v) / 2.0 for d, u, v in zip(dt, y[1:], y)])


_LISTS = _Carrier(
    apply=lambda fn, *xs: list(map(fn, *xs)),
    any=any,
    arange=range, rfft=_rfft, irfft=_irfft,
    exp=_list_exp,
    energy=lambda x: math.fsum(map(mul, x, x)),
    spectral_energy=lambda s: math.fsum([z.real * z.real + z.imag * z.imag for z in s]),
    trapezoid=_list_trapezoid,
    peak=lambda x: x.index(max(x)),
    angle=lambda z: math.atan2(z.imag, z.real),
    zeros=lambda n: [0.0] * n,
    join=lambda re, im: list(map(complex, re, im)),
)


@functools.cache
def _arrays() -> _Carrier:
    """The numpy carrier, built where the route first needs it."""
    import numpy as np

    def exp(re, im, gain):
        h = np.empty(re.shape, dtype=complex)
        np.multiply(im, -gain, out=h.real)
        np.multiply(re, gain, out=h.imag)
        return np.exp(h, out=h)

    def trapezoid(t):
        # np.trapezoid(y, t)'s own expression, summed in one buffer
        dt, buf = np.diff(t), np.empty(len(t) - 1)
        return lambda y: np.divide(np.multiply(dt, np.add(y[1:], y[:-1], out=buf), out=buf),
                                   2.0, out=buf).sum()

    def join(re, im):
        z = np.empty(len(re), dtype=complex)
        z.real, z.imag = re, im
        return z

    return _Carrier(
        apply=lambda fn, *xs: fn(*xs),
        any=lambda x: x.any(),
        arange=np.arange,
        # np.fft's pair is looked up per call, so that a patched np.fft takes effect
        rfft=lambda x, n: np.fft.rfft(x, n), irfft=lambda s, n: np.fft.irfft(s, n),
        exp=exp,
        energy=lambda x: x @ x,
        spectral_energy=lambda s: np.vdot(s, s).real,
        trapezoid=trapezoid,
        peak=lambda x: int(np.argmax(x)),
        angle=lambda z: float(np.angle(z)),
        zeros=np.zeros,
        join=join,
    )
