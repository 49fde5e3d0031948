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

The padded length N is the smallest 2^a 3^b 5^c >= 4 (t_steps + 1).  It
is at least four times the grid, so the slab's response tail cannot wrap
round onto the start of the window, and the FFT factors it into
radix-2/3/5 passes instead of falling back to Bluestein's algorithm on a
large prime factor.

The transfer H splits into the Hermitian filters H_e(w) = (H(w) +
H(-w)*)/2 and H_o(w) = (H(w) - H(-w)*)/2i, whose impulse responses are
real, so x_r + i x_i leaves as (h_e x_r - h_o x_i) + i (h_o x_r + h_e x_i):
one rfft of length N per nonzero input part and one irfft per nonzero
output part, with H on the one-sided frequencies of both signs.  An even
N's Nyquist bin is its own twin and takes H at -fs/2, as fft does: its
real part is even, its imaginary part odd.  At delta1 = delta2 = 0,
chi(-w) = -chi(w)* exactly, so H is Hermitian and evaluated once, and H_o
is dropped (with the Nyquist bin's imaginary part, as irfft drops it): a
real envelope leaves exactly real, its phase exactly 0 or pi.

There is no z discretisation: ``PropagationParams.z_steps`` is kept and
reported, but does not change the envelope.  The time grid is the only
resolution, and the one padded pass checks it on two energy shares: the
spectral energy above half the Nyquist frequency, of the input or of the
output (a step too coarse for the pulse, or for the far wings the slab
passes while it absorbs the line centre), and the output energy past the
window's end, in the zero padding (a window too short for the delayed
pulse).  The band is the FFT bins [N//4, N - N//4), which holds bin +N/4
but not -N/4; on a one-sided spectrum every bin counts twice, for its
negative-frequency twin, except DC, bin N//4 and, for even N, the Nyquist
bin, which count once.  A bin of x_r + i x_i holds |a|^2 + |b|^2 +
2 Im(a b*), a and b its parts' spectra; the cross terms of twins cancel
but for bin N//4.  A share above ``LEAK_LIMIT`` marks it unconverged.
Very thick slabs are not resolvable: the ~1e-16 roundoff of the sampled
input (about e^-34 of its peak) passes the transparent wings of chi and
swamps the transmitted pulse, so a measured attenuation below
``ATTENUATION_FLOOR`` (about e^-32) marks the record unconverged too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .medium import FieldDrive, LadderSystem
from .susceptibility import chi

# below this peak attenuation the output is the input's roundoff, not the pulse
ATTENUATION_FLOOR = 1e-14
# above this share of energy beyond half Nyquist, or past the window, the grid leaks
LEAK_LIMIT = 1e-2


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
        return np.arange(self.t_steps + 1) * self.dt

    def params_dict(self) -> dict:
        return {
            "kappa1_sq": self.kappa1_sq,
            "L_m": self.L,
            "z_steps": self.z_steps,
            "t_steps": self.t_steps,
            "dt_s": self.dt,
        }


def gaussian_envelope(t_grid, center: float, sigma: float,
                      amplitude: complex = 1.0) -> np.ndarray:
    """Gaussian amplitude envelope on a time grid."""
    # both squares are scaled by the same power of two, which is exact, so
    # sigma^2 cannot underflow to 0 and normal-range results keep their bits
    scale = 2.0 ** -math.frexp(sigma)[1]
    t = (np.asarray(t_grid, dtype=float) - center) * scale
    return amplitude * np.exp(-(t**2) / (2.0 * (sigma * scale) ** 2)).astype(complex)


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
    """

    t_grid: np.ndarray
    envelope_in: np.ndarray
    envelope_out: np.ndarray
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
    the result.  The record is flagged unconverged when its
    ``band_share`` or ``spill_share``, both read off that one pass,
    exceeds ``LEAK_LIMIT``, or when its measured attenuation is below
    ``ATTENUATION_FLOOR``.
    """
    env0 = np.asarray(envelope_in, dtype=complex)
    if env0.shape != (params.t_steps + 1,):
        raise ValueError("envelope length must match the time grid")

    if params.kappa1_sq == 0.0:
        record = _measure(params.t_grid, env0, env0.copy())
    else:
        record = _propagate(env0, params, drive, system)
    if (record.convergence_delta > LEAK_LIMIT
            or record.measured_attenuation < ATTENUATION_FLOOR):
        record.converged = False
    return record


@functools.lru_cache(maxsize=1024)
def _padded_length(t_steps: int) -> int:
    """FFT length: the smallest 2^a 3^b 5^c >= 4 (t_steps + 1)."""
    n = 4 * (t_steps + 1)
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _transfer(freq: np.ndarray, params: PropagationParams, drive: FieldDrive,
              system: LadderSystem) -> np.ndarray:
    """exp(i w1 chi(w) L / 2c) on the FFT frequencies ``freq``."""
    # numpy's inverse FFT builds e^{+i W t}; the envelope component is e^{-i w t}
    response = chi(-2.0 * np.pi * freq, system, drive)
    # kappa1^2 chi / chi_prefactor = w1 chi / 2 for params built by from_system
    response /= system.chi_prefactor
    response *= 1j * params.kappa1_sq * params.L / CONST.c
    return np.exp(response, out=response)


def _propagate(env0: np.ndarray, params: PropagationParams, drive: FieldDrive,
               system: LadderSystem) -> PulseRecord:
    """The one FFT route of the module docstring, without the terms of a
    part that is all zero or, at resonant drive, of h_o."""
    n_pad = _padded_length(params.t_steps)
    freq = np.fft.rfftfreq(n_pad, params.dt)
    even = _transfer(freq, params, drive, system)
    odd = None
    if drive.delta1 != 0.0 or drive.delta2 != 0.0:
        twin = _transfer(-freq, params, drive, system)
        if n_pad % 2 == 0:
            even[-1] = twin[-1]   # the Nyquist bin is its own twin, at -fs/2 as in fft
        twin = np.conjugate(twin, out=twin)
        even, odd = (even + twin) / 2.0, (even - twin) / 2j
    re, im = (np.fft.rfft(part, n_pad) if part.any() else None
              for part in (env0.real, env0.imag))
    out_spectra = []   # of h_e x_r - h_o x_i and of h_o x_r + h_e x_i
    for terms in ((re, even), (im, None if odd is None else -odd)), ((re, odd), (im, even)):
        products = [s * h for s, h in terms if s is not None and h is not None]
        out_spectra.append(sum(products[1:], products[0]) if products else None)
    n = len(env0)
    env_out = np.zeros(n, dtype=complex)
    padded_energy = spill_energy = 0.0
    for spectrum, out in zip(out_spectra, (env_out.real, env_out.imag)):
        if spectrum is not None:
            padded = np.fft.irfft(spectrum, n_pad)
            out[:] = padded[:n]
            padded_energy += padded @ padded
            spill_energy += padded[n:] @ padded[n:]
    record = _measure(params.t_grid, env0, env_out)
    record.band_share = max(_ratio(band, total) for total, band in
                            (_total_and_band(re, im, n_pad),
                             _total_and_band(*out_spectra, n_pad)))
    record.spill_share = _ratio(spill_energy, padded_energy)
    return record


def _total_and_band(re, im, n_pad: int) -> tuple[float, float]:
    """The energy of the two-sided spectrum of x_r + i x_i, whole and in
    the bins [N//4, N - N//4), from its parts' one-sided spectra (None
    for a part that is all zero)."""
    def two_sided(s):
        # every bin has a twin but the first (DC; or bin N//4, whose twin
        # -N/4 is outside the band) and, for even N, the Nyquist bin
        energy = 2.0 * np.vdot(s, s).real - abs(s[0]) ** 2
        return energy - abs(s[-1]) ** 2 if n_pad % 2 == 0 else energy

    parts = [s for s in (re, im) if s is not None]
    band = sum(two_sided(s[n_pad // 4:]) for s in parts)
    if len(parts) == 2:   # the cross term of bin N//4
        band += 2.0 * (re[n_pad // 4] * im[n_pad // 4].conjugate()).imag
    return sum(two_sided(s) for s in parts), band


def _ratio(part: float, whole: float) -> float:
    return float(part / whole) if whole else 0.0


def _measure(t: np.ndarray, env_in: np.ndarray, env_out: np.ndarray) -> PulseRecord:
    dt = np.diff(t)

    def trapezoid(y):
        # np.trapezoid(y, t)'s own expression, with the steps taken once
        return (dt * (y[1:] + y[:-1]) / 2.0).sum()

    def centroid(magnitude):
        w = magnitude**2
        total = trapezoid(w)
        if total == 0:
            return 0.0
        return float(trapezoid(w * t) / total)

    mag_in = np.abs(env_in)
    mag_out = np.abs(env_out)
    i_in = int(np.argmax(mag_in))
    i_out = int(np.argmax(mag_out))
    # the peaks off the arrays, as pulse.csv prints them
    peak_in, peak_out = mag_in[i_in], mag_out[i_out]
    phase = float(np.angle(env_out[i_out] * np.conj(env_in[i_in])))
    return PulseRecord(
        t_grid=t,
        envelope_in=env_in,
        envelope_out=env_out,
        measured_delay=centroid(mag_out) - centroid(mag_in),
        measured_attenuation=float(peak_out / peak_in) if peak_in else 0.0,
        # a real output's peaks have exact zero imaginary parts, whose sign
        # can make np.angle read -pi; the phase is wrapped to (-pi, pi]
        measured_phase=math.pi if phase == -math.pi else phase,
    )
