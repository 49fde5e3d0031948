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

At the resonant drive delta1 = delta2 = 0, chi(-w) = -chi(w)* holds
exactly, so the transfer is Hermitian and the slab's impulse response is
real: a real envelope leaves the slab real.  There the real and the
imaginary part of the envelope each go through one rfft/irfft pair of
length N, a part that is exactly zero (the imaginary part of the CLI's
Gaussian) is skipped, and the transfer is evaluated once, on the N/2 + 1
one-sided frequencies.  The output of a real input is then exactly real,
so its phase reads exactly 0 or pi.  Every other drive takes one complex
FFT pair with the transfer on all N frequencies.

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
bin, which count once.  A share above ``LEAK_LIMIT`` marks the record
unconverged.
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
    spectrum, in one forward and one inverse FFT (at resonant drive, one
    real pair per nonzero part of the envelope), so ``params.z_steps``
    does not change the result.  The record is flagged unconverged when
    its ``band_share`` or ``spill_share``, both read off that one pass,
    exceeds ``LEAK_LIMIT``, or when its measured attenuation is below
    ``ATTENUATION_FLOOR``.
    """
    env0 = np.asarray(envelope_in, dtype=complex)
    if env0.shape != (params.t_steps + 1,):
        raise ValueError("envelope length must match the time grid")

    n_pad = _padded_length(params.t_steps)
    if params.kappa1_sq == 0.0:
        record = _measure(params.t_grid, env0, env0.copy())
    elif drive.delta1 == 0.0 and drive.delta2 == 0.0:
        record = _propagate_parts(env0, n_pad, params, drive, system)
    else:
        transfer = _transfer(np.fft.fftfreq(n_pad, params.dt), params, drive, system)
        spectrum = np.fft.fft(env0, n_pad)
        spectrum_out = spectrum * transfer
        padded = np.fft.ifft(spectrum_out)
        record = _measure(params.t_grid, env0, padded[:len(env0)])
        band = slice(n_pad // 4, n_pad - n_pad // 4)
        record.band_share = max(_share(s[band], s) for s in (spectrum, spectrum_out))
        record.spill_share = _share(padded[len(env0):], padded)
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


def _propagate_parts(env0: np.ndarray, n_pad: int, params: PropagationParams,
                     drive: FieldDrive, system: LadderSystem) -> PulseRecord:
    """The resonant route: the real and the imaginary part of the envelope
    each through one rfft/irfft pair, skipping a part that is all zero.

    ``irfft`` keeps only the real part of an even length's Nyquist bin,
    the Hermitian-consistent value.  The shares add the parts' energies;
    for a two-part envelope that counts bin N//4 as the mean of its two
    sides."""
    transfer = _transfer(np.fft.rfftfreq(n_pad, params.dt), params, drive, system)
    n = len(env0)
    env_out = np.zeros(n, dtype=complex)
    # (whole, part) energies: the input spectrum and its band, the output
    # spectrum and its band, the padded output and its spill past the window
    energy = np.zeros((3, 2))
    for part, out in ((env0.real, env_out.real), (env0.imag, env_out.imag)):
        if not part.any():
            continue
        spectrum = np.fft.rfft(part, n_pad)
        spectrum_out = spectrum * transfer
        padded = np.fft.irfft(spectrum_out, n_pad)
        out[:] = padded[:n]
        energy += (_total_and_band(spectrum, n_pad), _total_and_band(spectrum_out, n_pad),
                   (padded @ padded, padded[n:] @ padded[n:]))
    band_in, band_out, spill = (_ratio(part, whole) for whole, part in energy)
    record = _measure(params.t_grid, env0, env_out)
    record.band_share = max(band_in, band_out)
    record.spill_share = spill
    return record


def _total_and_band(spectrum: np.ndarray, n_pad: int) -> tuple[float, float]:
    """The energy of a real signal's two-sided spectrum, whole and in the
    bins [N//4, N - N//4), from its one-sided ``spectrum``."""
    def two_sided(s):
        # every bin has a twin but the first (DC; or bin N//4, whose twin
        # -N/4 is outside the band) and, for even N, the Nyquist bin
        energy = 2.0 * np.vdot(s, s).real - abs(s[0]) ** 2
        return energy - abs(s[-1]) ** 2 if n_pad % 2 == 0 else energy
    return two_sided(spectrum), two_sided(spectrum[n_pad // 4:])


def _ratio(part: float, whole: float) -> float:
    return float(part / whole) if whole else 0.0


def _share(part: np.ndarray, whole: np.ndarray) -> float:
    """The energy of ``part`` as a share of the energy of ``whole``."""
    return _ratio(np.vdot(part, part).real, np.vdot(whole, whole).real)


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
    # the scalar abs, whose last bit can differ from the array's
    peak_in = abs(env_in[i_in])
    peak_out = abs(env_out[i_out])
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
