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

There is no z discretisation: ``PropagationParams.z_steps`` is kept,
validated and reported, but does not change the envelope.  The time grid
is the only resolution, and the half-resolution rerun checks it.  Very
thick slabs are not resolvable: the ~1e-16 roundoff of the sampled input
(about e^-34 of its peak) passes the transparent wings of chi and swamps
the transmitted pulse, so a measured attenuation below
``ATTENUATION_FLOOR`` (about e^-32) marks the record unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import CONST
from .medium import FieldDrive, LadderSystem
from .susceptibility import chi

# zero padding of the time grid, so the slab's response tail cannot wrap
# round onto the start of the window
_PAD = 4

# below this peak attenuation the output is the input's roundoff, not the pulse
ATTENUATION_FLOOR = 1e-14


@dataclass(frozen=True)
class PropagationParams:
    """Slab and grid description for a propagation run."""

    kappa1_sq: float   # N |d_ab|^2 omega1 / (2 hbar eps0), (rad/s)^2
    L: float           # slab thickness, m
    z_steps: int
    t_steps: int
    dt: float          # retarded-time step, s
    dz: float          # m

    def __post_init__(self):
        if self.L < 0 or self.z_steps < 1 or self.t_steps < 8:
            raise ValueError("propagation grid is degenerate")
        if self.dz > CONST.c * self.dt:
            raise ValueError(
                f"grid violates dz <= c*dt (dz={self.dz:.3g}, c*dt={CONST.c * self.dt:.3g})"
            )

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
            dz=L / z_steps,
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
            "dz_m": self.dz,
        }


def gaussian_envelope(t_grid, center: float, sigma: float,
                      amplitude: complex = 1.0) -> np.ndarray:
    """Gaussian amplitude envelope on a time grid."""
    t = np.asarray(t_grid, dtype=float)
    return amplitude * np.exp(-((t - center) ** 2) / (2.0 * sigma**2)).astype(complex)


@dataclass
class PulseRecord:
    """Input/output envelopes and the measured propagation observables.

    ``measured_delay`` is the intensity-centroid delay relative to vacuum
    transit (the run works in the retarded frame), so a vacuum run reports
    exactly zero.  ``measured_attenuation`` compares envelope peaks and
    ``measured_phase`` the envelope phases at those peaks.
    """

    t_grid: np.ndarray
    envelope_in: np.ndarray
    envelope_out: np.ndarray
    measured_delay: float
    measured_attenuation: float
    measured_phase: float
    converged: bool = True
    convergence_delta: float = 0.0
    params: PropagationParams | None = None


def propagate_pulse(envelope_in, params: PropagationParams, drive: FieldDrive,
                    system: LadderSystem) -> PulseRecord:
    """Pass the probe envelope through the slab and measure the pulse.

    ``envelope_in`` is the complex probe Rabi envelope sampled on
    ``params.t_grid`` at the entrance face.  The envelope should be
    spectrally narrow compared to the transparency window for the
    first-order theory the source term is built on.  The slab acts as the
    exact transfer function exp(i w1 chi(w) L / 2c) on the zero-padded
    spectrum, so ``params.z_steps`` does not change the result.  A rerun
    at half the time resolution is compared and a delay shift above 1%
    flags the record as unconverged; this tests the time grid only.  A
    measured attenuation below ``ATTENUATION_FLOOR`` flags it unconverged
    too, since the rerun sees the same roundoff floor.
    """
    env0 = np.asarray(envelope_in, dtype=complex)
    if env0.shape != (params.t_steps + 1,):
        raise ValueError("envelope length must match the time grid")

    env_out = _transmit(env0, params, drive, system)
    record = _measure(params.t_grid, env0, env_out, params)

    if params.t_steps >= 16:
        coarse = replace(params, t_steps=params.t_steps // 2, dt=params.dt * 2.0)
        env0_c = env0[::2]
        out_c = _transmit(env0_c, coarse, drive, system)
        rec_c = _measure(coarse.t_grid, env0_c, out_c, coarse)
        scale = max(abs(record.measured_delay), params.dt)
        delta = abs(record.measured_delay - rec_c.measured_delay) / scale
        record.convergence_delta = delta
        record.converged = delta <= 0.01
    if record.measured_attenuation < ATTENUATION_FLOOR:
        record.converged = False
    return record


def _transmit(env0: np.ndarray, params: PropagationParams, drive: FieldDrive,
              system: LadderSystem) -> np.ndarray:
    if params.kappa1_sq == 0.0:
        return env0.copy()
    n = len(env0)
    n_pad = _PAD * n
    # numpy's inverse FFT builds e^{+i W t}; the envelope component is e^{-i w t}
    omega = -2.0 * np.pi * np.fft.fftfreq(n_pad, params.dt)
    # kappa1^2 chi / chi_prefactor = w1 chi / 2 for params built by from_system
    response = chi(omega, system, drive) / system.chi_prefactor
    transfer = np.exp(1j * params.kappa1_sq * params.L / CONST.c * response)
    return np.fft.ifft(np.fft.fft(env0, n_pad) * transfer)[:n]


def _measure(t: np.ndarray, env_in: np.ndarray, env_out: np.ndarray,
             params: PropagationParams) -> PulseRecord:
    def centroid(e):
        w = np.abs(e) ** 2
        total = np.trapezoid(w, t)
        if total == 0:
            return 0.0
        return float(np.trapezoid(w * t, t) / total)

    i_in = int(np.argmax(np.abs(env_in)))
    i_out = int(np.argmax(np.abs(env_out)))
    peak_in = abs(env_in[i_in])
    peak_out = abs(env_out[i_out])
    return PulseRecord(
        t_grid=t,
        envelope_in=env_in,
        envelope_out=env_out,
        measured_delay=centroid(env_out) - centroid(env_in),
        measured_attenuation=float(peak_out / peak_in) if peak_in else 0.0,
        measured_phase=float(np.angle(env_out[i_out]) - np.angle(env_in[i_in])),
        params=params,
    )

