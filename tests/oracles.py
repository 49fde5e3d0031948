"""Independent reference routes the tests check the package against.

None of these run in the package itself: each recomputes a quantity the
package gets in closed form, by a different method, or, as
``plain_transfer`` and ``measure_trapezoid`` do, takes a route's steps
out of place.  The complex product form of chi is here, the form the
package evaluated before its real closed form; so are the public
functions the package no longer exports because only the tests called
them, and the one-pass config parser that the memoised line parser
replaced.
"""

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np

from exciton_eit import CONST, FieldDrive, LadderSystem
from exciton_eit.bloch import DensityMatrixState, _expm, _rhs_vector
from exciton_eit.config import (_KEYS, _LIST_KEYS, _UNITS, ConfigError, ScenarioConfig,
                                 _col_of, _convert)
from exciton_eit.constants import _RADS_PER_MEV
from exciton_eit.levels import _PANEL_SPAN, _ylm_sq
from exciton_eit.susceptibility import _columns


def response_complex(x, om2_sq, system: LadderSystem, drive: FieldDrive):
    """(chi, chi') in numpy complex at x = omega - delta1, broadcast against
    |Omega2|^2: the product form the package evaluated before its real
    closed form.

    With the inner factor x + delta2 + i gamma_bc (1 where |Omega2|^2 is 0)
    and P = (x + i gamma_ab) inner - |Omega2|^2, chi = -pref inner / P and
    chi' = pref (inner^2 + |Omega2|^2) / P^2.  Nothing divides by the inner
    factor, so with gamma_bc = 0 both reach their two-photon limits.  A
    pole raises ZeroDivisionError.
    """
    x = np.asarray(x, dtype=float)
    inner = np.where(om2_sq == 0, 1.0, x + drive.delta2 + 1j * system.gamma_bc)
    p = (x + 1j * system.gamma_ab) * inner - om2_sq
    if np.any(p == 0):
        raise ZeroDivisionError("susceptibility evaluated exactly on a pole")
    pref = system.chi_prefactor
    return -pref * inner / p, pref * (inner * inner + om2_sq) / (p * p)


def chi_complex(omega, system: LadderSystem, drive: FieldDrive):
    """chi at probe offsets ``omega`` by ``response_complex``: a complex at a
    number, an array otherwise."""
    x = response_complex(np.asarray(omega, dtype=float) - drive.delta1,
                         abs(drive.Omega2) ** 2, system, drive)[0]
    return complex(x) if x.ndim == 0 else x


def chi_derivative(omega, system: LadderSystem, drive: FieldDrive):
    """d chi / d omega (units s) at probe offsets ``omega`` by
    ``response_complex``: a complex at a number, an array otherwise."""
    dx = response_complex(np.asarray(omega, dtype=float) - drive.delta1,
                          abs(drive.Omega2) ** 2, system, drive)[1]
    return complex(dx) if dx.ndim == 0 else dx


def group_index_fd(omega, system: LadderSystem, drive: FieldDrive, rel_step: float = 1e-6):
    """Finite-difference group index, for cross-checking the analytic path."""
    scale = max(system.gamma_ab, system.gamma_bc, abs(drive.Omega2), 1.0)
    h = rel_step * scale
    dre = (np.real(chi_complex(np.asarray(omega) + h, system, drive))
           - np.real(chi_complex(np.asarray(omega) - h, system, drive))) / (2.0 * h)
    return 1.0 + 0.5 * drive.omega1 * dre


def spectrum_complex(system: LadderSystem, drive: FieldDrive, omega):
    """(Re chi, Im chi, n_g) over an array of offsets by ``response_complex``:
    the route ``compute_spectrum`` took before its real closed form."""
    x, dx = response_complex(np.asarray(omega, dtype=float) - drive.delta1,
                             abs(drive.Omega2) ** 2, system, drive)
    return x.real, x.imag, 1.0 + 0.5 * drive.omega1 * dx.real


def response_mp(system: LadderSystem, drive: FieldDrive, omega: float):
    """(chi, chi') at 40 digits, as mpmath numbers, at the offset ``omega``.

    The inputs are the float offsets the package forms first,
    x = omega - delta1 and y = x + delta2, taken as exact, so the error
    measured is that of the response's evaluation alone.
    """
    with mpmath.workdps(40):
        x = omega - drive.delta1
        om2_sq = mpmath.mpf(abs(drive.Omega2)) ** 2
        inner = (mpmath.mpc(x + drive.delta2, system.gamma_bc) if om2_sq
                 else mpmath.mpf(1))
        p = mpmath.mpc(x, system.gamma_ab) * inner - om2_sq
        pref = mpmath.mpf(system.chi_prefactor)
        return -pref * inner / p, pref * (inner * inner + om2_sq) / (p * p)


def bloch_samples_stepwise(initial, drive: FieldDrive, system: LadderSystem, T: float,
                           n: int, decay_mode: str):
    """(step, z, y) of the Bloch samples at np.linspace(0, T, n), one step at a time.

    The generator is read off nine single-state calls of the right-hand
    side, in the coordinates z that replace sigma_bb by the trace
    (y = S z), and the package's exponential over T/(n - 1) is applied
    n - 1 times in sequence: the route ``integrate_bloch`` took before it
    sampled by repeated squaring.
    """
    S = np.eye(9)
    S[1, 0] = S[1, 2] = -1.0
    generator = np.column_stack([_rhs_vector(column, drive, system, decay_mode)
                                 for column in S.T])
    generator[1] = 0.0
    step = _expm(generator * (T / (n - 1)), T)
    z = np.empty((9, n))
    z[:, 0] = initial.to_vector()
    z[1, 0] = initial.trace
    for k in range(1, n):
        z[:, k] = step @ z[:, k - 1]
    return step, z, S @ z


def _genlaguerre(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre L_k^alpha by the stable three-term recurrence."""
    if k == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = 1.0 + alpha - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def stark_coupling_integral(n: int, order: int = 48) -> float:
    """The nS <-> nP coupling coefficient from its Laguerre-product integral form.

    Gauss-Laguerre quadrature of order >= 40 integrates the polynomial
    integrand exactly for every n <= 12; an independent route to
    cross-check the closed form ``stark_coupling``.
    """
    if n < 2:
        raise ValueError("coupling coefficient requires n >= 2")
    x, w = np.polynomial.laguerre.laggauss(order)
    integrand = x**4 * _genlaguerre(n - 1, 1.0, x) * _genlaguerre(n - 2, 3.0, x)
    integral = float(np.dot(w, integrand))
    pref = (1.0 / math.sqrt(3.0)) * math.sqrt(
        math.factorial(n - 1) * math.factorial(n - 2)
        / (16.0 * math.factorial(n) * math.factorial(n + 1))
    )
    return pref * integral


def analytic_envelope(envelope_in, t_grid, z: float, drive: FieldDrive,
                      system: LadderSystem) -> np.ndarray:
    """First-order envelope solution after a distance z, on the lab clock.

    Applies the amplitude/phase factor exp(i w1 chi'(0) z / 2c
    - w1 chi''(0) z / 2c) evaluated at the window center and shifts the
    input by the group delay z / v_g via interpolation on the time grid
    (zero outside the grid).
    """
    t = np.asarray(t_grid, dtype=float)
    env = np.asarray(envelope_in, dtype=complex)
    center = drive.delta1 - drive.delta2
    chi0 = chi_complex(center, system, drive)
    ng = 1.0 + 0.5 * drive.omega1 * chi_derivative(center, system, drive).real
    vg = CONST.c / (ng + 0.5 * chi0.real)
    factor = np.exp(1j * drive.omega1 * chi0.real * z / (2.0 * CONST.c)
                    - drive.omega1 * chi0.imag * z / (2.0 * CONST.c))
    shifted_t = t - z / vg
    shifted = (np.interp(shifted_t, t, env.real, left=0.0, right=0.0)
               + 1j * np.interp(shifted_t, t, env.imag, left=0.0, right=0.0))
    return factor * shifted


def slab_transmission(envelope_in, params, drive: FieldDrive, system: LadderSystem,
                      n_pad: int | None = None) -> np.ndarray:
    """The slab's output envelope by one FFT of length ``n_pad``.

    Multiplies the zero-padded spectrum by exp(i w1 chi(w) L / 2c) and
    crops the inverse transform to the grid.  The default length, four
    times the grid, is the fixed padding the package used before it
    padded to 5-smooth lengths.
    """
    env = np.asarray(envelope_in, dtype=complex)
    if n_pad is None:
        n_pad = 4 * len(env)
    if params.kappa1_sq == 0.0:
        return env.copy()
    return _complex_pass(env, params, drive, system, n_pad)[2][:len(env)]


def converged_output(envelope_in, params, drive: FieldDrive, system: LadderSystem) -> np.ndarray:
    """The slab's output by one complex pass padded to 32 times the grid,
    whole: the window and the tail past it.  So little of a decaying
    response wraps round that far that this stands for the linear
    convolution of the input with the slab's response."""
    env = np.asarray(envelope_in, dtype=complex)
    return _complex_pass(env, params, drive, system, 32 * len(env))[2]


def _complex_pass(env, params, drive, system, n_pad):
    """The input spectrum, the output spectrum and the padded output of one
    complex FFT pass of length ``n_pad``.  An even length's Nyquist bin
    takes the mean of the transfer at +fs/2 and -fs/2."""
    def slab(omega):
        return np.exp(1j * drive.omega1 * chi_complex(omega, system, drive) * params.L
                      / (2.0 * CONST.c))

    omega = -2.0 * np.pi * np.fft.fftfreq(n_pad, params.dt)
    transfer = slab(omega)
    if n_pad % 2 == 0:
        nyquist = n_pad // 2
        transfer[nyquist] = (transfer[nyquist] + slab(-omega[nyquist])) / 2.0
    spectrum = np.fft.fft(env, n_pad)
    spectrum_out = spectrum * transfer
    return spectrum, spectrum_out, np.fft.ifft(spectrum_out)


def grid_shares(envelope_in, params, drive: FieldDrive, system: LadderSystem,
                n_pad: int) -> tuple[float, float]:
    """``band_share`` and ``spill_share`` off one complex FFT pass of length
    ``n_pad``: the larger of the input's and the output's spectral energy
    share in the bins [n_pad // 4, n_pad - n_pad // 4), and the padded
    output's energy share past the grid."""
    env = np.asarray(envelope_in, dtype=complex)
    spectrum, spectrum_out, padded = _complex_pass(env, params, drive, system, n_pad)

    def share(part, whole):
        return np.sum(np.abs(part) ** 2) / np.sum(np.abs(whole) ** 2)

    band = slice(n_pad // 4, n_pad - n_pad // 4)
    return (max(share(s[band], s) for s in (spectrum, spectrum_out)),
            share(padded[len(env):], padded))


def plain_transfer(freq, params, drive: FieldDrive, system: LadderSystem) -> np.ndarray:
    """The slab transfer exp(i w1 chi(w) L / 2c) on the FFT frequencies
    ``freq``: ``propagation._transfer``'s operations in their order, each
    into a new array where the package works in place."""
    re, im, _ = _columns(-2.0 * np.pi * np.asarray(freq), system, drive)
    gain = params.kappa1_sq * params.L / CONST.c / system.chi_prefactor
    phase = np.empty(len(re), dtype=complex)
    phase.real, phase.imag = im * -gain, re * gain
    return np.exp(phase)


def measure_trapezoid(t, env_in, env_out):
    """``propagate_pulse``'s observables through ``np.trapezoid``, with
    ``np.abs`` taken afresh for every use: the package's earlier form."""
    from exciton_eit.propagation import PulseRecord

    def centroid(e):
        w = np.abs(e) ** 2
        total = np.trapezoid(w, t)
        if total == 0:
            return 0.0
        return float(np.trapezoid(w * t, t) / total)

    i_in = int(np.argmax(np.abs(env_in)))
    i_out = int(np.argmax(np.abs(env_out)))
    peak_in = np.abs(env_in)[i_in]
    peak_out = np.abs(env_out)[i_out]
    return PulseRecord(
        t_grid=t,
        envelope_in=env_in,
        envelope_out=env_out,
        measured_delay=centroid(env_out) - centroid(env_in),
        measured_attenuation=float(peak_out / peak_in) if peak_in else 0.0,
        measured_phase=float(np.angle(env_out[i_out] * np.conj(env_in[i_in]))),
    )


def rerun_delay_shift(envelope_in, params, drive: FieldDrive, system: LadderSystem) -> float:
    """The grid check the package ran before it read its checks off one pass.

    The slab runs on the grid and again on every second sample, both
    through ``slab_transmission``; the result is the shift of the
    intensity-centroid delay between the two, relative to the delay (or
    to one step, if that is larger).  A shift above 1% flagged the grid.
    Needs ``params.t_steps >= 16``, so that the coarse grid has 8 steps.
    """
    def delay(env, p):
        out = slab_transmission(env, p, drive, system)
        t = p.t_grid
        return (np.trapezoid(np.abs(out) ** 2 * t, t) / np.trapezoid(np.abs(out) ** 2, t)
                - np.trapezoid(np.abs(env) ** 2 * t, t) / np.trapezoid(np.abs(env) ** 2, t))

    env = np.asarray(envelope_in, dtype=complex)
    fine = delay(env, params)
    coarse = delay(env[::2], replace(params, t_steps=params.t_steps // 2, dt=2.0 * params.dt))
    return abs(fine - coarse) / max(abs(fine), params.dt)


def _mp_polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _mp_real_roots(coef):
    """Real roots of an ascending coefficient list, by ``mpmath.polyroots``."""
    while coef and coef[-1] == 0:
        coef = coef[:-1]
    zeros = []
    while len(coef) > 1 and coef[0] == 0:      # exact roots at 0
        coef, zeros = coef[1:], [mpmath.mpf(0)]
    if len(coef) < 2:
        return zeros
    roots = mpmath.polyroots(coef[::-1], maxsteps=2000, extraprec=200)
    return sorted(zeros + [mpmath.re(r) for r in roots if abs(mpmath.im(r)) <= 1e-30])


def window_and_peaks_mp(system: LadderSystem, drive: FieldDrive):
    """(width, maxima) of Im chi at 50 digits from the exact float inputs.

    Writes Im chi = pref N(x)/D(x) in the physical offset x from the center
    without reducing it: P = (i gamma_ab - delta2 + x)(i gamma_bc + x) -
    |Omega2|^2, N = -Im((i gamma_bc + x) conj P), D = |P|^2, where the
    factor i gamma_bc + x is 1 at Omega2 = 0, as in the package's product
    form (otherwise N and D share x^2 at gamma_bc = 0).  The width is
    the span between the real roots of N - D/(2 gamma_ab) nearest the
    center on each side (0 if the center sits at or above the half level
    or the control is off, each side capped at max(10 gamma_ab,
    4 |Omega2|)); the maxima are the real roots of N'D - ND' where it falls
    through zero, as offsets from the center.  An independent route to the
    package's window and peak kernels.
    """
    with mpmath.workdps(50):
        # in units of s, so that the coefficients are of order one
        s = mpmath.mpf(max(system.gamma_ab, abs(drive.Omega2)))
        g, c = system.gamma_ab / s, system.gamma_bc / s
        om2 = abs(drive.Omega2) / s
        a = mpmath.mpc(-drive.delta2 / s, g)
        inner = [mpmath.mpc(0, c), 1] if om2 else [1]
        p = _mp_polymul([a, 1], inner)
        p[0] -= om2**2
        pc = [mpmath.conj(z) for z in p]
        num = [-mpmath.im(z) for z in _mp_polymul(inner, pc)] + [0, 0]
        den = [mpmath.re(z) for z in _mp_polymul(p, pc)]

        span = max(10 * g, 4 * om2)
        crossing = [n - d / (2 * g) for n, d in zip(num, den)]
        if crossing[0] >= 0 or om2 == 0:
            width = mpmath.mpf(0)
        else:
            edges = _mp_real_roots(crossing)
            right = min([e for e in edges if e > 0] + [span])
            left = min([-e for e in edges if e < 0] + [span])
            width = s * (right + left)

        dnum = [k * v for k, v in enumerate(num)][1:]
        dden = [k * v for k, v in enumerate(den)][1:]
        slope = [u - v for u, v in zip(_mp_polymul(dnum, den), _mp_polymul(num, dden))]
        dslope = [k * v for k, v in enumerate(slope)][1:]
        maxima = [s * x for x in _mp_real_roots(slope)
                  if mpmath.polyval(dslope[::-1], x) < 0]
        return width, maxima


def _ylm_sq_mp(l: int, m: int, u):
    """|Y_lm(u)|^2, u = cos(theta), by the normalized associated-Legendre
    recurrence (no factorials, no series derivatives)."""
    m = abs(m)
    p = mpmath.sqrt((2 * m + 1) / (4 * mpmath.pi)) * (1 - u * u) ** (mpmath.mpf(m) / 2)
    for i in range(1, m + 1):
        p *= mpmath.sqrt(mpmath.mpf(2 * i - 1) / (2 * i))
    prev, cur = 0, p
    for j in range(m + 1, l + 1):
        a = mpmath.sqrt(mpmath.mpf(4 * j * j - 1) / (j * j - m * m))
        b = mpmath.sqrt(mpmath.mpf((j - 1) ** 2 - m * m) / (4 * (j - 1) ** 2 - 1))
        prev, cur = cur, a * (u * cur - b * prev)
    return cur * cur


def anisotropy_eta_mp(l: int, m: int, gamma: float):
    """eta_lm = 4 pi int_0^1 |Y_lm(u)|^2 / sqrt(1 - k u^2) du, k = 1 - gamma^2,
    at 40 digits, in u directly (no substitution), with ``mpmath.quad``.

    The integrand's square root vanishes just past u = 1 for gamma -> 0
    and has its scale 1/sqrt(-k) near u = 0 for large gamma, so the
    interval is cut at points that close in geometrically on each.  That
    quadrature loses digits as gamma grows (2e-29 relative at gamma =
    1e20, 1e-15 at 1e30, 3e-6 at 1e39), so past gamma = 1e20 the
    reference is the large-gamma form, a = sqrt(-k), p = |Y_lm|^2:
    eta = 4 pi (p(0) asinh(a) + int_0^1 (p(u) - p(0)) / u du) / a.
    p is even in u, so what it drops is of order 1/a^2 relative (4e-39
    at gamma = 1e20, l = 1).
    """
    with mpmath.workdps(40):
        k = 1 - mpmath.mpf(gamma) ** 2
        if k == 0:
            return mpmath.mpf(1)
        if k < -mpmath.mpf(10) ** 40:
            a = mpmath.sqrt(-k)
            p0 = _ylm_sq_mp(l, m, mpmath.mpf(0))
            rest = mpmath.quad(lambda u: (_ylm_sq_mp(l, m, u) - p0) / u, [0, 1],
                               method="gauss-legendre")
            return 4 * mpmath.pi * (p0 * mpmath.asinh(a) + rest) / a
        cuts = {mpmath.mpf(i) / 8 for i in range(9)}
        step = 1 / mpmath.sqrt(-k) if k < 0 else 1 / mpmath.sqrt(k) - 1
        while step < 0.5:
            cuts.add(step if k < 0 else 1 - step)
            step *= 4
        return 4 * mpmath.pi * mpmath.quad(
            lambda u: _ylm_sq_mp(l, m, u) / mpmath.sqrt(1 - k * u * u), sorted(cuts),
            method="gauss-legendre")


def anisotropy_eta_panelwise(l: int, m: int, gamma: float) -> float:
    """``anisotropy_eta``'s panel rule, one panel's nodes at a time.

    The same nodes, weights and summation order as the package, which
    evaluates every panel's nodes in one call: the two must agree bit for
    bit.
    """
    k = 1.0 - gamma**2
    if k == 0:
        return 1.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    root = math.sqrt(abs(k))
    top = math.asin(root) if k > 0 else math.asinh(root)
    panels = max(1, math.ceil(l * top / _PANEL_SPAN))
    width = top / panels
    total = 0.0
    for i in range(panels):
        phi = width * (i + 0.5 * (nodes + 1.0))
        u = (np.sin(phi) if k > 0 else np.sinh(phi)) / root
        total += float(np.dot(weights, _ylm_sq(l, m, u)))
    return 2.0 * math.pi * width / root * total


def plain_transfer_list(omega, params, drive: FieldDrive, system: LadderSystem) -> list:
    """``propagation._transfer_list``'s operations in their order, one
    offset at a time."""
    gain = params.kappa1_sq * params.L / CONST.c / system.chi_prefactor
    out = []
    for v in omega:
        re, im, _ = _columns(v, system, drive)
        out.append(cmath.exp(complex(-gain * im, gain * re)))
    return out


def measure_list_loops(t, env_in, env_out):
    """``propagation._measure_list``'s observables by explicit loops over
    the samples: each trapezoid the exactly rounded sum of its terms, each
    peak the first sample of largest modulus."""
    from exciton_eit.propagation import PulseRecord

    def trapezoid(y):
        return math.fsum([(t[k + 1] - t[k]) * (y[k + 1] + y[k]) / 2.0
                          for k in range(len(t) - 1)])

    def centroid(env):
        weight = [abs(z) * abs(z) for z in env]
        total = trapezoid(weight)
        if total == 0:
            return 0.0
        return trapezoid([w * s for w, s in zip(weight, t)]) / total

    def peak(env):
        best = 0
        for k, z in enumerate(env):
            if abs(z) > abs(env[best]):
                best = k
        return best

    i_in, i_out = peak(env_in), peak(env_out)
    z = env_out[i_out] * env_in[i_in].conjugate()
    phase = math.atan2(z.imag, z.real)
    return PulseRecord(
        t_grid=t,
        envelope_in=env_in,
        envelope_out=env_out,
        measured_delay=centroid(env_out) - centroid(env_in),
        measured_attenuation=abs(env_out[i_out]) / abs(env_in[i_in]) if env_in[i_in] else 0.0,
        measured_phase=math.pi if phase == -math.pi else phase,
    )


# ---- public functions of the package that only the tests called ----

def bloch_rhs(state: DensityMatrixState, drive: FieldDrive, system: LadderSystem,
              decay_mode: str = "literal") -> DensityMatrixState:
    """Time derivative of the six density-matrix components."""
    return DensityMatrixState.from_vector(
        _rhs_vector(state.to_vector(), drive, system, decay_mode))


def rabi_frequency(dipole_moment: float, field_amplitude: float) -> float:
    """Rabi rate d eps / hbar in rad/s, for a dipole moment d >= 0 in C m
    and a field amplitude eps in V/m."""
    if dipole_moment < 0:
        raise ValueError("dipole moment must be non-negative")
    return dipole_moment * field_amplitude / CONST.hbar


def angular_frequency_to_energy(omega: float) -> float:
    """The inverse of ``energy_to_angular_frequency``: rad/s to meV."""
    return omega / _RADS_PER_MEV


def parse_config_reference(text: str) -> ScenarioConfig:
    """``parse_config`` as it was before lines were parsed once and
    remembered: one pass over the text, every line parsed where it stands.
    Missing keys take the built-in defaults.

    A value that ``validate`` rejects is reported at the line and column
    of its key (the later one, when a check reads two keys).
    """
    values: dict[str, object] = {}
    located: dict[str, tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value unit'", lineno, 1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        key_col = raw.index(key) + 1 if key and key in raw else 1
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno, key_col)
        if key in located:
            raise ConfigError(f"duplicate key '{key}'", lineno, key_col)
        located[key] = (lineno, key_col)
        dimension, attr = _KEYS[key]
        value_col = raw.index("=") + 2
        values[attr] = _parse_value_reference(key, dimension, value_part, lineno, value_col)
    cfg = ScenarioConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        where = [located[key] for key in exc.keys if key in located]
        if not where:
            raise
        raise ConfigError(exc.message, *max(where), keys=exc.keys) from None
    return cfg


def _parse_value_reference(key: str, dimension: str | None, value_part: str,
                 lineno: int, value_col: int):
    """The value of one entry, in canonical units."""
    tokens = value_part.replace(",", " , ").split()
    tokens = [t for t in tokens if t != ","]
    if not tokens:
        raise ConfigError(f"missing value for '{key}'", lineno, value_col)

    if dimension is None:
        if len(tokens) != 1:
            raise ConfigError(f"'{key}' takes a single integer", lineno, value_col)
        try:
            count = int(tokens[0])
        except ValueError:
            raise ConfigError(f"malformed integer '{tokens[0]}' for '{key}'",
                              lineno, _col_of(value_part, tokens, 0, value_col)) from None
        return count

    if len(tokens) < 2:
        raise ConfigError(
            f"'{key}' is a physical quantity and requires a unit suffix",
            lineno, value_col)
    unit = tokens[-1]
    numbers = tokens[:-1]
    if key not in _LIST_KEYS and len(numbers) != 1:
        raise ConfigError(f"'{key}' takes a single value", lineno, value_col)
    if unit not in _UNITS:
        raise ConfigError(f"unknown unit '{unit}' for '{key}'",
                          lineno, _col_of(value_part, tokens, len(numbers), value_col))
    values = []
    for i, tok in enumerate(numbers):
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"malformed number '{tok}' for '{key}'",
                              lineno, _col_of(value_part, tokens, i, value_col)) from None
    try:
        converted = [_convert(v, unit, dimension) for v in values]
    except KeyError:
        raise ConfigError(
            f"unit '{unit}' does not measure a {dimension} (key '{key}')",
            lineno, _col_of(value_part, tokens, len(numbers), value_col)) from None
    for i, value in enumerate(converted):
        if not math.isfinite(value):  # "nan", "inf", or overflow in float() or the unit
            raise ConfigError(f"malformed number '{numbers[i]}' for '{key}': "
                              "values must be finite",
                              lineno, _col_of(value_part, tokens, i, value_col))
    return tuple(converted) if key in _LIST_KEYS else converted[0]
