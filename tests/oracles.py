"""Independent reference routes the tests check the package against.

None of these run in the package itself: each recomputes a quantity the
package gets in closed form, by a different method.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np

from exciton_eit import CONST, FieldDrive, LadderSystem, chi, group_velocity
from exciton_eit.bloch import _expm, _rhs_vector
from exciton_eit.levels import _PANEL_SPAN, _ylm_sq


def group_index_fd(omega, system: LadderSystem, drive: FieldDrive, rel_step: float = 1e-6):
    """Finite-difference group index, for cross-checking the analytic path."""
    scale = max(system.gamma_ab, system.gamma_bc, abs(drive.Omega2), 1.0)
    h = rel_step * scale
    dre = (np.real(chi(np.asarray(omega) + h, system, drive))
           - np.real(chi(np.asarray(omega) - h, system, drive))) / (2.0 * h)
    return 1.0 + 0.5 * drive.omega1 * dre


def window_center_np(system: LadderSystem, drive: FieldDrive) -> tuple[float, float]:
    """(Im chi, n_g) at the window center in numpy complex scalars.

    The route ``window_metrics`` took at every delta2 before its float
    closed form at delta2 = 0: the product form of chi and chi' evaluated
    at the center, with numpy's complex division.
    """
    pref = system.chi_prefactor
    center = drive.delta1 - drive.delta2
    om2_sq = abs(drive.Omega2) ** 2
    one = np.complex128(center - drive.delta1 + 1j * system.gamma_ab)
    inner = np.complex128(center - drive.delta1 + drive.delta2 + 1j * system.gamma_bc
                          if om2_sq != 0 else 1.0)
    p = one * inner - om2_sq
    center_abs = float((-pref * inner / p).imag)
    dchi = float((pref * (inner * inner + om2_sq) / (p * p)).real)
    return center_abs, float(1.0 + 0.5 * drive.omega1 * dchi)


def sweep_broadcast(system: LadderSystem, drive: FieldDrive, omega2_grid):
    """(Im chi, n_g) at the window center over an array of Omega2, in numpy
    complex arrays.

    ``sweep_control``'s complex broadcast written out: one broadcast of the
    product form of chi and chi', with the bare line (inner factor 1) where
    |Omega2|^2 is 0.
    """
    pref = system.chi_prefactor
    center = drive.delta1 - drive.delta2
    om2_sq = np.asarray(omega2_grid, dtype=float) ** 2
    one = center - drive.delta1 + 1j * system.gamma_ab
    inner = np.where(om2_sq == 0, 1.0,
                     center - drive.delta1 + drive.delta2 + 1j * system.gamma_bc)
    p = one * inner - om2_sq
    dchi = pref * (inner * inner + om2_sq) / (p * p)
    return (-pref * inner / p).imag, 1.0 + 0.5 * drive.omega1 * dchi.real


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
    chi0 = chi(center, system, drive)
    vg = group_velocity(center, system, drive)
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


def _complex_pass(env, params, drive, system, n_pad):
    """The input spectrum, the output spectrum and the padded output of one
    complex FFT pass of length ``n_pad``."""
    omega = -2.0 * np.pi * np.fft.fftfreq(n_pad, params.dt)
    transfer = np.exp(1j * drive.omega1 * chi(omega, system, drive) * params.L
                      / (2.0 * CONST.c))
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
    omega = -2.0 * np.pi * np.asarray(freq)
    response = chi(omega, system, drive) / system.chi_prefactor
    return np.exp(1j * params.kappa1_sq * params.L / CONST.c * response)


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
    center on each side (0 if the center sits at or above the half level,
    each side capped at max(10 gamma_ab, 4 |Omega2|)); the maxima are the
    real roots of N'D - ND' where it falls through zero, as offsets from
    the center.  An independent route to the package's window and peak
    kernels.
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
        if crossing[0] >= 0:
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
