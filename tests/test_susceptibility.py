"""Spectral response: closed form, dispersion, window metrics, sweeps."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as poly

from exciton_eit import (CONST, EvaluationError, FieldDrive, LadderSystem,
                         chi, compute_spectrum, dressed_peaks,
                         group_index, group_velocity,
                         locate_absorption_peaks, sweep_control,
                         window_metrics)
from exciton_eit import susceptibility
from exciton_eit.susceptibility import OutOfRangeError, SpectrumTable, _real_roots
from oracles import (chi_complex, chi_derivative, group_index_fd, response_complex,
                     response_mp, spectrum_complex, window_and_peaks_mp)


def default_system(N=6.2422e25, gamma_bc=7.596e9):
    return LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13,
        gamma_ab=4.5573e10, gamma_bc=gamma_bc,
        N=N, dipole_ab_sq=0.334e-60)


def drive_for(system, Omega2=2.5e10, Omega1=1e6, delta1=0.0, delta2=0.0):
    return FieldDrive.from_detunings(system, Omega1=Omega1, Omega2=Omega2,
                                     delta1=delta1, delta2=delta2)


def random_parameters(rng):
    gamma_ab = rng.uniform(1e9, 1e11)
    sys_ = LadderSystem.from_frequencies(
        omega_ab=rng.uniform(1e15, 5e15),
        omega_ac=rng.uniform(1e13, 5e13),
        gamma_ab=gamma_ab,
        gamma_bc=rng.uniform(1e8, 1e10),
        N=rng.uniform(1e24, 1e26),
        dipole_ab_sq=rng.uniform(0.05, 2.0) * 1e-60)
    drv = drive_for(sys_,
                    Omega2=rng.uniform(0.0, 2e11),
                    Omega1=rng.uniform(1e4, 1e7),
                    delta1=rng.uniform(-1e11, 1e11),
                    delta2=rng.uniform(-1e11, 1e11))
    return sys_, drv


class TestChi:
    def test_control_off_peak_is_lorentzian_maximum(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=0.0)
        val = chi(drv.delta1, sys_, drv)
        expected = 1j * sys_.chi_prefactor / sys_.gamma_ab
        assert val == pytest.approx(expected, rel=1e-14)

    def test_perfect_transparency_without_ground_dephasing(self):
        sys_ = default_system(gamma_bc=0.0)
        drv = drive_for(sys_, Omega2=2.5e10)
        assert chi(drv.delta1, sys_, drv) == 0.0

    def test_matches_linear_steady_state_on_random_draws(self):
        # chi(w) * (hbar eps0 Omega1 / N |d|^2) must equal the closed-form
        # steady-state coherence with the probe detuning shifted by w
        from exciton_eit import steady_state_linearized
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            sys_, drv = random_parameters(rng)
            w = rng.uniform(-3e11, 3e11)
            shifted = FieldDrive.from_detunings(
                sys_, Omega1=drv.Omega1, Omega2=drv.Omega2,
                delta1=drv.delta1 - w, delta2=drv.delta2)
            sigma_ab, _ = steady_state_linearized(shifted, sys_)
            oracle = sys_.chi_prefactor * sigma_ab / shifted.Omega1
            val = chi(w, sys_, drv)
            assert abs(val - oracle) <= 1e-12 * abs(oracle)

    def test_pole_raises_instead_of_inf(self):
        sys_ = LadderSystem.from_frequencies(
            omega_ab=3.266576e15, omega_ac=3.1402e13,
            gamma_ab=0.0, gamma_bc=0.0, N=6.2422e25, dipole_ab_sq=0.334e-60)
        drv = drive_for(sys_, Omega2=0.0)
        with pytest.raises(EvaluationError):
            chi(drv.delta1, sys_, drv)

    def test_vectorized_matches_scalar(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(-1e11, 1e11, 7)
        vec = chi(grid, sys_, drv)
        for w, v in zip(grid, vec):
            assert chi(float(w), sys_, drv) == v

    def test_passivity_random_draws(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-5e11, 5e11, 101)
        for _ in range(300):
            sys_, drv = random_parameters(rng)
            assert np.all(chi(grid, sys_, drv).imag > 0.0)

    def test_even_absorption_at_zero_detunings(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=5e10)
        grid = np.linspace(1e8, 3e11, 50)
        np.testing.assert_allclose(chi(grid, sys_, drv).imag,
                                   chi(-grid, sys_, drv).imag, rtol=1e-12)


class TestGroupIndex:
    def test_vacuum_is_unity(self):
        sys_ = default_system(N=0.0)
        drv = drive_for(sys_)
        grid = np.linspace(-1e11, 1e11, 11)
        np.testing.assert_allclose(group_index(grid, sys_, drv), 1.0)
        assert group_velocity(0.0, sys_, drv) == pytest.approx(CONST.c)

    def test_window_center_magnitude(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=2.5e10)
        ng = group_index(0.0, sys_, drv)
        assert 3e3 < ng < 3e5

    def test_analytic_matches_finite_difference(self):
        sys_ = default_system()
        for om2 in (0.0, 1e10, 2.5e10, 8e10):
            drv = drive_for(sys_, Omega2=om2)
            grid = np.linspace(-2e11, 2e11, 41)
            a = group_index(grid, sys_, drv)
            f = group_index_fd(grid, sys_, drv)
            np.testing.assert_allclose(a, f, rtol=1e-4)

    def test_group_velocity_consistent_with_index(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=2.5e10)
        # at the window center Re chi = 0, so v_g = c / n_g exactly
        vg = group_velocity(0.0, sys_, drv)
        ng = group_index(0.0, sys_, drv)
        assert vg == pytest.approx(CONST.c / ng, rel=1e-2)

    def test_limit_path_when_ground_dephasing_vanishes(self):
        sys_ = default_system(gamma_bc=0.0)
        drv = drive_for(sys_, Omega2=2.5e10)
        expected = 1.0 + 0.5 * drv.omega1 * sys_.chi_prefactor / abs(drv.Omega2) ** 2
        assert group_index(0.0, sys_, drv) == pytest.approx(expected, rel=1e-12)

    def test_limit_at_a_subnormal_two_photon_detuning(self):
        # with gamma_bc = 0 the inner denominator at the centre is 1e-300
        # rad/s: n_g still takes its limit, with no overflow on the way
        sys_ = default_system(gamma_bc=0.0)
        drv = drive_for(sys_, Omega2=2.5e10, delta1=1.0, delta2=1e-300)
        center = drv.delta1 - drv.delta2
        expected = 1.0 + 0.5 * drv.omega1 * sys_.chi_prefactor / abs(drv.Omega2) ** 2
        assert group_index(center, sys_, drv) == pytest.approx(expected, rel=1e-12)
        assert window_metrics(sys_, drv).ng_center == pytest.approx(expected, rel=1e-12)
        assert sweep_control(sys_, drv, [2.5e10]).ng_max == pytest.approx(expected,
                                                                         rel=1e-12)
        assert abs(chi(center, sys_, drv)) < 1e-280


class TestWindowMetrics:
    def test_control_off(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=0.0)
        m = window_metrics(sys_, drv)
        assert m.width == 0.0
        assert m.center_abs == pytest.approx(sys_.chi_prefactor / sys_.gamma_ab, rel=1e-12)

    def test_width_monotone_in_control(self):
        sys_ = default_system()
        widths = []
        for om2 in np.linspace(5e9, 1e11, 20):
            widths.append(window_metrics(sys_, drive_for(sys_, Omega2=om2)).width)
        diffs = np.diff(widths)
        assert np.all(diffs >= 0.0)
        opened = [w for w in widths if w > 0]
        assert len(opened) >= 10
        assert all(b > a for a, b in zip(opened, opened[1:]))

    def test_center_absorption_positive_with_dephasing(self):
        sys_ = default_system()
        m = window_metrics(sys_, drive_for(sys_, Omega2=2.5e10))
        assert m.center_abs > 0.0

    def test_lorentzian_fwhm(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=0.0)
        # the absorption half-maximum points of the bare line sit at
        # +-gamma_ab, so the reported width equals the FWHM 2 gamma_ab
        m = window_metrics(sys_, drv)
        assert m.width == 0.0  # no window without control

    def test_width_scaling_quadratic_in_the_open_window_regime(self):
        sys_ = default_system()
        grid = np.geomspace(2e10, 5e10, 8)
        widths = np.array([window_metrics(sys_, drive_for(sys_, Omega2=v)).width
                           for v in grid])
        slope = np.polyfit(np.log(grid), np.log(widths), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_width_capped_when_absorption_never_recovers(self):
        # ground dephasing above the optical dephasing kills the contrast:
        # the doublet peaks stay below half of the bare peak, so the
        # reported width saturates at the scan span
        sys_ = LadderSystem.from_frequencies(
            omega_ab=3.266576e15, omega_ac=3.1402e13,
            gamma_ab=1e10, gamma_bc=5e10,
            N=6.2422e25, dipole_ab_sq=0.334e-60)
        drv = drive_for(sys_, Omega2=3e11)
        m = window_metrics(sys_, drv)
        span = max(10 * sys_.gamma_ab, 4 * abs(drv.Omega2))
        assert m.width == pytest.approx(2 * span)


    def test_zero_optical_damping_raises(self):
        sys_ = LadderSystem.from_frequencies(
            omega_ab=3.266576e15, omega_ac=3.1402e13,
            gamma_ab=0.0, gamma_bc=7.596e9, N=6.2422e25, dipole_ab_sq=0.334e-60)
        with pytest.raises(EvaluationError, match="gamma_ab = 0"):
            window_metrics(sys_, drive_for(sys_))


def medium(gamma_ab, gamma_bc):
    return LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=gamma_ab,
        gamma_bc=gamma_bc, N=6.2422e25, dipole_ab_sq=0.334e-60)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), bc_ratio=st.floats(0.01, 0.2),
       om2_ratio=st.floats(0.5, 5.0), delta1=st.floats(-1e11, 1e11))
def test_window_edges_sit_on_the_half_level(gamma_ab, bc_ratio, om2_ratio, delta1):
    # with delta2 = 0, Im chi is even about the center, so the edges are
    # center -+ width/2
    sys_ = medium(gamma_ab, bc_ratio * gamma_ab)
    drv = drive_for(sys_, Omega2=om2_ratio * gamma_ab, delta1=delta1)
    width = window_metrics(sys_, drv).width
    half = 0.5 * sys_.chi_prefactor / gamma_ab
    edges = chi(delta1 + np.array([-0.5, 0.5]) * width, sys_, drv).imag
    np.testing.assert_allclose(edges, half, rtol=1e-9)
    inside = chi(delta1 + np.linspace(-0.5, 0.5, 201)[1:-1] * width, sys_, drv).imag
    assert np.all(inside < half)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), bc_ratio=st.floats(0.01, 1.0),
       om2_ratio=st.floats(0.0, 10.0), delta1=st.floats(-1e11, 1e11),
       delta2=st.floats(-1e11, 1e11))
def test_every_peak_is_a_local_maximum(gamma_ab, bc_ratio, om2_ratio, delta1, delta2):
    sys_ = medium(gamma_ab, bc_ratio * gamma_ab)
    drv = drive_for(sys_, Omega2=om2_ratio * gamma_ab, delta1=delta1, delta2=delta2)
    peaks = np.array(locate_absorption_peaks(sys_, drv))
    scale = max(gamma_ab, abs(drv.Omega2))
    h = 1e-5 * scale
    around = chi(peaks[:, None] + np.array([-h, 0.0, h]), sys_, drv).imag
    assert np.all(around[:, 1] >= around[:, 0]) and np.all(around[:, 1] >= around[:, 2])
    # and none is missed: no grid point rises above the highest peak
    center = delta1 - delta2
    grid = np.linspace(center - 20 * scale, center + 20 * scale, 4001)
    assert np.max(chi(grid, sys_, drv).imag) <= np.max(around[:, 1]) * (1 + 1e-12)


# Oracle: the window and peak kernels built through numpy.polynomial, as
# the package did before it wrote the coefficients out in closed form.  The
# factor (i gamma_bc + x) cancels at Omega2 = 0, as in the product form, so
# that N and D share no x^2 at gamma_bc = 0.

def oracle_fraction(system, drive):
    s = max(system.gamma_ab, abs(drive.Omega2))
    one = np.array([(1j * system.gamma_ab - drive.delta2) / s, 1.0])
    inner = np.array([1j * system.gamma_bc / s, 1.0] if drive.Omega2 else [1.0])
    p = poly.polysub(poly.polymul(one, inner), [abs(drive.Omega2) ** 2 / s**2])
    return s, -poly.polymul(inner, p.conj()).imag, poly.polymul(p, p.conj()).real


def oracle_real_roots(coef):
    r = poly.polyroots(coef)
    return np.sort(r.real[r.imag == 0])


def oracle_window(system, drive):
    """(center_abs, width, ng_center) from the complex product form at the
    center, x = -delta2, and polyroots."""
    x, dx = response_complex(-drive.delta2, abs(drive.Omega2) ** 2, system, drive)
    center_abs = float(x.imag)
    slope = float(dx.real)
    ng_center = 1.0 + 0.5 * drive.omega1 * slope
    if abs(drive.Omega2) == 0.0 or center_abs >= 0.5 * system.chi_prefactor / system.gamma_ab:
        return center_abs, 0.0, ng_center
    s, num, den = oracle_fraction(system, drive)
    span = max(10.0 * system.gamma_ab, 4.0 * abs(drive.Omega2))
    edges = oracle_real_roots(poly.polysub(num, 0.5 * s / system.gamma_ab * den))
    right = min(s * np.min(edges[edges >= 0], initial=np.inf), span)
    left = min(-s * np.max(edges[edges <= 0], initial=-np.inf), span)
    return center_abs, float(right + left), ng_center


def oracle_peaks(system, drive):
    s, num, den = oracle_fraction(system, drive)
    slope = poly.polysub(poly.polymul(poly.polyder(num), den),
                         poly.polymul(num, poly.polyder(den)))
    x = oracle_real_roots(slope)
    maxima = x[poly.polyval(x, poly.polyder(slope)) < 0]
    return [drive.delta1 - drive.delta2 + s * v for v in maxima]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 1e12)),
       delta1=st.floats(-1e11, 1e11),
       delta2=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)))
# the gamma_ab gamma_bc = |Omega2|^2 knife edge, where the dip floor sits on
# the half level and the window width is 0, also where (delta2 gamma_bc)^2
# is far below the rounding of the other terms but does not underflow
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=1e8, delta1=0.0, delta2=2.55e-284)
@example(gamma_ab=1e9, gamma_bc=1e9, omega2=1e9, delta1=0.0, delta2=-2.2029301254182288e-141)
def test_closed_form_kernels_match_the_polynomial_oracle(gamma_ab, gamma_bc, omega2,
                                                         delta1, delta2):
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1, delta2=delta2)
    center_abs, width, ng_center = oracle_window(sys_, drv)
    metrics = window_metrics(sys_, drv)
    assert metrics.center_abs == pytest.approx(center_abs, rel=1e-14, abs=0.0)
    assert metrics.ng_center == pytest.approx(ng_center, rel=1e-14, abs=0.0)
    assert metrics.width == pytest.approx(width, rel=1e-12, abs=0.0)
    peaks, expected = locate_absorption_peaks(sys_, drv), oracle_peaks(sys_, drv)
    assert len(peaks) == len(expected)
    scale = max(gamma_ab, omega2)
    np.testing.assert_allclose(peaks, expected, rtol=0.0, atol=1e-12 * scale)



def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 1e12), st.just("knife")),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)),
       kind=st.sampled_from([complex, np.complex128, np.float64]),
       delta1=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       delta2=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)))
# gamma_bc = 0, where Im chi at the center is 0; the bare line; and the
# knife edge |Omega2|^2 = gamma_ab gamma_bc
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=1e9, phase=0.0, kind=complex, delta1=0.0,
         delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=0.0, phase=0.0, kind=complex, delta1=1e9,
         delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=1e7, omega2="knife", phase=0.0, kind=np.float64,
         delta1=0.0, delta2=0.0)
def test_window_center_is_the_one_point_sweep(gamma_ab, gamma_bc, omega2, phase, kind,
                                              delta1, delta2):
    # the window center and a sweep take one real form at x = -delta2, so
    # the center has the bits of a one-point sweep on either carrier
    sys_ = medium(gamma_ab, gamma_bc)
    magnitude = np.sqrt(gamma_ab * gamma_bc) if omega2 == "knife" else omega2
    om2 = kind(magnitude) if kind is np.float64 else kind(magnitude * np.exp(1j * phase))
    drv = drive_for(sys_, Omega2=om2, delta1=delta1, delta2=delta2)
    metrics = window_metrics(sys_, drv)
    assert type(metrics.center_abs) is float and type(metrics.ng_center) is float
    for grid in ([float(abs(om2))], np.array([abs(om2)])):
        sweep = sweep_control(sys_, drv, grid)
        assert same_bits(metrics.center_abs, sweep.chi_im_center[0])
        assert same_bits(metrics.ng_center, sweep.ng_center[0])


def test_window_center_overflow_raises():
    # Python floats overflow silently; the float center raises instead
    sys_ = medium(4.5573e10, 1.7e308)
    with pytest.raises(EvaluationError, match="^overflow"):
        window_metrics(sys_, drive_for(sys_))


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 1e12)),
       delta1=st.floats(-1e11, 1e11),
       delta2=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)))
# exactly on the knife edge gamma_ab gamma_bc = |Omega2|^2 (width 0), and
# the bare Lorentzian at Omega2 = gamma_bc = 0, whose one maximum is delta1,
# on two-photon resonance and a hair off it, where N and D share x^2
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=1e8, delta1=0.0, delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=0.0, delta1=1e9, delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=0.0, delta1=1e9, delta2=1.5e-61)
def test_resonant_window_and_peaks_match_the_mpmath_oracle(gamma_ab, gamma_bc, omega2, delta1,
                                                           delta2):
    # at delta2 = 0 both kernels take the closed form; off it they isolate
    # the real roots of the crossing quartic and the slope quintic.  The
    # oracle roots the unreduced polynomials at 50 digits.  Off resonance
    # the bounds are measured: over 12000 uniform draws of these ranges
    # (delta2 scaled by 1e-12 to 1) the worst width was 184 eps relative,
    # and over 1500 draws with |Omega2|/gamma_ab from 330 to 1000, where the
    # half-level crossings close in on each narrow dressed peak, 362 eps;
    # the worst peak was 2.2 eps of max(|center|, |x|, gamma_ab, |Omega2|)
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1, delta2=delta2)
    width, maxima = window_and_peaks_mp(sys_, drv)
    resonant = delta2 == 0
    rel = 4 * EPS if resonant else 1e-12
    assert window_metrics(sys_, drv).width == pytest.approx(float(width), rel=rel, abs=0.0)
    peaks = locate_absorption_peaks(sys_, drv)
    assert len(peaks) == len(maxima)
    center = delta1 - delta2
    for found, x in zip(peaks, maxima):
        scale = max(abs(center), abs(float(x)), 0.0 if resonant else max(gamma_ab, omega2))
        assert abs(found - center - float(x)) <= (4 if resonant else 8) * EPS * scale


@pytest.mark.parametrize("delta2", [0.0, 1e-300, 1e-3])
def test_knife_edge_window_is_near_zero_at_two_photon_resonance(delta2):
    # the dip floor within a few ULP of the half level (gamma_ab gamma_bc =
    # |Omega2|^2): the width is near 0 whichever side the floor rounds to,
    # never the far edges, at two-photon resonance and a hair off it (the
    # companion solve reported them for 17 of these draws at each nonzero
    # delta2)
    rng = np.random.default_rng(18)
    for _ in range(3000):
        gamma_ab = rng.uniform(1e9, 1e11)
        gamma_bc = gamma_ab * rng.uniform(0.01, 1.0)
        k = rng.integers(-3, 4)
        sys_ = medium(gamma_ab, gamma_bc)
        drv = drive_for(sys_, Omega2=np.sqrt(gamma_ab * gamma_bc) * (1 + k * 2.2e-16),
                        delta2=delta2)
        assert window_metrics(sys_, drv).width < 1e-6 * gamma_ab


@pytest.mark.parametrize("gamma_ab, gamma_bc, omega2, expected", [
    (0.0, 7.6e9, 2.5e10, (-24415568803.531895, 24415568803.5319)),  # linear in x^2
    (0.0, 0.0, 2.5e10, ()),
    (4.5573e10, 0.0, 2.5e10, (-2.5e10, 2.5e10)),
    (4.5573e10, 7.596e9, 0.0, (0.0,)),
    (4.5573e10, 0.0, 0.0, (0.0,)),   # the bare Lorentzian
])
def test_resonant_peaks_with_degenerate_dampings(gamma_ab, gamma_bc, omega2, expected):
    sys_ = medium(gamma_ab, gamma_bc)
    peaks = locate_absorption_peaks(sys_, drive_for(sys_, Omega2=omega2))
    assert peaks == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_closed_form_paths_never_reach_the_root_isolation(monkeypatch):
    class Reached(Exception):
        pass

    def isolation(coef):
        raise Reached

    monkeypatch.setattr(susceptibility, "_real_roots", isolation)
    sys_ = default_system()
    resonant = drive_for(sys_, delta1=3e9)
    assert window_metrics(sys_, resonant).width > 0
    assert len(locate_absorption_peaks(sys_, resonant)) == 2
    detuned = drive_for(sys_, delta1=3e9, delta2=1e8)
    with pytest.raises(Reached):
        window_metrics(sys_, detuned)
    with pytest.raises(Reached):
        locate_absorption_peaks(sys_, detuned)


@pytest.mark.parametrize("coef, roots", [
    ([-2.0, 0.0, 1.0, 0.0, 0.0], [-np.sqrt(2.0), np.sqrt(2.0)]),  # trailing zeros
    ([-1.0, 0.0, 0.0, 0.0, 1.0], [-1.0, 1.0]),                    # complex pair dropped
    ([1.0, 0.0, 1.0], []),                                        # no real root
    ([2.0, -4.0], [0.5]),                                         # degree 1
    ([2.0, -4.0, 0.0], [0.5]),
    ([3.0], []),                                                  # degree 0
    ([3.0, 0.0, 0.0], []),
    ([0.0, 0.0], []),
])
def test_real_roots_against_polyroots(coef, roots):
    # on lists of Python floats, each expected root to 1e-15
    found = _real_roots(coef)
    assert all(type(x) is float for x in found)
    np.testing.assert_allclose(found, roots, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("coef", [[1.0, np.inf], [np.nan, 1.0, 0.0], [np.inf, 0.0],
                                  [1e300, 1e-300]])
def test_real_roots_past_the_float_range_raise(coef):
    # a coefficient, or one over the leading coefficient, that is not finite
    with pytest.raises(OutOfRangeError):
        _real_roots(coef)


def test_quartic_past_the_float_range_raises():
    # off two-photon resonance the window's edges and the peaks are roots of
    # polynomials whose coefficients leave the float range at delta2 =
    # 1e300 rad/s with gamma_bc = 0: with no errstate set here, each kernel
    # raises OutOfRangeError, where the companion solve met inf
    sys_ = medium(4.5573e10, 0.0)
    drv = drive_for(sys_, delta2=1e300)
    for kernel in (window_metrics, locate_absorption_peaks):
        with pytest.raises(OutOfRangeError, match="^overflow off two-photon resonance"):
            kernel(sys_, drv)


def test_a_subnormal_scale_off_two_photon_resonance_is_out_of_range():
    # s = max(gamma_ab, |Omega2|) = 5e-324 rad/s: |Omega2|/s is formed before
    # it is squared, so nothing divides by an underflowed s^2 (a
    # ZeroDivisionError before); delta2/s leaves the float range instead
    sys_ = medium(5e-324, 1e-300)
    drv = drive_for(sys_, Omega2=5e-324, delta2=4.5e10)
    for kernel in (window_metrics, locate_absorption_peaks):
        with pytest.raises(OutOfRangeError, match="^overflow off two-photon resonance"):
            kernel(sys_, drv)


@pytest.mark.parametrize("delta2", [1.5e-61, 6.948699519281762e-288])
def test_bare_line_peaks_at_delta1_a_hair_off_two_photon_resonance(delta2):
    # at Omega2 = 0 the bare line's N and D lose their common factor: with
    # it, N and D shared x^2 at gamma_bc = 0, the slope x^4, and at the
    # smaller delta2 the slope's derivative at its root underflowed to 0, so
    # the one maximum was lost
    sys_ = medium(1e9, 0.0)
    assert locate_absorption_peaks(sys_, drive_for(sys_, Omega2=0.0, delta1=1e9,
                                                   delta2=delta2)) == (1e9,)


def test_no_peaks_off_two_photon_resonance_without_damping_or_control():
    # with gamma_ab = 0 and no control Im chi vanishes off its pole, and the
    # scale s = max(gamma_ab, |Omega2|) of the delta2 != 0 polynomials is 0:
    # no peaks, as at delta2 = 0
    sys_ = medium(0.0, 7.6e9)
    assert locate_absorption_peaks(sys_, drive_for(sys_, Omega2=0.0, delta2=1e9)) == ()
    assert locate_absorption_peaks(sys_, drive_for(sys_, Omega2=0.0)) == ()


class TestDressedPeaks:
    def test_requires_control_resonance(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=5e10, delta2=1e9)
        with pytest.raises(ValueError):
            dressed_peaks(sys_, drv)

    def test_prediction_and_location(self):
        sys_ = default_system()
        om2 = 5e10
        drv = drive_for(sys_, Omega2=om2)
        lo, hi = dressed_peaks(sys_, drv)
        assert (lo, hi) == (-om2, om2)
        found = locate_absorption_peaks(sys_, drv)
        assert len(found) == 2
        bound = sys_.gamma_ab**2 / om2
        assert abs(found[0] - lo) < bound
        assert abs(found[1] - hi) < bound

    def test_peaks_merge_for_weak_control(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=1e8)
        found = locate_absorption_peaks(sys_, drv)
        assert all(abs(p) < 0.2 * sys_.gamma_ab for p in found)

    def test_symmetric_about_two_photon_resonance(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=5e10)
        found = locate_absorption_peaks(sys_, drv)
        assert found[0] == pytest.approx(-found[1], rel=1e-3)


class TestSweep:
    def test_argmax_near_analytic_optimum(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(1e9, 1e11, 199)
        sweep = sweep_control(sys_, drv, grid)
        analytic = np.sqrt(sys_.gamma_bc * (sys_.gamma_ab + 2 * sys_.gamma_bc))
        assert abs(sweep.argmax_omega2 - analytic) <= grid[1] - grid[0]

    def test_threads_do_not_change_results(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(1e9, 1e11, 57)
        one = sweep_control(sys_, drv, grid, threads=1)
        four = sweep_control(sys_, drv, grid, threads=4)
        np.testing.assert_array_equal(one.ng_center, four.ng_center)
        np.testing.assert_array_equal(one.chi_im_center, four.chi_im_center)

    def test_absorption_decreases_beyond_optimum(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(2.2e10, 3e11, 60)
        sweep = sweep_control(sys_, drv, grid)
        assert np.all(np.diff(sweep.chi_im_center) < 0.0)

    def test_group_index_flattens_at_strong_control(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        values = [sweep_control(sys_, drv, np.array([v]), threads=1).ng_max
                  for v in (1e12, 1e13, 1e14)]
        assert values[0] > values[1] > values[2]
        assert values[2] - 1.0 < 1e-2

    def test_rejects_bad_grids(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        with pytest.raises(ValueError):
            sweep_control(sys_, drv, np.array([]))
        with pytest.raises(ValueError):
            sweep_control(sys_, drv, np.array([3e10, 2e10, 1e10]))

    def test_single_point_grid(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        sweep = sweep_control(sys_, drv, np.array([2.5e10]))
        assert sweep.argmax_omega2 == 2.5e10
        assert len(sweep.ng_center) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), gamma_bc=st.floats(0.0, 1e10),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       low=st.floats(0.0, 1e11), points=st.integers(1, 40))
# a subnormal-scale two-photon detuning with no Raman damping
@example(gamma_ab=1e10, gamma_bc=0.0, delta1=0.0, delta2=1e-300, low=0.0, points=5)
def test_sweep_matches_pointwise_response(gamma_ab, gamma_bc, delta1, delta2, low, points):
    # the broadcast has, at each point, the bits of the window center's
    # one-point evaluation at that control
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, delta1=delta1, delta2=delta2)
    grid = np.linspace(low, low + 1e11, points)
    sweep = sweep_control(sys_, drv, grid)
    for v, ng, ab in zip(grid, sweep.ng_center, sweep.chi_im_center):
        metrics = window_metrics(sys_, drv.with_control(v))
        assert same_bits(ng, metrics.ng_center) and same_bits(ab, metrics.center_abs)


# strictly increasing control grids: of either sign, with zero, subnormal
# and tiny Omega2 (whose square is subnormal), or of positive Omega2 only
control_grids = st.one_of(
    st.lists(st.one_of(st.floats(-2e11, 2e11), st.floats(-1e-150, 1e-150)),
             min_size=1, max_size=40, unique=True),
    st.lists(st.one_of(st.floats(5e-324, 2e11), st.floats(5e-324, 1e-150)),
             min_size=1, max_size=40, unique=True)).map(sorted)

# Over 3000 random media and grids of either sign, with zero, the sweep's
# Im chi came within 5.4e-16 kappa |chi| of the complex product form's and
# n_g - 1 within 2.1e-16 (omega1/2) (2 kappa |chi'| + scale), in the
# measures of ``conditioning`` at x = -delta2; on the CLI's default grid
# within 4.3e-16 and 6.5e-16 relative.
SWEEP_BOUND = 2e-15


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       delta1=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       delta2=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       grid=control_grids)
# gamma_bc = 0, where Im chi is 0, with a tie for the maximum at +-Omega2
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=1e9, delta2=0.0, grid=[-2.5e10, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=1e9, delta2=0.0, grid=[2.5e10, 5e10])
# the knife edge |Omega2|^2 = gamma_ab gamma_bc, and |Omega2| = gamma_bc, where chi' is 0
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, delta2=0.0, grid=[1e7, 1e8])
# an Omega2 that is 0, or subnormal, so its square is 0: the bare line
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=-3e9, delta2=0.0, grid=[0.0, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, delta2=2e9, grid=[5e-324, 2.5e10])
# a square that is subnormal: with gamma_bc = 0 at delta2 = 0, n_g overflows
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=0.0, delta2=0.0, grid=[1e-160, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, delta2=-3e9, grid=[1e-160, 2.5e10])
def test_sweep_carriers_have_the_same_bits(gamma_ab, gamma_bc, delta1, delta2, grid):
    # a list, in Python floats, and an array, in one broadcast, take the
    # window center's real form at any delta2, with the bare line where
    # |Omega2|^2 is 0, and give the same bits, or raise the same message
    # where a value is not finite; lists give lists out.  Each value is
    # within SWEEP_BOUND of the complex product form wherever that is finite
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, delta1=delta1, delta2=delta2)
    try:
        listed = sweep_control(sys_, drv, grid)
    except EvaluationError as exc:
        assert str(exc).startswith("overflow at the window center")
        with pytest.raises(EvaluationError) as raised:
            sweep_control(sys_, drv, np.array(grid))
        assert str(raised.value) == str(exc)
        return
    array = sweep_control(sys_, drv, np.array(grid))
    for name in ("ng_center", "chi_im_center"):
        assert isinstance(getattr(listed, name), list)
        assert isinstance(getattr(array, name), np.ndarray)
        assert np.array(getattr(listed, name)).tobytes() == getattr(array, name).tobytes()
    assert same_bits(listed.argmax_omega2, array.argmax_omega2)
    assert same_bits(listed.ng_max, array.ng_max)
    half = 0.5 * drv.omega1
    with np.errstate(all="ignore"):
        x, dx = response_complex(-delta2, np.array(grid) ** 2, sys_, drv)
    for v, im, ng, x, dx in zip(grid, listed.chi_im_center, listed.ng_center, x, dx):
        if not (np.isfinite(x) and np.isfinite(dx)):
            continue
        kappa, scale = conditioning(sys_, drv.with_control(v), -delta2)
        assert abs(im - x.imag) <= SWEEP_BOUND * kappa * abs(x)
        assert abs(ng - 1 - half * dx.real) <= (
            SWEEP_BOUND * half * (2 * kappa * abs(dx) + scale) + 2**-52 * abs(ng))


def test_long_list_sweep_takes_the_broadcast(monkeypatch):
    # past FLOAT_POINTS points a list takes the numpy broadcast, which
    # gives the same lists as the Python floats
    n = susceptibility.FLOAT_POINTS
    assert susceptibility.in_floats(n)
    assert not susceptibility.in_floats(n + 1)
    sys_ = default_system()
    drv = drive_for(sys_)
    grid = np.linspace(1e9, 1e11, 199).tolist()
    in_floats = sweep_control(sys_, drv, grid)
    monkeypatch.setattr(susceptibility, "FLOAT_POINTS", len(grid) - 1)
    broadcast = sweep_control(sys_, drv, grid)
    assert isinstance(broadcast.ng_center, list)
    assert broadcast == in_floats


def test_control_square_past_the_float_range_raises():
    # a Python float square overflows silently; on either carrier, with no
    # errstate set here, an Omega2 whose square leaves the range raises
    # OverflowError, as constants._square does
    sys_ = default_system()
    for grid in ([1e9, 1e160], [-1e160, 1e9]):
        for carried in (grid, np.array(grid)):
            with pytest.raises(OverflowError, match="square"):
                sweep_control(sys_, drive_for(sys_), carried)


# the largest float whose square is finite
ROOT_MAX = math.sqrt(sys.float_info.max)


def sweep_fault(system, drive, grid):
    """(type, message) of the fault ``sweep_control`` raises on ``grid``, or None."""
    try:
        sweep_control(system, drive, grid)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("gamma_bc", [7.596e9, 1.7e308], ids=["finite", "center overflows"])
@pytest.mark.parametrize("grid", [
    [1e9, 1e160],
    [-1e160, 1e9],
    [1e9, ROOT_MAX],                                  # the largest finite square
    [1e9, ROOT_MAX, math.nextafter(ROOT_MAX, math.inf)],
    [-math.nextafter(ROOT_MAX, math.inf), 1e9],
])
def test_sweep_faults_where_the_list_route_does(gamma_bc, grid):
    # the list route squares each Omega2 and then takes its center, point by
    # point: the broadcast raises the fault of the first point that fails,
    # a square or a center out of range, with the same message
    sys_ = default_system(gamma_bc=gamma_bc)
    drv = drive_for(sys_)
    listed = sweep_fault(sys_, drv, grid)
    assert sweep_fault(sys_, drv, np.array(grid)) == listed
    assert listed is not None or grid[-1] == ROOT_MAX
    if gamma_bc == 1.7e308:
        assert listed[0] is (OutOfRangeError if grid[0] == 1e9 else OverflowError)


def conditioning(system, drive, x):
    """(kappa, scale) at x = omega - delta1, with the float y = x + delta2
    (y = 1 and gamma_bc = 0 for the bare line).  kappa is
    the sum of the magnitudes of the terms of
    P = (x + i gamma_ab)(y + i gamma_bc) - |Omega2|^2 over |P|, and scale is
    pref (y^2 + gamma_bc^2 + |Omega2|^2) / |P|^2, |chi'| with the terms of
    its numerator Q summed in magnitude.  Forming P costs chi about
    eps kappa |chi|, and forming P and Q costs chi' about
    eps (2 kappa |chi'| + scale), in any form of the response."""
    w = abs(drive.Omega2) ** 2
    y, b = (x + drive.delta2, system.gamma_bc) if w else (1.0, 0.0)
    a = system.gamma_ab
    p = abs(complex(x, a) * complex(y, b) - w)
    return ((abs(x * y) + a * b + w + abs(x * b) + abs(y * a)) / p,
            system.chi_prefactor * (y * y + b * b + w) / p**2)


# The spectrum's real closed form against 40-digit chi and chi': over 1200
# random media and 6000 random draws of the test below, chi came within
# 6.5e-16 kappa |chi| and n_g - 1 within 2.9e-16 (omega1/2)
# (2 kappa |chi'| + scale), and the complex product form's chi and chi'
# within 6.7e-16 and 2.2e-16 of the real form's, in the same measures;
# 1e-15 bounds all four.
FORM_BOUND = 1e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e10)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 2e11)),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       points=st.integers(1, 60))
def test_fused_kernel_is_bit_identical_to_the_pointwise_calls(gamma_ab, gamma_bc, omega2,
                                                              delta1, delta2, points):
    # compute_spectrum, chi, group_index and group_velocity take chi and n_g
    # from one real closed form, at an array and at a number: chi, n_g and
    # v_g have the table's very bits; the complex product form of
    # tests/oracles.py agrees within the bounds the form's accuracy test
    # measures
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1, delta2=delta2)
    center = delta1 - delta2
    w = center + gamma_ab * np.linspace(-5.0, 5.0, points)
    table = compute_spectrum(sys_, drv, w)
    x, dx = chi_complex(w, sys_, drv), chi_derivative(w, sys_, drv)
    kappa, scale = np.array([conditioning(sys_, drv, v - delta1) for v in w]).T
    half = 0.5 * drv.omega1
    assert np.all(np.abs(table.chi_re + 1j * table.chi_im - x)
                  <= FORM_BOUND * kappa * np.abs(x))
    assert np.all(np.abs(table.n_g - 1 - half * dx.real)
                  <= FORM_BOUND * half * (2 * kappa * np.abs(dx) + scale)
                  + 2**-52 * np.abs(table.n_g))
    assert np.array_equal(table.n_g, group_index(w, sys_, drv))
    assert np.array_equal(table.chi_re + 1j * table.chi_im, chi(w, sys_, drv))
    assert np.array_equal(group_velocity(w, sys_, drv),
                          CONST.c / (table.n_g + 0.5 * table.chi_re))
    at = compute_spectrum(sys_, drv, [center])
    assert same_bits(group_index(center, sys_, drv), at.n_g[0])
    assert same_bits(group_velocity(center, sys_, drv),
                     CONST.c / (at.n_g[0] + 0.5 * at.chi_re[0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 2e11)),
       delta1=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       delta2=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       offsets=st.lists(st.floats(-10.0, 10.0), max_size=12),
       tiny=st.lists(st.floats(-1e-300, 1e-300), max_size=3))
# the two-photon resonance with no Raman damping, where chi is exactly 0,
# and subnormal offsets from the probe resonance
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=2.5e10, delta1=0.0, delta2=0.0,
         offsets=[-1.0, 0.0, 1.0], tiny=[5e-324, -1e-310])
# the bare line, detuned
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=0.0, delta1=3e9, delta2=-2e9,
         offsets=[0.0, 2.0], tiny=[5e-324])
def test_spectrum_carriers_have_the_same_bits(gamma_ab, gamma_bc, omega2, delta1, delta2,
                                              offsets, tiny):
    # a list, in Python floats, and an array, in numpy, take one real
    # closed form and give the same bits; every value is within the bound
    # measured against 40-digit chi and chi', scaled by the conditioning of
    # P and Q, which no form of the response avoids
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1, delta2=delta2)
    center = delta1 - delta2
    w = sorted({center + gamma_ab * u for u in offsets} | set(tiny)
               | {center, delta1 - omega2, delta1 + omega2})
    listed = compute_spectrum(sys_, drv, w)
    table = compute_spectrum(sys_, drv, np.array(w))
    assert all(isinstance(c, list) for c in listed)
    for name, column in table._asdict().items():
        assert isinstance(column, np.ndarray)
        assert np.array(getattr(listed, name)).tobytes() == column.tobytes(), name
    half = 0.5 * drv.omega1
    for v, re, im, ng in zip(w, listed.chi_re, listed.chi_im, listed.n_g):
        x, dx = response_mp(sys_, drv, v)
        kappa, scale = conditioning(sys_, drv, v - delta1)
        assert abs(complex(re, im) - x) <= FORM_BOUND * kappa * abs(x) + 1e-300
        assert abs(ng - 1 - half * dx.real) <= (
            FORM_BOUND * half * (2 * kappa * abs(dx) + scale) + 2**-52 * abs(ng))


def _scaled(lo, hi):
    """m 2^e with m in [1, 2) and e in [lo, hi]: every binade alike."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(lo, hi))


def extreme(gamma_ab, gamma_bc, omega2, delta1, delta2, N, w):
    """(system, drive, offsets) of a medium whose chi prefactor is about N."""
    system = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=gamma_ab, gamma_bc=gamma_bc,
        N=N, dipole_ab_sq=CONST.hbar * CONST.eps0)
    drive = drive_for(system, Omega2=omega2, Omega1=1.0, delta1=delta1, delta2=delta2)
    return system, drive, sorted(v for v in w if math.isfinite(v))


@st.composite
def extreme_media(draw):
    """``extreme``: rates a common binade 2^e0 apart by up to 2^120 either
    way, some 0; a chi prefactor anywhere in range; offsets at the window
    center, the dressed lines and as far out as the rates."""
    e0 = draw(st.integers(-540, 500))
    rate = st.one_of(st.just(0.0), _scaled(e0 - 120, e0 + 120))
    signed = st.tuples(rate, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])
    gamma_ab, gamma_bc, omega2, delta1, delta2 = (draw(r) for r in (rate, rate, rate,
                                                                    signed, signed))
    center = delta1 - delta2
    w = {center + v for v in draw(st.lists(signed, min_size=1, max_size=6))}
    if draw(st.booleans()):
        w |= {center, delta1 - omega2, delta1 + omega2}
    return extreme(gamma_ab, gamma_bc, omega2, delta1, delta2, draw(_scaled(-900, 1000)), w)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(medium_=extreme_media())
# Q is about -1.1e308, so Q (P_r^2 - P_i^2) / |P|^2 taken in that order
# would overflow
@example(medium_=extreme(0.0, 1.0661523349247684e154, 1.5398147735190135e-156, 0.0,
                         -7.874366604284653e-224, 1e-295, [7.874217883707892e-224]))
def test_spectrum_is_finite_wherever_the_complex_form_is(medium_):
    # the real form scales P by a power of two, so each medium that the
    # complex product form (the former route) evaluates finitely under
    # numpy's raising errstate is finite here too, on both carriers alike
    system, drive, w = medium_
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            oracle = spectrum_complex(system, drive, w)
    except (ArithmeticError, OverflowError):
        return
    if not all(np.isfinite(c).all() for c in oracle):
        return
    listed = compute_spectrum(system, drive, w)
    with np.errstate(all="ignore"):
        table = compute_spectrum(system, drive, np.array(w))
    for name in ("chi_re", "chi_im", "n_g"):
        assert np.array(getattr(listed, name)).tobytes() == getattr(table, name).tobytes()


@pytest.mark.parametrize("k", [-360, -300, 230, 300])
def test_spectrum_keeps_its_bits_under_a_power_of_two_change_of_units(k):
    # scaling every rate, offset and the chi prefactor by 2^k is exact, and
    # the real form scales P by the power of two that |P| picks, so chi and
    # n_g keep their very bits; at these k the complex product form's P^2
    # leaves the float range, so this range is the real form's own
    def spectrum(u):
        sys_ = LadderSystem.from_frequencies(
            omega_ab=3.266576e15 * u, omega_ac=3.1402e13 * u, gamma_ab=4.5573e10 * u,
            gamma_bc=7.596e9 * u, N=6.2422e25 * u, dipole_ab_sq=0.334e-60)
        drv = drive_for(sys_, Omega2=2.5e10 * u, delta1=1e9 * u, delta2=-3e9 * u)
        grid = [v * u for v in np.linspace(-2e11, 2e11, 41).tolist()]
        return sys_, drv, grid

    base = compute_spectrum(*spectrum(1.0))
    sys_, drv, grid = spectrum(math.ldexp(1.0, k))
    scaled = compute_spectrum(sys_, drv, grid)
    for name in ("chi_re", "chi_im", "n_g"):
        assert getattr(scaled, name) == getattr(base, name)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError):
            spectrum_complex(sys_, drv, grid)


def test_exact_pole_raises_on_both_carriers():
    # with every damping 0 the response has real poles: at the bare line's
    # resonance, and where x y = |Omega2|^2
    sys_ = medium(0.0, 0.0)
    for omega2, w in ((0.0, [-1.0, 0.0, 1.0]), (2.5e10, [0.0, 2.5e10])):
        drv = drive_for(sys_, Omega2=omega2)
        for grid in (w, np.array(w)):
            with pytest.raises(EvaluationError, match="exactly on a pole"):
                compute_spectrum(sys_, drv, grid)


def test_spectrum_past_the_float_range_raises_on_both_carriers():
    # a value that is not finite raises, where a list in Python floats
    # would carry it on silently
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=4.5573e10, gamma_bc=7.596e9,
        N=1e300, dipole_ab_sq=1e-10)
    drv = drive_for(sys_)
    for grid in ([-1e10, 0.0, 1e10], np.array([-1e10, 0.0, 1e10])):
        with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="^overflow"):
            compute_spectrum(sys_, drv, grid)


class TestScalingInvariance:
    def test_prefactor_scaling(self):
        rng = np.random.default_rng(5)
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=5e10)
        scale = float(rng.uniform(0.1, 10.0))
        sys_scaled = default_system(N=sys_.N * scale)
        # absorption extrema do not move under prefactor scaling
        p1 = locate_absorption_peaks(sys_, drv)
        p2 = locate_absorption_peaks(sys_scaled, drive_for(sys_scaled, Omega2=5e10))
        np.testing.assert_allclose(p1, p2, rtol=1e-9)
        # n_g - 1 scales linearly with the prefactor
        ng1 = group_index(0.0, sys_, drv) - 1.0
        ng2 = group_index(0.0, sys_scaled, drive_for(sys_scaled, Omega2=5e10)) - 1.0
        assert ng2 == pytest.approx(scale * ng1, rel=1e-12)

    def test_sweep_argmax_invariant_under_prefactor(self):
        sys_ = default_system()
        sys_big = default_system(N=sys_.N * 7.5)
        grid = np.linspace(1e9, 1e11, 120)
        a = sweep_control(sys_, drive_for(sys_), grid)
        b = sweep_control(sys_big, drive_for(sys_big), grid)
        assert a.argmax_omega2 == b.argmax_omega2


def hilbert_residual(gamma_ab, gamma_bc, om2, delta1, delta2):
    """Largest gap between Re chi and the Hilbert sum of Im chi, relative to
    the largest |Re chi|, at 201 offsets within 1e11 rad/s of resonance.

    chi is a rational response, analytic in the upper half plane, so
    chi'(w0) = (1/pi) PV int chi''(w) / (w - w0) dw; the PV sum is taken at
    grid midpoints.
    """
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=om2, delta1=delta1, delta2=delta2)
    span = 1.2e13
    n = 24001
    w = np.linspace(-span, span, n)
    im = chi(w, sys_, drv).imag
    dw = w[1] - w[0]
    targets = np.linspace(-1e11, 1e11, 201) + 0.5 * dw
    kk = (dw / np.pi) * np.sum(im[None, :] / (w[None, :] - targets[:, None]), axis=1)
    re = chi(targets, sys_, drv).real
    return np.max(np.abs(kk - re)) / np.max(np.abs(re))


class TestKramersKronig:
    @pytest.mark.parametrize("gamma_ab, gamma_bc, om2, delta1, delta2", [
        pytest.param(4.5573e10, 7.596e9, 2.5e10, 0.0, 0.0, id="default"),
        pytest.param(4.5573e10, 0.0, 2.5e10, 0.0, 0.0, id="gamma_bc_0"),
        pytest.param(4.5573e10, 7.596e9, 8e10, 0.0, 0.0, id="Omega2_80G"),
        pytest.param(4.5573e10, 7.596e9, 4e10, 3e10, -2e10, id="detuned"),
        pytest.param(4.5573e10, 2e10, 2.5e10, 0.0, 0.0, id="gamma_bc_20G"),
        pytest.param(2e10, 7.596e9, 2.5e10, 0.0, 0.0, id="gamma_ab_20G"),
    ])
    def test_hilbert_transform_reproduces_dispersion(self, gamma_ab, gamma_bc, om2,
                                                     delta1, delta2):
        assert hilbert_residual(gamma_ab, gamma_bc, om2, delta1, delta2) < 1e-5

    # media drawn within the envelope of the six fixed ones above
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gamma_ab=st.floats(2e10, 4.5573e10),
           gamma_bc=st.one_of(st.just(0.0), st.floats(0.0, 2e10)),
           om2=st.floats(2.5e10, 8e10), delta1=st.floats(0.0, 3e10),
           delta2=st.floats(-2e10, 0.0))
    def test_hilbert_transform_on_random_media(self, gamma_ab, gamma_bc, om2, delta1, delta2):
        assert hilbert_residual(gamma_ab, gamma_bc, om2, delta1, delta2) < 1e-5


# Ranges keep both poles at least ~0.05 gamma_ab below the real axis, so
# neither route loses more than a few ULP to cancellation near a pole.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       bc_ratio=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       om2_ratio=st.floats(0.5, 5.0), delta1=st.floats(-1e11, 1e11),
       d2_ratio=st.floats(-2.0, 2.0),
       offsets=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
# a two-photon detuning near 1e-294 rad/s with no Raman damping
@example(gamma_ab=1e9, bc_ratio=0.0, om2_ratio=1.0, delta1=0.0, d2_ratio=1e-303,
         offsets=[0.0, 1e-3, -1.0, 5.0])
def test_chi_is_causal_with_poles_in_the_lower_half_plane(gamma_ab, bc_ratio, om2_ratio,
                                                          delta1, d2_ratio, offsets):
    # chi is rational in w; it is causal (Kramers-Kronig holds exactly) when
    # both roots of (w - delta1 + i gamma_ab)(w - delta1 + delta2 + i gamma_bc)
    # = |Omega2|^2 lie in the lower half plane and chi has no other poles
    gamma_bc, delta2 = bc_ratio * gamma_ab, d2_ratio * gamma_ab
    om2 = om2_ratio * gamma_ab
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=om2, delta1=delta1, delta2=delta2)
    r1, r2 = delta1 + np.roots([1.0, delta2 + 1j * (gamma_ab + gamma_bc),
                                1j * gamma_ab * (delta2 + 1j * gamma_bc) - om2**2])
    assert r1.imag < 0 and r2.imag < 0
    w = delta1 - delta2 + gamma_ab * np.array(offsets)
    factored = (-sys_.chi_prefactor * (w - delta1 + delta2 + 1j * gamma_bc)
                / ((w - r1) * (w - r2)))
    # the absolute floor only admits subnormal values, which carry fewer
    # digits: where the inner factor is below ~1e-290 rad/s, so is chi
    np.testing.assert_allclose(chi(w, sys_, drv), factored, rtol=1e-12, atol=1e-290)


class TestSpectrumTable:
    def test_arrays_validated(self):
        with pytest.raises(ValueError):
            SpectrumTable(omega_grid=np.array([0.0, 1.0]),
                          chi_re=np.zeros(3), chi_im=np.zeros(2), n_g=np.zeros(2))
        with pytest.raises(ValueError):
            SpectrumTable(omega_grid=np.array([1.0, 0.0]),
                          chi_re=np.zeros(2), chi_im=np.zeros(2), n_g=np.zeros(2))

    def test_gain_check_is_exact_on_both_carriers(self):
        for make in (list, np.array):
            SpectrumTable(make([0.0, 1.0]), make([1.0, 1.0]), make([0.0, -0.0]), make([1.0, 1.0]))
            with pytest.raises(ValueError, match="spurious gain"):
                SpectrumTable(make([0.0, 1.0]), make([1.0, 1.0]), make([1.0, -5e-324]),
                              make([1.0, 1.0]))
            with pytest.raises(ValueError, match="strictly increasing"):
                SpectrumTable(make([0.0, 0.0]), make([1.0, 1.0]), make([1.0, 1.0]),
                              make([1.0, 1.0]))

    def test_compute_spectrum_shapes_and_passivity(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(-2e11, 2e11, 201)
        table = compute_spectrum(sys_, drv, grid)
        assert len(table.chi_re) == len(grid)
        assert np.all(table.chi_im >= -1e-12 * np.max(np.abs(table.chi_im)))
