"""Spectral response: closed form, dispersion, window metrics, sweeps."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as poly

from exciton_eit import (CONST, EvaluationError, FieldDrive, LadderSystem,
                         chi, chi_derivative, compute_spectrum, dressed_peaks,
                         group_index, group_velocity,
                         locate_absorption_peaks, sweep_control,
                         window_metrics)
from exciton_eit import susceptibility
from exciton_eit.susceptibility import SpectrumTable, _real_roots, _response
from oracles import (group_index_fd, sweep_broadcast, window_and_peaks_mp,
                     window_center_np)


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
    """(center_abs, width, ng_center) from a 0-d _response call and polyroots."""
    center = drive.delta1 - drive.delta2
    om2_sq = abs(drive.Omega2) ** 2
    x, dx = _response(center, om2_sq, system, drive)
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
# the half level and the window width is 0
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=1e8, delta1=0.0, delta2=2.55e-284)
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
# gamma_bc = 0, where Im chi at the center is -0.0 on the numpy route; the
# bare line; and the knife edge |Omega2|^2 = gamma_ab gamma_bc
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=1e9, phase=0.0, kind=complex, delta1=0.0,
         delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=0.0, phase=0.0, kind=complex, delta1=1e9,
         delta2=0.0)
@example(gamma_ab=1e9, gamma_bc=1e7, omega2="knife", phase=0.0, kind=np.float64,
         delta1=0.0, delta2=0.0)
def test_window_center_has_the_numpy_scalar_bits(gamma_ab, gamma_bc, omega2, phase, kind,
                                                 delta1, delta2):
    # at delta2 = 0 the center is evaluated in Python floats; its bits,
    # the sign of zero included, are those of numpy's complex scalars
    sys_ = medium(gamma_ab, gamma_bc)
    magnitude = np.sqrt(gamma_ab * gamma_bc) if omega2 == "knife" else omega2
    om2 = kind(magnitude) if kind is np.float64 else kind(magnitude * np.exp(1j * phase))
    drv = drive_for(sys_, Omega2=om2, delta1=delta1, delta2=delta2)
    metrics = window_metrics(sys_, drv)
    center_abs, ng_center = window_center_np(sys_, drv)
    assert type(metrics.center_abs) is float and type(metrics.ng_center) is float
    assert same_bits(metrics.center_abs, center_abs)
    assert same_bits(metrics.ng_center, ng_center)


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
       delta1=st.floats(-1e11, 1e11))
# exactly on the knife edge gamma_ab gamma_bc = |Omega2|^2 (width 0), and
# the bare Lorentzian at Omega2 = gamma_bc = 0, whose one maximum is delta1
@example(gamma_ab=1e9, gamma_bc=1e7, omega2=1e8, delta1=0.0)
@example(gamma_ab=1e9, gamma_bc=0.0, omega2=0.0, delta1=1e9)
def test_resonant_window_and_peaks_match_the_mpmath_oracle(gamma_ab, gamma_bc, omega2, delta1):
    # at delta2 = 0 both kernels take the closed form; the oracle roots the
    # unreduced polynomials at 50 digits
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1)
    width, maxima = window_and_peaks_mp(sys_, drv)
    assert window_metrics(sys_, drv).width == pytest.approx(float(width), rel=4 * EPS, abs=0.0)
    peaks = locate_absorption_peaks(sys_, drv)
    assert len(peaks) == len(maxima)
    for found, x in zip(peaks, maxima):
        assert abs(found - delta1 - float(x)) <= 4 * EPS * max(abs(delta1), abs(float(x)))


def test_knife_edge_window_is_near_zero_at_two_photon_resonance():
    # the dip floor within a few ULP of the half level (gamma_ab gamma_bc =
    # |Omega2|^2): the width is near 0 whichever side the floor rounds to,
    # never the far edges
    rng = np.random.default_rng(18)
    for _ in range(3000):
        gamma_ab = rng.uniform(1e9, 1e11)
        gamma_bc = gamma_ab * rng.uniform(0.01, 1.0)
        k = rng.integers(-3, 4)
        sys_ = medium(gamma_ab, gamma_bc)
        drv = drive_for(sys_, Omega2=np.sqrt(gamma_ab * gamma_bc) * (1 + k * 2.2e-16))
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


def test_closed_form_paths_never_reach_the_companion_solve(monkeypatch):
    class Reached(Exception):
        pass

    def companion(coef):
        raise Reached

    monkeypatch.setattr(susceptibility, "_real_roots", companion)
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
    coef = np.array(coef)
    np.testing.assert_allclose(_real_roots(coef), roots, rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(_real_roots(coef), oracle_real_roots(coef))


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
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, delta1=delta1, delta2=delta2)
    grid = np.linspace(low, low + 1e11, points)
    sweep = sweep_control(sys_, drv, grid)
    center = delta1 - delta2
    for v, ng, ab in zip(grid, sweep.ng_center, sweep.chi_im_center):
        d = drv.with_control(v)
        assert ng == pytest.approx(group_index(center, sys_, d), rel=1e-14, abs=0.0)
        assert ab == pytest.approx(chi(center, sys_, d).imag, rel=1e-14, abs=0.0)


# strictly increasing control grids: of either sign, with zero, subnormal
# and tiny Omega2 (whose square is subnormal), or of positive Omega2 only,
# which a list sweep at delta2 = 0 evaluates in Python floats
control_grids = st.one_of(
    st.lists(st.one_of(st.floats(-2e11, 2e11), st.floats(-1e-150, 1e-150)),
             min_size=1, max_size=40, unique=True),
    st.lists(st.one_of(st.floats(5e-324, 2e11), st.floats(5e-324, 1e-150)),
             min_size=1, max_size=40, unique=True)).map(sorted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e11)),
       delta1=st.one_of(st.just(0.0), st.floats(-1e11, 1e11)),
       grid=control_grids)
# gamma_bc = 0, where Im chi is -0.0, with a tie for the maximum at +-Omega2
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=1e9, grid=[-2.5e10, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=1e9, grid=[2.5e10, 5e10])
# the knife edge |Omega2|^2 = gamma_ab gamma_bc, and |Omega2| = gamma_bc, where chi' is 0
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, grid=[1e7, 1e8])
# an Omega2 that is 0, or subnormal, so its square is 0: the complex broadcast
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=-3e9, grid=[0.0, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, grid=[5e-324, 2.5e10])
# a square that is subnormal: with gamma_bc = 0, P^2 underflows and n_g overflows
@example(gamma_ab=1e9, gamma_bc=0.0, delta1=0.0, grid=[1e-160, 2.5e10])
@example(gamma_ab=1e9, gamma_bc=1e7, delta1=0.0, grid=[1e-160, 2.5e10])
def test_resonant_sweep_has_the_complex_broadcast_bits(gamma_ab, gamma_bc, delta1, grid):
    # at delta2 = 0 an array takes the complex broadcast, and so does a list
    # unless sweep_in_floats holds; then the list takes the real closed form
    # point by point, which has the broadcast's bits where the broadcast is
    # finite and raises where it is not.  Lists give lists out
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, delta1=delta1)
    with np.errstate(all="ignore"):
        absorption, ng = sweep_broadcast(sys_, drv, grid)
        sweeps = [(sweep_control(sys_, drv, np.array(grid)), np.ndarray)]
    finite = np.isfinite(absorption).all() and np.isfinite(ng).all()
    if susceptibility.sweep_in_floats(0.0, grid[0], len(grid)) and not finite:
        with pytest.raises(EvaluationError, match="^overflow at the window center"):
            sweep_control(sys_, drv, grid)
    else:
        with np.errstate(all="ignore"):
            sweeps.append((sweep_control(sys_, drv, grid), list))
    i = int(np.argmax(ng))
    for sweep, made in sweeps:
        assert isinstance(sweep.ng_center, made)
        assert isinstance(sweep.chi_im_center, made)
        assert np.array(sweep.ng_center).tobytes() == ng.tobytes()
        assert np.array(sweep.chi_im_center).tobytes() == absorption.tobytes()
        assert same_bits(sweep.argmax_omega2, grid[i]) and same_bits(sweep.ng_max, ng[i])


def test_long_list_sweep_takes_the_broadcast(monkeypatch):
    # past FLOAT_SWEEP_POINTS points a list takes the complex broadcast,
    # which gives the same lists as the closed form
    n = susceptibility.FLOAT_SWEEP_POINTS
    assert susceptibility.sweep_in_floats(0.0, 1e9, n)
    assert not susceptibility.sweep_in_floats(0.0, 1e9, n + 1)
    sys_ = default_system()
    drv = drive_for(sys_)
    grid = np.linspace(1e9, 1e11, 199).tolist()
    in_floats = sweep_control(sys_, drv, grid)
    monkeypatch.setattr(susceptibility, "FLOAT_SWEEP_POINTS", len(grid) - 1)
    broadcast = sweep_control(sys_, drv, grid)
    assert isinstance(broadcast.ng_center, list)
    assert broadcast == in_floats


def test_control_square_past_the_float_range_raises():
    # a Python float square overflows silently; the list route raises as
    # ** does, and the array route, the complex broadcast, leaves numpy's
    # overflow to the caller's errstate
    sys_ = default_system()
    with pytest.raises(OverflowError):
        sweep_control(sys_, drive_for(sys_), [1e9, 1e160])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sweep_control(sys_, drive_for(sys_), np.array([1e9, 1e160]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11),
       gamma_bc=st.one_of(st.just(0.0), st.floats(1e7, 1e10)),
       omega2=st.one_of(st.just(0.0), st.floats(1e8, 2e11)),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       points=st.integers(1, 60))
def test_fused_kernel_is_bit_identical_to_the_pointwise_calls(gamma_ab, gamma_bc, omega2,
                                                              delta1, delta2, points):
    # compute_spectrum and group_velocity take chi and chi' from one
    # evaluation; it must give the very bits the separate calls give
    sys_ = medium(gamma_ab, gamma_bc)
    drv = drive_for(sys_, Omega2=omega2, delta1=delta1, delta2=delta2)
    center = delta1 - delta2
    w = center + gamma_ab * np.linspace(-5.0, 5.0, points)
    table = compute_spectrum(sys_, drv, w)
    x, dx = chi(w, sys_, drv), chi_derivative(w, sys_, drv)
    assert np.array_equal(table.chi_re, x.real)
    assert np.array_equal(table.chi_im, x.imag)
    assert np.array_equal(table.n_g, group_index(w, sys_, drv))
    vg = CONST.c / (1.0 + 0.5 * x.real + 0.5 * drv.omega1 * dx.real)
    assert np.array_equal(group_velocity(w, sys_, drv), vg)
    x0, dx0 = chi(center, sys_, drv), chi_derivative(center, sys_, drv)
    assert group_velocity(center, sys_, drv) == (
        CONST.c / (1.0 + 0.5 * x0.real + 0.5 * drv.omega1 * dx0.real))


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

    def test_compute_spectrum_shapes_and_passivity(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        grid = np.linspace(-2e11, 2e11, 201)
        table = compute_spectrum(sys_, drv, grid)
        assert len(table.chi_re) == len(grid)
        assert np.all(table.chi_im >= -1e-12 * np.max(np.abs(table.chi_im)))
