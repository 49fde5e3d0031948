"""Slab pulse propagation against the analytic envelope oracles."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exciton_eit
from exciton_eit import (CONST, EvaluationError, FieldDrive, LadderSystem,
                         PropagationParams, ScenarioConfig, chi, gaussian_envelope,
                         group_velocity, propagate_pulse, propagation, susceptibility,
                         window_metrics)
from exciton_eit.cli import _propagation_setup
from exciton_eit.propagation import (_LISTS, ATTENUATION_FLOOR, LEAK_LIMIT, _arrays,
                                     _irfft, _measure, _padded_length, _rfft,
                                     _total_and_band, _transfer, in_floats)
from oracles import (analytic_envelope, converged_output, grid_shares, rerun_delay_shift,
                     slab_transmission)


def default_system(N=6.2422e25, gamma_bc=7.596e9):
    return LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13,
        gamma_ab=4.5573e10, gamma_bc=gamma_bc,
        N=N, dipole_ab_sq=0.334e-60)


def drive_for(system, Omega2=1e11):
    return FieldDrive.from_detunings(system, Omega1=1e6, Omega2=Omega2)


SLAB = 30e-6
SIGMA = 2.9e-10
SPAN = 4.8e-9


def narrowband_setup(system, drive, z_steps=120, t_steps=1600):
    params = PropagationParams.from_system(system, drive, SLAB,
                                           z_steps, t_steps, SPAN)
    env = gaussian_envelope(params.t_grid, 6 * SIGMA, SIGMA,
                            amplitude=complex(drive.Omega1))
    return params, env


def deep_window_setup(system, drive):
    """A 0.6 ns pulse 9 sigma into a grid sized for its group delay."""
    sigma = 6e-10
    expected = SLAB / group_velocity(0.0, system, drive)
    params = PropagationParams.from_system(system, drive, SLAB, 400, 2400,
                                           18 * sigma + 2 * expected)
    env = gaussian_envelope(params.t_grid, 9 * sigma, sigma,
                            amplitude=complex(drive.Omega1))
    return params, env


@pytest.fixture(scope="module")
def slab_run():
    sys_ = default_system()
    drv = drive_for(sys_)
    params, env = narrowband_setup(sys_, drv)
    record = propagate_pulse(env, params, drv, sys_)
    return sys_, drv, params, env, record


class TestParams:
    def test_kappa_construction(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        p = PropagationParams.from_system(sys_, drv, SLAB, 100, 1000, 1e-9)
        expected = sys_.N * sys_.dipole_ab_sq * drv.omega1 / (2 * CONST.hbar * CONST.eps0)
        assert p.kappa1_sq == pytest.approx(expected, rel=1e-14)
        assert p.dt == pytest.approx(1e-12)

    def test_envelope_length_checked(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        params, env = narrowband_setup(sys_, drv)
        with pytest.raises(ValueError):
            propagate_pulse(env[:-3], params, drv, sys_)


class TestVacuumLimit:
    def test_identity_at_zero_density(self):
        sys_ = default_system(N=0.0)
        drv = drive_for(sys_)
        params, env = narrowband_setup(sys_, drv, z_steps=40, t_steps=400)
        record = propagate_pulse(env, params, drv, sys_)
        np.testing.assert_array_equal(record.envelope_out, record.envelope_in)
        assert record.measured_delay == 0.0
        assert record.measured_attenuation == 1.0


class TestSlabRun:
    def test_delay_matches_group_velocity(self, slab_run):
        sys_, drv, params, env, record = slab_run
        expected = SLAB / group_velocity(0.0, sys_, drv)
        assert record.measured_delay == pytest.approx(expected, rel=0.05)

    def test_attenuation_matches_center_absorption(self, slab_run):
        sys_, drv, params, env, record = slab_run
        chi0 = chi(0.0, sys_, drv)
        expected = np.exp(-drv.omega1 * chi0.imag * SLAB / (2 * CONST.c))
        assert record.measured_attenuation == pytest.approx(expected, rel=0.05)

    def test_l2_deviation_from_analytic_envelope(self, slab_run):
        sys_, drv, params, env, record = slab_run
        # vacuum transit (L/c ~ 1e-13 s) is far below the grid step, so the
        # lab-frame analytic solution can be compared on the retarded grid
        reference = analytic_envelope(env, params.t_grid, SLAB, drv, sys_)
        dev = np.linalg.norm(record.envelope_out - reference) / np.linalg.norm(reference)
        assert dev < 0.05

    def test_grid_convergence(self, slab_run):
        sys_, drv, params, env, record = slab_run
        assert record.converged
        assert record.convergence_delta < 0.01

    def test_causality(self, slab_run):
        sys_, drv, params, env, record = slab_run
        thresh = 1e-6 * np.max(np.abs(record.envelope_in))
        lead_in = int(np.argmax(np.abs(record.envelope_in) > thresh))
        lead_out = int(np.argmax(np.abs(record.envelope_out) > thresh))
        assert lead_out >= lead_in - 1

    def test_phase_small_at_window_center(self, slab_run):
        # Re chi vanishes at the symmetric window center, so no phase shift
        sys_, drv, params, env, record = slab_run
        assert abs(record.measured_phase) < 1e-2


class TestAnalyticEnvelope:
    def test_zero_distance_is_identity(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        t = np.linspace(0, 4e-9, 801)
        env = gaussian_envelope(t, 2e-9, 3e-10)
        np.testing.assert_allclose(analytic_envelope(env, t, 0.0, drv, sys_), env)

    def test_pure_delay_when_center_response_vanishes(self):
        # gamma_bc = 0 at two-photon resonance: chi(0) = 0 exactly, so the
        # envelope is only delayed by z / v_g
        sys_ = default_system(gamma_bc=0.0)
        drv = drive_for(sys_)
        t = np.linspace(0, 6e-9, 1201)
        env = gaussian_envelope(t, 2e-9, 3e-10)
        z = SLAB
        out = analytic_envelope(env, t, z, drv, sys_)
        vg = group_velocity(0.0, sys_, drv)
        manual = np.interp(t - z / vg, t, env.real, left=0.0, right=0.0)
        np.testing.assert_allclose(out.real, manual, atol=1e-12)
        # sub-cell interpolation clips the sampled maximum only slightly
        np.testing.assert_allclose(np.abs(out).max(), np.abs(env).max(), rtol=1e-5)


class TestStrongerAbsorption:
    def test_deep_window_delay_still_tracks_group_velocity(self):
        # at the group-index optimum the slab is optically thick; the
        # centroid delay remains a robust group-delay measure even though
        # the peak is heavily filtered.  The pulse starts 9 sigma into the
        # grid so the turn-on truncation sits far below the e^-28 level of
        # the transmitted amplitude.
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=2.5e10)
        expected = SLAB / group_velocity(0.0, sys_, drv)
        params, env = deep_window_setup(sys_, drv)
        record = propagate_pulse(env, params, drv, sys_)
        assert record.measured_delay == pytest.approx(expected, rel=0.10)
        assert record.measured_attenuation < 1e-10


class TestSpectralSolution:
    def test_z_steps_does_not_change_envelope(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        outputs = []
        for z_steps in (40, 480):
            params, env = narrowband_setup(sys_, drv, z_steps=z_steps)
            outputs.append(propagate_pulse(env, params, drv, sys_).envelope_out)
        np.testing.assert_array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("carrier_phase", [3.0, -3.0, np.pi / 2])
    def test_phase_does_not_depend_on_the_input_phase(self, carrier_phase):
        # detuned from the window centre the slab shifts the phase by -0.69 rad
        sys_ = default_system()
        drv = FieldDrive.from_detunings(sys_, Omega1=1e6, Omega2=1e11, delta1=2e10)
        params, env = narrowband_setup(sys_, drv)
        phase = propagate_pulse(env, params, drv, sys_).measured_phase
        rotated = propagate_pulse(env * np.exp(1j * carrier_phase), params, drv, sys_)
        assert rotated.measured_phase == pytest.approx(phase, rel=0.0, abs=1e-12)
        assert phase == pytest.approx(-0.6902, abs=1e-4)

    def test_opposite_real_peaks_read_a_phase_of_pi(self):
        # real envelopes, as the resonant route gives them: the product of
        # the peaks has an imaginary part of -0.0, where np.angle reads -pi;
        # the phase stays in (-pi, pi]
        t = np.arange(3.0)
        env = np.array([1.0, 2.0, 1.0])
        for env_in, env_out in ((-env, env), (env, -env)):
            record = _measure(t, env_in.astype(complex), env_out.astype(complex), _arrays())
            assert record.measured_phase == np.pi

    @pytest.mark.parametrize("carrier_phase", [3.0, -3.0, np.pi / 2])
    def test_resonant_output_turns_with_the_input_phase(self, carrier_phase):
        # a complex envelope takes one real pair per part; the output turns
        # with the input, and the observables are the real input's
        sys_ = default_system()
        drv = drive_for(sys_)
        params, env = narrowband_setup(sys_, drv)
        turn = np.exp(1j * carrier_phase)
        record = propagate_pulse(env, params, drv, sys_)
        rotated = propagate_pulse(env * turn, params, drv, sys_)
        assert (np.max(np.abs(rotated.envelope_out - record.envelope_out * turn))
                <= 4 * np.finfo(float).eps * drv.Omega1)
        assert rotated.measured_delay == pytest.approx(record.measured_delay, rel=1e-12)
        assert rotated.measured_attenuation == pytest.approx(record.measured_attenuation,
                                                             rel=1e-12)
        assert rotated.measured_phase == pytest.approx(0.0, abs=1e-12)

    def test_slabs_compose(self):
        # L1 then L2 is one pass through L1 + L2 (centre transmission ~5e-2);
        # the pulse sits 9 sigma from both grid ends, so truncating the
        # intermediate envelope drops nothing above roundoff
        sys_ = default_system()
        drv = drive_for(sys_)
        span = 18 * SIGMA + 2 * SLAB / group_velocity(0.0, sys_, drv)
        t_grid = PropagationParams.from_system(sys_, drv, SLAB, 120, 2000, span).t_grid
        env = gaussian_envelope(t_grid, 9 * SIGMA, SIGMA, amplitude=complex(drv.Omega1))

        def through(envelope, length):
            params = PropagationParams.from_system(sys_, drv, length, 120, 2000, span)
            return propagate_pulse(envelope, params, drv, sys_).envelope_out

        split = through(through(env, 10e-6), 20e-6)
        whole = through(env, SLAB)
        assert np.linalg.norm(split - whole) / np.linalg.norm(whole) < 1e-10


def smooth_part(n):
    """What is left of n once every factor 2, 3 and 5 is divided out."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n


class TestGaussianEnvelope:
    @pytest.mark.parametrize("sigma", [5.421896305467617e-10, 2.9e-10, 1e-100, 1e100])
    def test_bits_of_the_direct_formula(self, sigma):
        # the power-of-two scaling is exact while sigma^2 is a normal number
        t = np.linspace(0.0, 18.0 * sigma, 2401)
        direct = np.exp(-((t - 9.0 * sigma) ** 2) / (2.0 * sigma**2))
        np.testing.assert_array_equal(gaussian_envelope(t, 9.0 * sigma, sigma), direct)

    def test_sigma_whose_square_underflows(self):
        sigma = 1e-300
        env = gaussian_envelope(np.arange(19) * sigma, 9.0 * sigma, sigma)
        assert env[9] == 1.0
        assert env[0] == pytest.approx(np.exp(-40.5), rel=1e-12)


class TestPaddedLength:
    # at 2400, 2 (t_steps + 1) is 4802 = 2 * 7^4
    @pytest.mark.parametrize("t_steps", [8, 16, 17, 1600, 2400, 2401, 4097])
    def test_smooth_and_wide_enough(self, t_steps):
        n_pad = _padded_length(t_steps)
        assert smooth_part(n_pad) == 1 and n_pad % 4 == 0
        assert n_pad >= 2 * (t_steps + 1)
        assert all(smooth_part(k) > 1 for k in range(2 * (t_steps + 1), n_pad) if k % 4 == 0)

    def test_default_grid(self):
        assert _padded_length(2400) == 4860
        assert _padded_length(10) == 24


# The one pass against the converged one (``converged_output``, padded to
# 32x the grid), on both carriers.  Bounds are a few times the worst seen:
# envelope 4.4e-13 of the input peak on the narrowband and detuned pulses,
# ringing from their 6 sigma turn-on step (1.5e-8 of the peak) that wraps
# round onto the window, and 6.6e-17 on the deep window, whose pulse
# starts 9 sigma in; attenuation 1.6e-13 apart; delay 1.7e-9 relative and
# phase 5.4e-6 rad on the e^-29 deep window (its output sits near the
# FFT's roundoff floor; the package's real output reads a phase of 0),
# against an equal delay and 3.2e-12 rad elsewhere.
ENVELOPE_BOUNDS = {"narrowband": 2e-12, "deep window": 3e-16, "detuned": 2e-12}


@pytest.mark.parametrize("listed", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("case", ENVELOPE_BOUNDS)
def test_padding_agrees_with_the_converged_pass(case, listed):
    sys_ = default_system()
    if case == "deep window":
        drv = drive_for(sys_, Omega2=2.5e10)
        params, env = deep_window_setup(sys_, drv)
    else:
        drv = FieldDrive.from_detunings(sys_, Omega1=1e6, Omega2=1e11,
                                        delta1=2e10 if case == "detuned" else 0.0)
        params, env = narrowband_setup(sys_, drv)
    record = propagate_pulse(env.tolist() if listed else env, params, drv, sys_)
    exact = _measure(params.t_grid, env, converged_output(env, params, drv, sys_)[:len(env)],
                     _arrays())
    assert (np.max(np.abs(np.asarray(record.envelope_out) - exact.envelope_out))
            <= ENVELOPE_BOUNDS[case] * np.max(np.abs(env)))
    assert abs(record.measured_attenuation - exact.measured_attenuation) <= 1e-12
    assert record.measured_delay == pytest.approx(exact.measured_delay, rel=5e-9, abs=0.0)
    assert abs(record.measured_phase - exact.measured_phase) <= 5e-5
    assert record.converged


# The module docstring's bound on the wrap-round of the one pass.  Where
# the converged pass has no more energy past N than in the padding [M, N),
# the energy wrapped onto the window (the one pass's difference from the
# converged one there) is at most the spill energy, up to the two passes'
# roundoff, eps of the input peak per sample.  Over 80 random draws of this
# space, the ones that met the condition wrapped at most 0.59 of the spill
# energy; the others, most of them at the roundoff floor, up to 3.4 times.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(delta1=st.just(0.0) | st.floats(-3e10, 3e10),
       delta2=st.just(0.0) | st.floats(-3e10, 3e10),
       slab_length=st.floats(1e-6, 45e-6),
       span_scale=st.floats(0.2, 2.0),
       t_steps=st.sampled_from([10, 64, 400, 2400]))
@example(delta1=0.0, delta2=0.0, slab_length=30e-6, span_scale=0.35, t_steps=2400)
@example(delta1=0.0, delta2=0.0, slab_length=8e-6, span_scale=0.3, t_steps=64)
def test_spill_share_bounds_the_energy_that_wraps(delta1, delta2, slab_length, span_scale,
                                                  t_steps):
    env, params, drive, system = cli_pulse(t_steps=t_steps, delta1=delta1, delta2=delta2,
                                           slab_length=slab_length, span_scale=span_scale)
    record = propagate_pulse(env, params, drive, system)
    n, n_pad = len(env), _padded_length(t_steps)
    exact = converged_output(env, params, drive, system)
    if np.vdot(exact[n_pad:], exact[n_pad:]).real > np.vdot(exact[n:n_pad], exact[n:n_pad]).real:
        return
    wrapped = np.sum(np.abs(record.envelope_out - exact[:n]) ** 2)
    window = np.sum(np.abs(record.envelope_out) ** 2)
    roundoff = n * (np.finfo(float).eps * np.max(np.abs(env))) ** 2
    # spill_share = spill / (window + spill)
    share = record.spill_share
    assert wrapped * (1.0 - share) <= share * window + roundoff


@pytest.mark.parametrize("listed", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("case", [dict(slab_length=5e-6, t_steps=38), {}],
                         ids=["5 um, t_steps 38", "default"])
def test_a_hair_off_resonance_gives_the_resonant_envelope(case, listed):
    # the Nyquist bin takes the mean of H at +fs/2 and -fs/2 on every
    # drive, which at resonant drive is the real part irfft keeps; H at
    # -fs/2 alone, as fft takes it, would step the 5 um pulse by 6.0e-14
    # |Omega1|, in an imaginary part that alternates sign sample to sample
    records = []
    for delta1 in (0.0, 1e-300):
        env, params, drive, system = cli_pulse(delta1=delta1, **case)
        records.append(propagate_pulse(env.tolist() if listed else env, params, drive, system))
    resonant, off = (np.asarray(r.envelope_out) for r in records)
    assert np.max(np.abs(off - resonant)) <= 4 * np.finfo(float).eps * drive.Omega1


# t_steps 10 pads to 24, t_steps 2400 to 4860
@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_gamma_ab=st.floats(-3.0, 25.0),
       bc_ratio=st.just(0.0) | st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
       control=st.just(0.0) | st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
       length=st.floats(-7.0, -3.0).map(lambda e: 10.0**e),
       span_scale=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
       t_steps=st.sampled_from([10, 2400]))
@example(log_gamma_ab=10.66, bc_ratio=0.0, control=0.5, length=3e-5, span_scale=1e3,
         t_steps=10)     # gamma_bc = 0
@example(log_gamma_ab=10.66, bc_ratio=0.17, control=0.0, length=3e-5, span_scale=1e3,
         t_steps=2400)   # Omega2 = 0
def test_real_input_leaves_the_slab_real(log_gamma_ab, bc_ratio, control, length,
                                         span_scale, t_steps):
    # at delta1 = delta2 = 0 the impulse response is real; the output of a
    # real input has an imaginary part of exactly 0 and follows the complex
    # pass, within 5.9e-16 of the input peak on these derandomised draws.
    # The bound holds on them only: uniform draws over the same space reach
    # 1.4e-14, where the two passes round exp of a large transfer phase apart
    gamma_ab = 10.0**log_gamma_ab
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=gamma_ab,
        gamma_bc=bc_ratio * gamma_ab, N=6.2422e25, dipole_ab_sq=0.334e-60)
    drv = drive_for(sys_, Omega2=control * gamma_ab)
    params = PropagationParams.from_system(sys_, drv, length, 1, t_steps,
                                           span_scale / gamma_ab)
    sigma = params.t_grid[-1] / 18.0
    env = gaussian_envelope(params.t_grid, 9.0 * sigma, sigma, amplitude=complex(drv.Omega1))
    record = propagate_pulse(env, params, drv, sys_)
    assert record.envelope_out.dtype == np.complex128
    assert not record.envelope_out.imag.any()
    reference = slab_transmission(env, params, drv, sys_, n_pad=_padded_length(t_steps))
    assert np.max(np.abs(record.envelope_out - reference)) <= 2e-15 * drv.Omega1


@pytest.mark.parametrize("delta1, delta2, points", [
    (0.0, 0.0, 9720 // 2 + 1),
    (2e10, 0.0, 9720),
    (0.0, -3e9, 9720),
    (-2e9, -3e9, 9720),
])
def test_only_the_resonant_drive_evaluates_half_the_grid(monkeypatch, delta1, delta2, points):
    # every call is on the N/2 + 1 one-sided frequencies: once at resonant
    # drive, where the transfer is Hermitian, and once for each sign off it,
    # where the two calls cover all N FFT bins, as a complex pass would
    seen = []

    def counted(omega, system, drive, **kwargs):
        seen.append(np.array(omega))
        return susceptibility._columns(omega, system, drive, **kwargs)

    monkeypatch.setattr(propagation, "_columns", counted)
    sys_ = default_system()
    drv = FieldDrive.from_detunings(sys_, Omega1=1e6, Omega2=4e10, delta1=delta1, delta2=delta2)
    params = PropagationParams.from_system(sys_, drv, SLAB, 1, 4800, SPAN)
    assert _padded_length(params.t_steps) == 9720
    propagate_pulse(gaussian_envelope(params.t_grid, SPAN / 2, SIGMA), params, drv, sys_)
    calls = 1 if delta1 == delta2 == 0.0 else 2
    assert [omega.shape for omega in seen] == [(9720 // 2 + 1,)] * calls
    bins = np.rint(np.concatenate(seen) * (-9720 * params.dt / (2.0 * np.pi))).astype(int)
    assert len(np.unique(bins % 9720)) == points


def cli_pulse(t_steps=2400, sigma_scale=1.0, span_scale=1.0, **config):
    """The CLI's pulse sizing on a config.  ``sigma_scale`` narrows the
    pulse, kept 9 sigma into the window, without changing the span;
    ``span_scale`` scales the span."""
    cfg = ScenarioConfig(**config)
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    sigma, _, span = _propagation_setup(cfg, system, drive)
    sigma *= sigma_scale
    params = PropagationParams.from_system(system, drive, cfg.slab_length, cfg.z_steps,
                                           t_steps, span * span_scale)
    env = gaussian_envelope(params.t_grid, 9.0 * sigma, sigma,
                            amplitude=complex(drive.Omega1))
    return env, params, drive, system


# The 33 um slab attenuates the pulse to within 2x of ATTENUATION_FLOOR.
# The sigma x 0.02 and x 0.05 pulses keep under 1e-4 of their input
# spectrum above half Nyquist, but the slab absorbs the line centre and
# passes the far wings, so most of the output lies there.
GRID_CASES = {
    "default": {},
    "t_steps 64": dict(t_steps=64),
    "t_steps 32": dict(t_steps=32),
    "t_steps 20": dict(t_steps=20),
    "t_steps 16": dict(t_steps=16),
    "sigma x 0.01": dict(sigma_scale=0.01),
    "sigma x 0.003": dict(sigma_scale=0.003),
    "span x 0.5": dict(span_scale=0.5),
    "span x 0.35": dict(span_scale=0.35),
    "span x 0.25": dict(span_scale=0.25),
    "detuned": dict(delta1=-2e9, delta2=-3e9, Omega2=4e10),
    "gamma_bc 0": dict(gamma_bc=0.0),
    "15 um": dict(slab_length=15e-6, Omega2=6e10),
    "33 um, t_steps 40": dict(slab_length=33e-6, t_steps=40),
    "33 um, t_steps 20": dict(slab_length=33e-6, t_steps=20),
    "sigma x 0.02": dict(sigma_scale=0.02),
    "sigma x 0.05, t_steps 1000": dict(sigma_scale=0.05, t_steps=1000),
}


@pytest.mark.parametrize("case", GRID_CASES)
def test_converged_agrees_with_the_half_resolution_rerun(case):
    env, params, drive, system = cli_pulse(**GRID_CASES[case])
    record = propagate_pulse(env, params, drive, system)
    assert record.measured_attenuation >= ATTENUATION_FLOOR
    assert record.converged == (rerun_delay_shift(env, params, drive, system) <= 0.01)


@pytest.mark.parametrize("t_steps", [14, 16, 24])
def test_band_share_is_the_gaussian_spectrum_above_half_nyquist(t_steps):
    # |E(w)|^2 ~ exp(-sigma^2 w^2), so the share above w = pi / (2 dt) is
    # erfc(sigma pi / (2 dt)), up to the sampling of the spectrum on N bins
    sys_ = default_system()
    drv = drive_for(sys_)
    params, env = narrowband_setup(sys_, drv, t_steps=t_steps)
    record = propagate_pulse(env, params, drv, sys_)
    expected = math.erfc(SIGMA * np.pi / (2.0 * params.dt))
    assert record.band_share == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("t_steps", [8, 15])
def test_grids_too_short_for_the_rerun_are_flagged(t_steps):
    # the rerun needed 16 steps, so these grids went unchecked
    record = propagate_pulse(*cli_pulse(t_steps=t_steps))
    assert not record.converged
    assert record.band_share > LEAK_LIMIT


def test_one_fft_pair_per_pulse(monkeypatch):
    # one rfft per nonzero part of the envelope and one irfft per nonzero
    # part of the output, at every drive; no complex FFT runs
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    resonant = cli_pulse()
    detuned = cli_pulse(**GRID_CASES["detuned"])
    for (env, params, drive, system), turn, expected in [
            (resonant, 1.0, ["rfft", "irfft"]),
            (resonant, np.exp(0.5j), ["rfft", "rfft", "irfft", "irfft"]),
            (detuned, 1.0, ["rfft", "irfft", "irfft"]),
            (detuned, np.exp(0.5j), ["rfft", "rfft", "irfft", "irfft"])]:
        calls.clear()
        propagate_pulse(env * turn, params, drive, system)
        assert calls == expected


# Bounds are a few times the worst seen over 250 seed-7 and 250 seed-11
# pulse-warm draws against the complex pass: envelope 2.9e-16 of the input
# peak; delay 7.9e-8 and attenuation 5.4e-5 relative, the conditioning of
# an output near the roundoff floor; shares 2.2e-7, roundoff readings
# against shares of at most 1.8e-6 there.
@pytest.mark.parametrize("case", ["default", "gamma_bc 0", "15 um", "t_steps 10"])
def test_real_route_matches_the_complex_pass(case):
    env, params, drive, system = cli_pulse(**{**GRID_CASES, "t_steps 10": dict(t_steps=10)}[case])
    record = propagate_pulse(env, params, drive, system)
    n_pad = _padded_length(params.t_steps)
    reference = _measure(params.t_grid, env,
                         slab_transmission(env, params, drive, system, n_pad=n_pad), _arrays())
    band_share, spill_share = grid_shares(env, params, drive, system, n_pad)
    assert np.max(np.abs(record.envelope_out - reference.envelope_out)) <= 1e-15 * drive.Omega1
    assert record.measured_delay == pytest.approx(reference.measured_delay, rel=3e-7, abs=0.0)
    assert record.measured_attenuation == pytest.approx(reference.measured_attenuation,
                                                        rel=1e-3, abs=0.0)
    assert record.band_share == pytest.approx(band_share, rel=0.0, abs=1e-6)
    assert record.spill_share == pytest.approx(spill_share, rel=0.0, abs=1e-6)
    assert record.converged == (max(band_share, spill_share) <= LEAK_LIMIT
                                and reference.measured_attenuation >= ATTENUATION_FLOOR)


# The bounds of test_real_route_matches_the_complex_pass.  Over 1200
# uniform draws of this space the envelopes stayed within 3.0e-16 of the
# input peak.  Where the oracle transmits at least 1e-12, the shares stayed
# within 1.8e-9, the delay within 3.1e-9 and the attenuation within 3.6e-5
# relative.  Nearer the roundoff floor the observables read the input's
# roundoff through the transparent wings, which the two passes round
# differently: the shares up to 0.045 apart and the attenuations by a
# factor 0.65 to 1.44 below 1e-12.  There ``converged`` is compared only
# where the oracle's share exceeds LEAK_LIMIT by more than SHARE_GAP, a few
# times that gap, so that both passes flag the grid; a share below
# LEAK_LIMIT leaves ``converged`` to an attenuation that may round across
# ATTENUATION_FLOOR.  t_steps 10 pads to 24, t_steps 2400 to 4860.
SHARE_GAP = 0.2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(delta1=st.just(0.0) | st.floats(-3e10, 3e10),
       delta2=st.just(0.0) | st.floats(-3e10, 3e10),
       phase=st.just(0.0) | st.floats(-np.pi, np.pi),
       slab_length=st.floats(1e-6, 45e-6),
       t_steps=st.sampled_from([10, 2400]))
@example(delta1=5e9, delta2=0.0, phase=0.0, slab_length=30e-6, t_steps=10)    # N = 24
@example(delta1=-2e9, delta2=-3e9, phase=2.0, slab_length=5e-6, t_steps=2400)
def test_route_matches_the_complex_pass_at_any_drive(delta1, delta2, phase, slab_length,
                                                     t_steps):
    env, params, drive, system = cli_pulse(t_steps=t_steps, delta1=delta1, delta2=delta2,
                                           slab_length=slab_length)
    env = env * np.exp(1j * phase)
    record = propagate_pulse(env, params, drive, system)
    n_pad = _padded_length(t_steps)
    reference = _measure(params.t_grid, env,
                         slab_transmission(env, params, drive, system, n_pad=n_pad), _arrays())
    band_share, spill_share = grid_shares(env, params, drive, system, n_pad)
    assert np.max(np.abs(record.envelope_out - reference.envelope_out)) <= 1e-15 * drive.Omega1
    share = max(band_share, spill_share)
    if reference.measured_attenuation >= 1e-12 or share > LEAK_LIMIT + SHARE_GAP:
        assert record.converged == (share <= LEAK_LIMIT
                                    and reference.measured_attenuation >= ATTENUATION_FLOOR)
    if reference.measured_attenuation >= 1e-12:
        assert record.measured_delay == pytest.approx(reference.measured_delay,
                                                      rel=3e-7, abs=0.0)
        assert record.measured_attenuation == pytest.approx(reference.measured_attenuation,
                                                            rel=1e-3, abs=0.0)
        assert record.band_share == pytest.approx(band_share, rel=0.0, abs=1e-6)
        assert record.spill_share == pytest.approx(spill_share, rel=0.0, abs=1e-6)


def causal(env_in, env_out):
    """The output first exceeds 1e-6 of the input peak no earlier than one
    step before the input does; an output that never does cannot rise early."""
    thresh = 1e-6 * np.max(np.abs(env_in))
    lead_in = int(np.flatnonzero(np.abs(env_in) > thresh)[0])
    above = np.flatnonzero(np.abs(env_out) > thresh)
    return above.size == 0 or int(above[0]) >= lead_in - 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega2=st.floats(2.5e10, 1e11), length=st.floats(5e-6, 200e-6),
       gamma_scale=st.floats(0.5, 2.0))
def test_pulse_invariants(omega2, length, gamma_scale):
    sys_ = default_system(gamma_bc=7.596e9 * gamma_scale)
    drv = drive_for(sys_, Omega2=omega2)
    # the CLI's pulse sizing
    width = window_metrics(sys_, drv).width
    sigma = 10.0 / width if width > 0 else 10.0 / sys_.gamma_ab
    expected = length / group_velocity(0.0, sys_, drv)
    params = PropagationParams.from_system(sys_, drv, length, 480, 2400,
                                           18 * sigma + 2 * expected)
    env = gaussian_envelope(params.t_grid, 9 * sigma, sigma,
                            amplitude=complex(drv.Omega1))
    record = propagate_pulse(env, params, drv, sys_)
    # passive medium: Im chi >= 0 everywhere, so no spectral component grows
    assert np.linalg.norm(record.envelope_out) <= np.linalg.norm(env)
    assert causal(env, record.envelope_out)
    # below the attenuation floor the input's roundoff through the
    # transparent wings swamps the pulse, and the record says so
    if record.converged:
        assert record.measured_delay == pytest.approx(expected, rel=0.10)


# ---- the list carrier: the same route in Python floats ----

def five_smooth(lo, hi):
    return [n for n in range(lo, hi + 1) if smooth_part(n) == 1]


# The Python FFT pair against numpy's, on the lengths the route pads to
# (5-smooth multiples of 4), as it calls them: a real input of at most
# N/2 samples, odd or even in number (the zero-padded pulse), or N long,
# and a one-sided spectrum whose bins 0 and N/2 carry imaginary parts
# that both inverses drop.  The bound is eps log2 N of the largest value;
# the worst seen over three seeds was 0.44 of it (irfft, N = 48), and
# 0.35 for the rfft.
def test_list_fft_pair_matches_numpy():
    rng = np.random.default_rng(25)
    lengths = [n for n in five_smooth(40, 12000) if n % 4 == 0]
    assert lengths[-1] == 12000 and len(lengths) == 115
    for n in lengths:
        bound = np.finfo(float).eps * math.log2(n)
        for size in (n // 4, n // 2 - 1, n):
            x = rng.standard_normal(size)
            ref = np.fft.rfft(x, n)
            got = _rfft(x.tolist(), n)
            assert len(got) == n // 2 + 1
            assert np.max(np.abs(np.array(got) - ref)) <= bound * np.max(np.abs(ref)), (n, size)
        spectrum = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        ref = np.fft.irfft(spectrum, n)
        got = _irfft(spectrum.tolist(), n)
        assert len(got) == n and {type(v) for v in got} == {float}
        assert np.max(np.abs(np.array(got) - ref)) <= bound * np.max(np.abs(ref)), n


@pytest.mark.parametrize("sigma", [5.421896305467617e-10, 2.9e-10, 1e-100, 1e100])
def test_gaussian_on_a_list(sigma):
    # the same steps in Python floats: math.exp and numpy's may round apart
    t = np.linspace(0.0, 18.0 * sigma, 2401)
    array = gaussian_envelope(t, 9.0 * sigma, sigma, amplitude=2.0)
    listed = gaussian_envelope(t.tolist(), 9.0 * sigma, sigma, amplitude=2.0)
    assert type(listed) is list and {type(z) for z in listed} == {complex}
    np.testing.assert_allclose(listed, array, rtol=4 * np.finfo(float).eps, atol=0.0)


LIST_CASES = {**GRID_CASES, "t_steps 10": dict(t_steps=10)}


# Bounds are a few times the worst seen over these cases, with the real
# input and with it turned by exp(0.5i): envelope 2.9e-16 of the input
# peak; on the default e^-28.5 window (the conditioning of FOUND line 13)
# delay 1.6e-8, attenuation 8.2e-5 and phase 4.8e-5 rad apart, elsewhere
# 4.2e-11 relative at most; shares 3.0e-8 apart.  The phase is compared
# modulo 2 pi, since a peak phase near pi may wrap either way.
@pytest.mark.parametrize("turn", [1.0, np.exp(0.5j)], ids=["real", "turned"])
@pytest.mark.parametrize("case", LIST_CASES)
def test_list_route_matches_the_array_route(case, turn):
    env, params, drive, system = cli_pulse(**LIST_CASES[case])
    env = env * turn
    array = propagate_pulse(env, params, drive, system)
    listed = propagate_pulse(env.tolist(), params, drive, system)
    assert type(listed.envelope_out) is list and type(listed.t_grid) is list
    assert listed.t_grid == params.t_grid.tolist()
    assert (np.max(np.abs(np.array(listed.envelope_out) - array.envelope_out))
            <= 1e-15 * np.max(np.abs(env)))
    assert listed.measured_delay == pytest.approx(array.measured_delay, rel=1e-7, abs=0.0)
    assert listed.measured_attenuation == pytest.approx(array.measured_attenuation,
                                                        rel=3e-4, abs=0.0)
    assert abs(math.remainder(listed.measured_phase - array.measured_phase, math.tau)) <= 2e-4
    assert listed.band_share == pytest.approx(array.band_share, rel=0.0, abs=1e-7)
    assert listed.spill_share == pytest.approx(array.spill_share, rel=0.0, abs=1e-7)
    assert listed.converged == array.converged


# the draws of test_real_input_leaves_the_slab_real, on lists
@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_gamma_ab=st.floats(-3.0, 25.0),
       bc_ratio=st.just(0.0) | st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
       control=st.just(0.0) | st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
       length=st.floats(-7.0, -3.0).map(lambda e: 10.0**e),
       span_scale=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
       t_steps=st.sampled_from([10, 2400]))
@example(log_gamma_ab=10.66, bc_ratio=0.0, control=0.5, length=3e-5, span_scale=1e3,
         t_steps=10)     # gamma_bc = 0
def test_real_input_leaves_the_slab_real_on_lists(log_gamma_ab, bc_ratio, control, length,
                                                  span_scale, t_steps):
    # at delta1 = delta2 = 0 every output sample is real, with an imaginary
    # part of +0.0, so its phase and the measured phase are exactly 0 or pi
    gamma_ab = 10.0**log_gamma_ab
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=gamma_ab,
        gamma_bc=bc_ratio * gamma_ab, N=6.2422e25, dipole_ab_sq=0.334e-60)
    drv = drive_for(sys_, Omega2=control * gamma_ab)
    params = PropagationParams.from_system(sys_, drv, length, 1, t_steps,
                                           span_scale / gamma_ab)
    sigma = params.t_list[-1] / 18.0
    env = gaussian_envelope(params.t_list, 9.0 * sigma, sigma, amplitude=complex(drv.Omega1))
    record = propagate_pulse(env, params, drv, sys_)
    assert type(record.envelope_out) is list
    assert all(math.copysign(1.0, z.imag) == 1.0 and z.imag == 0.0
               for z in record.envelope_out)
    assert set(map(cmath.phase, record.envelope_out)) <= {0.0, math.pi}
    assert record.measured_phase in (0.0, math.pi)


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("case", GRID_CASES)
def test_transfer_carriers_have_the_same_bits(case, detuned):
    # both carriers take chi from one real closed form and build H as one
    # complex exp of (-K Im chi) + i (K Re chi): numpy's exp on the array
    # and cmath.exp point by point give the same bits on every bin, at
    # either sign of the one-sided frequencies
    _, params, drive, system = cli_pulse(**GRID_CASES[case])
    if detuned:
        drive = drive._replace(delta1=-2e9, delta2=-3e9)
    freq = np.fft.rfftfreq(_padded_length(params.t_steps), params.dt)
    for f in (freq, -freq):
        listed = _transfer(f.tolist(), params, drive, system, _LISTS)
        assert (np.array(listed).tobytes()
                == _transfer(f, params, drive, system, _arrays()).tobytes())


@pytest.mark.parametrize("t_steps, n_pad, listed", [
    (8999, 18000, True),    # the limit
    (9000, 18432, False),
    (2400, 4860, True),
])
def test_lists_past_the_limit_take_numpy(t_steps, n_pad, listed):
    assert propagation._FLOAT_FFT_LENGTH == 18000
    assert _padded_length(t_steps) == n_pad and in_floats(t_steps) == listed
    env, params, drive, system = cli_pulse(t_steps=t_steps)
    record = propagate_pulse(env.tolist(), params, drive, system)
    assert isinstance(record.envelope_out, list) == listed and record.converged


def test_edge_bins_square_as_products():
    # numpy's scalar ** 2 takes libm's pow, which rounds 5.1e10 ** 2 up to
    # 2.6010000000000003e21: the DC and Nyquist bins are squared as
    # products on either carrier, so a spectrum all in DC holds |X0|^2 exactly
    spectrum = np.array([5.1e10, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    assert _total_and_band(spectrum, None, 8, _arrays()) == (5.1e10 * 5.1e10, 0.0)
    assert _total_and_band(spectrum.tolist(), None, 8, _LISTS) == (5.1e10 * 5.1e10, 0.0)


@pytest.mark.parametrize("listed", [False, True], ids=["array", "list"])
def test_a_pole_on_the_grid_raises_on_either_carrier(listed):
    # with gamma_ab = 0 and no control the bare line's pole is the DC bin
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=0.0, gamma_bc=0.0,
        N=6.2422e25, dipole_ab_sq=0.334e-60)
    drv = drive_for(sys_, Omega2=0.0)
    params = PropagationParams.from_system(sys_, drv, SLAB, 1, 64, SPAN)
    env = gaussian_envelope(params.t_list if listed else params.t_grid, SPAN / 2, SIGMA)
    with pytest.raises(EvaluationError, match="exactly on a pole"):
        propagate_pulse(env, params, drv, sys_)


def test_an_infinite_phase_is_an_overflow_on_lists():
    # K Re(chi) past the float range while K Im(chi) is not: cmath.exp
    # raises ValueError on the infinite phase, which the list route reports
    # as the overflow it is (numpy's exp gives nan there)
    sys_ = LadderSystem.from_frequencies(
        omega_ab=3.266576e15, omega_ac=3.1402e13, gamma_ab=1e-320, gamma_bc=0.0,
        N=6.2422e25, dipole_ab_sq=0.334e-60)
    drv = drive_for(sys_, Omega2=0.0)
    params = PropagationParams(kappa1_sq=1e300, L=1e5, z_steps=1, t_steps=8, dt=1.0)
    with pytest.raises(OverflowError, match="phase"):
        _transfer([-1e-13 / (2.0 * math.pi)], params, drv, sys_, _LISTS)


def fresh_import_prints(expression):
    """Print ``expression`` from a fresh interpreter that imported the package."""
    src = Path(exciton_eit.__file__).resolve().parents[1]
    code = f"import sys, exciton_eit; print({expression})"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    return result.stdout.strip()


def test_package_import_skips_scipy_signal():
    assert fresh_import_prints("'scipy.signal' in sys.modules") == "False"


def test_package_import_loads_no_scipy():
    assert fresh_import_prints(
        "any(m.split('.')[0] == 'scipy' for m in sys.modules)") == "False"
