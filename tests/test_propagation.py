"""Slab pulse propagation against the analytic envelope oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exciton_eit
from exciton_eit import (CONST, FieldDrive, LadderSystem, PropagationParams,
                         chi, gaussian_envelope, group_velocity,
                         propagate_pulse, window_metrics)
from oracles import analytic_envelope


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
        assert p.dz == pytest.approx(SLAB / 100)
        assert p.dt == pytest.approx(1e-12)

    def test_grid_constraint_enforced(self):
        sys_ = default_system()
        drv = drive_for(sys_)
        # dz = 1 m per step with dt = 1e-12 violates dz <= c dt
        with pytest.raises(ValueError):
            PropagationParams.from_system(sys_, drv, 2.0, 2, 1000, 1e-9)

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
        sigma = 6e-10
        expected = SLAB / group_velocity(0.0, sys_, drv)
        span = 18 * sigma + 2 * expected
        params = PropagationParams.from_system(sys_, drv, SLAB, 400, 2400, span)
        env = gaussian_envelope(params.t_grid, 9 * sigma, sigma,
                                amplitude=complex(drv.Omega1))
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
