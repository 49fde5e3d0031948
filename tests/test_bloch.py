"""Density-matrix dynamics: equations of motion, integration, steady state."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from exciton_eit import (DensityMatrixState, EvaluationError, FieldDrive,
                         LadderSystem, SingularSteadyStateError, bloch_rhs, chi,
                         integrate_bloch, integrate_linearized,
                         steady_state_linearized)
from exciton_eit.bloch import _linear_matrix, _rhs_vector


def default_system(**kw):
    args = dict(omega_ab=3.266576e15, omega_ac=3.1402e13,
                gamma_ab=4.5573e10, gamma_bc=7.596e9,
                N=6.2422e25, dipole_ab_sq=0.334e-60)
    args.update(kw)
    return LadderSystem.from_frequencies(**args)


def undamped_system():
    return LadderSystem(omega_ab=3e15, omega_ac=1.5e15, dipole_ab_sq=1e-60,
                        Gamma_ab=0.0, Gamma_ca=0.0, gamma_ab=0.0,
                        gamma_bc=0.0, gamma_ac=0.0, N=1.0)


def drive_for(system, Omega1=1e6, Omega2=2.5e10, delta1=0.0, delta2=0.0):
    return FieldDrive.from_detunings(system, Omega1=Omega1, Omega2=Omega2,
                                     delta1=delta1, delta2=delta2)


def random_state(rng):
    pops = rng.dirichlet(np.ones(3))
    return DensityMatrixState(
        sigma_aa=pops[0], sigma_bb=pops[1], sigma_cc=pops[2],
        sigma_ab=complex(rng.normal(0, 0.1), rng.normal(0, 0.1)),
        sigma_bc=complex(rng.normal(0, 0.1), rng.normal(0, 0.1)),
        sigma_ac=complex(rng.normal(0, 0.1), rng.normal(0, 0.1)))


class TestRhs:
    def test_ground_state_is_stationary_without_fields(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=0.0, Omega2=0.0)
        d = bloch_rhs(DensityMatrixState.ground(), drv, sys_)
        assert np.all(d.to_vector() == 0.0)

    @pytest.mark.parametrize("mode", ["literal", "standard"])
    def test_occupation_sum_is_conserved(self, mode):
        rng = np.random.default_rng(11)
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=3e9, Omega2=2.5e10)
        for _ in range(200):
            d = bloch_rhs(random_state(rng), drv, sys_, decay_mode=mode)
            total = d.sigma_aa + d.sigma_bb + d.sigma_cc
            scale = max(abs(d.sigma_aa), abs(d.sigma_bb), abs(d.sigma_cc), 1.0)
            assert abs(total) <= 1e-12 * scale

    def test_literal_mode_population_damping_pattern(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=0.0, Omega2=0.0)
        state = DensityMatrixState(sigma_aa=1.0, sigma_bb=0.0, sigma_cc=0.0)
        lit = bloch_rhs(state, drv, sys_, decay_mode="literal")
        std = bloch_rhs(state, drv, sys_, decay_mode="standard")
        assert lit.sigma_aa == pytest.approx(-(sys_.Gamma_ab - sys_.Gamma_ca))
        assert lit.sigma_cc == pytest.approx(-sys_.Gamma_ca)
        assert std.sigma_aa == pytest.approx(-(sys_.Gamma_ab + sys_.Gamma_ca))
        assert std.sigma_cc == pytest.approx(sys_.Gamma_ca)

    def test_invalid_mode_rejected(self):
        sys_ = default_system()
        with pytest.raises(ValueError):
            bloch_rhs(DensityMatrixState.ground(), drive_for(sys_), sys_,
                      decay_mode="bogus")


class TestIntegration:
    def test_constant_trajectory_without_fields(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=0.0, Omega2=0.0)
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, 1e-9,
                               t_eval=np.linspace(0, 1e-9, 20))
        np.testing.assert_allclose(traj.sigma_bb, 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.trace, 1.0, atol=1e-12)

    def test_two_level_rabi_oscillation(self):
        # with no damping and no control the population inversion and
        # Im sigma_ab oscillate at twice the probe Rabi rate
        sys_ = undamped_system()
        om1 = 1e9
        drv = drive_for(sys_, Omega1=om1, Omega2=0.0)
        T = 4e-9
        t = np.linspace(0, T, 241)
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T, t_eval=t)
        np.testing.assert_allclose(traj.sigma_bb, np.cos(om1 * t) ** 2, atol=1e-7)
        inversion = traj.sigma_bb - traj.y[0]
        np.testing.assert_allclose(inversion, np.cos(2 * om1 * t), atol=2e-7)
        np.testing.assert_allclose(traj.sigma_ab.imag,
                                   0.5 * np.sin(2 * om1 * t), atol=1e-7)

    def test_trace_conserved_with_fields_on(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=1e5, Omega2=2.5e10)
        T = 100.0 / sys_.gamma_ab
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T,
                               t_eval=np.linspace(0, T, 64))
        assert np.max(np.abs(traj.trace - 1.0)) < 1e-9

    def test_occupations_stay_physical_in_standard_mode(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=5e9, Omega2=2.5e10)
        T = 50.0 / sys_.gamma_ab
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T,
                               decay_mode="standard",
                               t_eval=np.linspace(0, T, 64))
        for pop in (traj.y[0], traj.y[1], traj.y[2]):
            assert np.all(pop > -1e-9)
            assert np.all(pop < 1.0 + 1e-9)

    def test_linearized_matches_expm_oracle(self):
        # oracle: exact propagation of the linear pair via the matrix
        # exponential, x(T) = x_ss + exp(-i M T)(x0 - x_ss)
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=1e4, Omega2=2.5e10)
        T = 3.0 / sys_.gamma_bc
        m = _linear_matrix(drv, sys_)
        ss = np.linalg.solve(m, np.array([complex(drv.Omega1), 0.0]))
        exact = (ss + expm(-1j * m * T) @ (-ss))[0]
        sol = integrate_linearized(drv, sys_, T)
        assert abs(sol.final_sigma_ab - exact) / abs(exact) < 1e-12

    def test_full_integrator_matches_linearized_for_weak_probe(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=1e-3 * sys_.gamma_ab, Omega2=2.5e10)
        T = 20.0 / sys_.gamma_bc
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T)
        lin = integrate_linearized(drv, sys_, T)
        full = traj.sigma_ab[-1]
        assert abs(full - lin.final_sigma_ab) / abs(lin.final_sigma_ab) < 1e-4

    def test_full_integrator_reaches_closed_form_steady_state(self):
        # with a very weak probe the full dynamics settle onto the
        # closed-form first-order coherence after T = 20/gamma_bc
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=1e4, Omega2=2.5e10)
        T = 20.0 / sys_.gamma_bc
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T)
        ss, _ = steady_state_linearized(drv, sys_)
        assert abs(traj.sigma_ab[-1] - ss) / abs(ss) < 1e-6

    def test_ac_coherence_flag_changes_only_that_equation(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=3e9, Omega2=2.5e10)
        state = DensityMatrixState(sigma_aa=0.2, sigma_bb=0.5, sigma_cc=0.3,
                                   sigma_ab=0.05 + 0.02j, sigma_bc=0.01 - 0.03j,
                                   sigma_ac=0.04 + 0.06j)
        base = bloch_rhs(state, drv, sys_)
        alt = bloch_rhs(state, drv, sys_, literal_ac_coherence=True)
        assert alt.sigma_ac != base.sigma_ac
        assert alt.sigma_ab == base.sigma_ab
        assert alt.sigma_bc == base.sigma_bc
        assert alt.sigma_aa == base.sigma_aa

    @pytest.mark.parametrize("mode", ["literal", "standard"])
    def test_extreme_rate_time_product_stays_exact(self, mode):
        # rate*T = 1e20, far past any explicit integrator's stability budget
        sys_ = default_system(gamma_ab=1e20)
        drv = drive_for(sys_)
        traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, 1.0,
                               t_eval=np.linspace(0.0, 1.0, 11), decay_mode=mode)
        assert np.all(np.isfinite(traj.y))
        assert np.max(np.abs(traj.trace - 1.0)) < 1e-9

    def test_growing_literal_mode_raises_instead_of_nan(self):
        # a strong probe gives the literal population pattern a real
        # eigenvalue near +8.7e9 /s, so exp(rate T) overflows at T = 1.6 ms;
        # the standard pattern has no growing mode
        sys_ = default_system(gamma_ab=7.6e10, gamma_bc=0.92 * 7.6e10)
        drv = drive_for(sys_, Omega1=8e9, Omega2=1.2e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=r"\+8\.7\d*e\+09 /s"):
                integrate_bloch(DensityMatrixState.ground(), drv, sys_, 1.6e-3,
                                decay_mode="literal")
            traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, 1.6e-3,
                                   decay_mode="standard")
        assert np.all(np.isfinite(traj.y))
        assert abs(traj.trace[-1] - 1.0) < 1e-9

    def test_bad_horizon_rejected(self):
        sys_ = default_system()
        with pytest.raises(ValueError):
            integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 0.0)

    @pytest.mark.parametrize("t_eval", [[0.0, 2e-9, 1e-9], [-1e-9, 0.0], [0.0, 2e-9]])
    def test_bad_sample_grid_rejected(self, t_eval):
        sys_ = default_system()
        with pytest.raises(ValueError):
            integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_,
                            1e-9, t_eval=t_eval)

    def test_default_samples_are_the_endpoints(self):
        sys_ = default_system()
        traj = integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 1e-9)
        np.testing.assert_array_equal(traj.t, [0.0, 1e-9])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), gamma_bc=st.floats(1e8, 1e10),
       omega1=st.floats(1e4, 3e10), omega2=st.floats(0.0, 1e11),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       horizon=st.floats(1.0, 100.0), mode=st.sampled_from(["literal", "standard"]),
       ac_flag=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bloch_matches_runge_kutta(gamma_ab, gamma_bc, omega1, omega2, delta1,
                                   delta2, horizon, mode, ac_flag, seed):
    sys_ = default_system(gamma_ab=gamma_ab, gamma_bc=gamma_bc)
    drv = drive_for(sys_, Omega1=omega1, Omega2=omega2, delta1=delta1, delta2=delta2)
    # the horizon counts periods of the fastest rate, which bounds the
    # Runge-Kutta reference's step count
    T = horizon / max(gamma_ab, sys_.Gamma_ab, sys_.gamma_ac, omega1, omega2,
                      abs(delta1), abs(delta2))
    t = np.linspace(0.0, T, 11)
    initial = random_state(np.random.default_rng(seed))
    traj = integrate_bloch(initial, drv, sys_, T, t_eval=t, decay_mode=mode,
                           literal_ac_coherence=ac_flag)
    ref = solve_ivp(lambda _, y: _rhs_vector(y, drv, sys_, mode, ac_flag), (0.0, T),
                    initial.to_vector(), method="DOP853", rtol=1e-12, atol=1e-14,
                    t_eval=t)
    # the literal a-c coherence form has a growing mode, so compare on the
    # scale of the solution
    assert np.max(np.abs(traj.y - ref.y)) < 1e-8 * max(1.0, np.max(np.abs(ref.y)))


class TestLinearizedSteadyState:
    def test_control_off_single_pole(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega2=0.0, delta1=3e10)
        sigma_ab, sigma_bc = steady_state_linearized(drv, sys_)
        expected = drv.Omega1 / (drv.delta1 - 1j * sys_.gamma_ab)
        assert sigma_ab == pytest.approx(expected, rel=1e-14)
        assert sigma_bc == 0.0

    def test_reproduces_susceptibility(self):
        # at zero spectral offset chi equals (N|d|^2/hbar eps0) sigma_ab/Omega1
        rng = np.random.default_rng(99)
        for _ in range(200):
            sys_ = default_system(
                gamma_ab=rng.uniform(1e9, 1e11),
                gamma_bc=rng.uniform(1e8, 1e10),
                dipole_ab_sq=rng.uniform(0.05, 2.0) * 1e-60)
            drv = drive_for(sys_, Omega1=rng.uniform(1e4, 1e7),
                            Omega2=rng.uniform(0, 1e11),
                            delta1=rng.uniform(-1e11, 1e11),
                            delta2=rng.uniform(-1e11, 1e11))
            sigma_ab, _ = steady_state_linearized(drv, sys_)
            val = sys_.chi_prefactor * sigma_ab / drv.Omega1
            oracle = chi(0.0, sys_, drv)
            assert abs(val - oracle) <= 1e-12 * abs(oracle)

    def test_linear_in_probe(self):
        sys_ = default_system()
        a1, _ = steady_state_linearized(drive_for(sys_, Omega1=1e5), sys_)
        a2, _ = steady_state_linearized(drive_for(sys_, Omega1=3e5), sys_)
        assert a2 == pytest.approx(3.0 * a1, rel=1e-14)

    def test_singular_combination_raises(self):
        sys_ = LadderSystem(omega_ab=3e15, omega_ac=1.5e15, dipole_ab_sq=1e-60,
                            Gamma_ab=0.0, Gamma_ca=0.0, gamma_ab=0.0,
                            gamma_bc=0.0, gamma_ac=0.0, N=1.0)
        om2 = 1e10
        drv = drive_for(sys_, Omega2=om2, delta1=om2, delta2=0.0)
        with pytest.raises(SingularSteadyStateError):
            steady_state_linearized(drv, sys_)

    def test_time_domain_reaches_steady_state(self):
        sys_ = default_system()
        drv = drive_for(sys_, Omega1=1e4, Omega2=2.5e10)
        T = 20.0 / sys_.gamma_bc
        sol = integrate_linearized(drv, sys_, T)
        ss, _ = steady_state_linearized(drv, sys_)
        assert abs(sol.final_sigma_ab - ss) / abs(ss) < 1e-6
