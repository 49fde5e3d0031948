"""Density-matrix dynamics: equations of motion, integration, steady state."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from exciton_eit import (DensityMatrixState, EvaluationError, FieldDrive,
                         LadderSystem, SingularSteadyStateError, chi,
                         integrate_bloch, integrate_linearized,
                         steady_state_linearized)
from exciton_eit import bloch
from exciton_eit.bloch import _expm, _linear_matrix, _rhs_vector, _samples
from oracles import bloch_rhs, bloch_samples_stepwise


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
        for T in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, T)
            with pytest.raises(ValueError, match="positive and finite"):
                integrate_linearized(drive_for(sys_), sys_, T)

    def test_overflowing_horizon_raises(self):
        # on the default medium generator * 1e300 s has an infinite 1-norm
        sys_ = default_system()
        with pytest.raises(EvaluationError, match=r"T = 1e\+300 s"):
            integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 1e300)
        with pytest.raises(EvaluationError, match=r"T = 1e\+300 s"):
            integrate_linearized(drive_for(sys_), sys_, 1e300)
        # undamped, the 3x3 exponential's squarings lose the end point to NaN
        sys_ = undamped_system()
        with pytest.raises(EvaluationError, match=r"T = 1e\+100 s is not finite"):
            integrate_linearized(drive_for(sys_), sys_, 1e100)

    def test_undamped_phase_lost_to_rounding_raises(self):
        # undamped, sigma_ab(T) = i (Omega1/Omega2) sin(Omega2 T): its phase
        # is lost once T Omega2 eps > 1, i.e. past T = 1.8e5 s here
        sys_ = undamped_system()
        drv = drive_for(sys_)
        for T in (1e-9, 1e3, 1e5):
            exact = 1j * 1e6 / 2.5e10 * math.sin(2.5e10 * T)
            end = integrate_linearized(drv, sys_, T).final_sigma_ab
            assert abs(end - exact) < 0.6 * 1e6 / 2.5e10
        for T, shown in ((1e6, r"1e\+06"), (1e10, r"1e\+10"), (1e200, r"1e\+200")):
            with pytest.raises(EvaluationError, match=rf"T = {shown} s is roundoff"):
                integrate_linearized(drv, sys_, T)

    def test_damped_long_horizon_is_the_steady_state(self):
        # every mode decays, so no horizon is roundoff however long
        sys_ = default_system()
        drv = drive_for(sys_)
        ss, _ = steady_state_linearized(drv, sys_)
        for T in (1e-3, 1e290):
            end = integrate_linearized(drv, sys_, T).final_sigma_ab
            assert abs(end - ss) <= 1e-12 * abs(ss)

    def test_step_norm_above_two_to_the_1023_propagates(self):
        # ||generator * 1e297 s||_1 lies in [2^1023, max float]: the scaling
        # takes 1024 halvings and the state is the steady state
        sys_ = default_system()
        traj = integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 1e297)
        ref = integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 1e-6)
        np.testing.assert_allclose(traj.y[:, -1], ref.y[:, -1], rtol=0.0, atol=1e-12)

    # only np.linspace(0, T, n) with n >= 2 is accepted, so a sorted
    # non-uniform grid inside [0, T] and a one-point grid are rejected too
    @pytest.mark.parametrize("t_eval", [[0.0, 2e-9, 1e-9], [-1e-9, 0.0], [0.0, 2e-9],
                                        [0.0, 0.25e-9, 1e-9], [0.0]])
    def test_bad_sample_grid_rejected(self, t_eval):
        sys_ = default_system()
        with pytest.raises(ValueError):
            integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_,
                            1e-9, t_eval=t_eval)

    def test_default_samples_are_the_endpoints(self):
        sys_ = default_system()
        traj = integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, 1e-9)
        np.testing.assert_array_equal(traj.t, [0.0, 1e-9])

    def test_one_exponential_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _expm(*args)

        monkeypatch.setattr(bloch, "_expm", counted)
        sys_ = default_system()
        T = 100.0 / sys_.gamma_ab
        integrate_bloch(DensityMatrixState.ground(), drive_for(sys_), sys_, T,
                        t_eval=np.linspace(0.0, T, 101))
        assert len(calls) == 1
        assert integrate_linearized(drive_for(sys_), sys_, T).nfev == 1
        assert len(calls) == 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), gamma_bc=st.floats(1e8, 1e10),
       omega1=st.floats(1e4, 3e10), omega2=st.floats(0.0, 1e11),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       horizon=st.floats(1.0, 100.0), mode=st.sampled_from(["literal", "standard"]),
       seed=st.integers(0, 2**32 - 1))
def test_bloch_matches_runge_kutta(gamma_ab, gamma_bc, omega1, omega2, delta1,
                                   delta2, horizon, mode, seed):
    sys_ = default_system(gamma_ab=gamma_ab, gamma_bc=gamma_bc)
    drv = drive_for(sys_, Omega1=omega1, Omega2=omega2, delta1=delta1, delta2=delta2)
    # the horizon counts periods of the fastest rate, which bounds the
    # Runge-Kutta reference's step count
    T = horizon / max(gamma_ab, sys_.Gamma_ab, sys_.gamma_ac, omega1, omega2,
                      abs(delta1), abs(delta2))
    t = np.linspace(0.0, T, 11)
    initial = random_state(np.random.default_rng(seed))
    traj = integrate_bloch(initial, drv, sys_, T, t_eval=t, decay_mode=mode)
    ref = solve_ivp(lambda _, y: _rhs_vector(y, drv, sys_, mode), (0.0, T),
                    initial.to_vector(), method="DOP853", rtol=1e-12, atol=1e-14,
                    t_eval=t)
    # the literal population pattern can have a growing mode, so compare on
    # the scale of the solution
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gamma_ab=st.floats(1e9, 1e11), gamma_bc=st.floats(0.0, 1e10),
       omega1=st.floats(1e4, 3e10), omega2=st.floats(0.0, 1e11),
       delta1=st.floats(-1e11, 1e11), delta2=st.floats(-1e11, 1e11),
       horizon=st.floats(0.1, 100.0), n=st.integers(2, 300),
       mode=st.sampled_from(["literal", "standard"]), seed=st.integers(0, 2**32 - 1))
def test_repeated_squaring_matches_stepwise_samples(gamma_ab, gamma_bc, omega1, omega2,
                                                    delta1, delta2, horizon, n, mode, seed):
    # the doubling blocks against n - 1 steps in sequence of the same
    # exponential; the trace coordinate (the step's identity row) is exact
    sys_ = default_system(gamma_ab=gamma_ab, gamma_bc=gamma_bc)
    drv = drive_for(sys_, Omega1=omega1, Omega2=omega2, delta1=delta1, delta2=delta2)
    T = horizon / max(gamma_ab, sys_.Gamma_ab, sys_.gamma_ac, omega1, omega2,
                      abs(delta1), abs(delta2))
    initial = random_state(np.random.default_rng(seed))
    step, z, y = bloch_samples_stepwise(initial, drv, sys_, T, n, mode)
    sampled = _samples(step, z[:, 0], n)
    assert np.all(sampled[1] == initial.trace)
    assert np.max(np.abs(sampled - z)) <= 1e-13 * np.max(np.abs(z))
    traj = integrate_bloch(initial, drv, sys_, T, t_eval=np.linspace(0.0, T, n),
                           decay_mode=mode)
    assert np.max(np.abs(traj.y - y)) <= 1e-13 * np.max(np.abs(y))
