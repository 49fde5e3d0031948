"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import hashlib

import numpy as np
import pytest
from scipy.optimize import brentq

from exciton_eit import (CONST, DensityMatrixState, FieldDrive, LadderSystem,
                         PropagationParams, anisotropy_eta, chi,
                         energy_to_angular_frequency, gaussian_envelope,
                         group_velocity, integrate_bloch, integrate_linearized,
                         propagate_pulse, solve_secular, stark_coupling,
                         steady_state_linearized, sweep_control, window_metrics)
from exciton_eit.cli import main
from oracles import analytic_envelope, stark_coupling_integral


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def default_system(**kw):
    args = dict(omega_ab=3.266576e15, omega_ac=3.1402e13,
                gamma_ab=4.5573e10, gamma_bc=7.596e9,
                N=6.2422e25, dipole_ab_sq=0.334e-60)
    args.update(kw)
    return LadderSystem.from_frequencies(**args)


def drive_for(system, Omega1=1e6, Omega2=2.5e10, delta1=0.0, delta2=0.0):
    return FieldDrive.from_detunings(system, Omega1=Omega1, Omega2=Omega2,
                                     delta1=delta1, delta2=delta2)


def test_c01_unit_consistency():
    pairs = [(2150.3, 3.266576e15), (20.6714, 3.1402e13),
             (30e-3, 4.5573e10), (5e-3, 7.596e9)]
    worst = max(abs(energy_to_angular_frequency(mev) - rads) / rads
                for mev, rads in pairs)
    report(1, "unit consistency", worst < 5e-4,
           f"worst meV<->rad/s pair deviation {worst:.2e} (limit 5e-4)")


def test_c02_steady_state_oracle():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(1000):
        sys_ = default_system(
            gamma_ab=rng.uniform(1e9, 1e11),
            gamma_bc=rng.uniform(1e8, 1e10),
            N=rng.uniform(1e24, 1e26),
            dipole_ab_sq=rng.uniform(0.05, 2.0) * 1e-60)
        drv = drive_for(sys_,
                        Omega1=rng.uniform(1e4, 1e7),
                        Omega2=rng.uniform(0.0, 2e11),
                        delta1=rng.uniform(-1e11, 1e11),
                        delta2=rng.uniform(-1e11, 1e11))
        w = rng.uniform(-3e11, 3e11)
        shifted = FieldDrive.from_detunings(
            sys_, Omega1=drv.Omega1, Omega2=drv.Omega2,
            delta1=drv.delta1 - w, delta2=drv.delta2)
        sigma_ab, _ = steady_state_linearized(shifted, sys_)
        oracle = sys_.chi_prefactor * sigma_ab / shifted.Omega1
        worst = max(worst, abs(chi(w, sys_, drv) - oracle) / abs(oracle))
    report(2, "steady-state oracle", worst < 1e-12,
           f"worst relative deviation over 1000 draws {worst:.2e} (limit 1e-12)")


def test_c03_time_domain_to_steady_state():
    sys_ = default_system()
    drv = drive_for(sys_, Omega1=1e4, Omega2=2.5e10)
    T = 20.0 / sys_.gamma_bc
    sol = integrate_linearized(drv, sys_, T)
    ss, _ = steady_state_linearized(drv, sys_)
    err = abs(sol.final_sigma_ab - ss) / abs(ss)
    report(3, "time domain to steady state", err < 1e-6,
           f"relative deviation after T = 20/gamma_bc: {err:.2e} (limit 1e-6)")


def test_c04_control_sweep_optimum():
    sys_ = default_system()
    drv = drive_for(sys_)
    sweep = sweep_control(sys_, drv, np.linspace(1e9, 1e11, 199))
    argmax_ok = abs(sweep.argmax_omega2 - 2.5e10) <= 0.30 * 2.5e10
    ng_ok = 3e3 <= sweep.ng_max <= 3e5
    report(4, "control sweep optimum", argmax_ok and ng_ok,
           f"argmax {sweep.argmax_omega2 / 1e9:.2f} Grad/s (25 +- 30%), "
           f"max n_g {sweep.ng_max:.3g} (range 3e3..3e5)")


def test_c05_transparency_limits():
    sys_ = default_system()
    drv = drive_for(sys_, Omega2=0.0)
    peak = sys_.chi_prefactor / sys_.gamma_ab
    f = lambda w: float(np.imag(chi(w, sys_, drv))) - 0.5 * peak
    span = 10 * sys_.gamma_ab
    right = brentq(f, 0.0, span, xtol=1e-3)
    left = brentq(f, -span, 0.0, xtol=1e-3)
    fwhm = right - left
    fwhm_ok = abs(fwhm - 2 * sys_.gamma_ab) / (2 * sys_.gamma_ab) < 1e-3
    sys0 = default_system(gamma_bc=0.0)
    drv0 = drive_for(sys0, Omega2=2.5e10)
    zero_ok = chi(drv0.delta1 - drv0.delta2, sys0, drv0) == 0.0
    report(5, "transparency limits", fwhm_ok and zero_ok,
           f"bare FWHM {fwhm / 1e9:.4f} vs 2 gamma_ab "
           f"{2 * sys_.gamma_ab / 1e9:.4f} Grad/s (0.1%); "
           f"chi at two-photon resonance with gamma_bc=0 exactly zero: {zero_ok}")


def test_c06_dressed_doublet():
    from exciton_eit import locate_absorption_peaks
    sys_ = default_system()
    ok = True
    details = []
    for factor in (5.0, 8.0):
        om2 = factor * sys_.gamma_ab
        drv = drive_for(sys_, Omega2=om2)
        found = locate_absorption_peaks(sys_, drv)
        bound = sys_.gamma_ab**2 / om2
        dev = max(abs(found[0] + om2), abs(found[-1] - om2))
        ok = ok and len(found) == 2 and dev <= bound
        details.append(f"Omega2={factor:g}*gamma_ab dev {dev / 1e9:.3f} "
                       f"(bound {bound / 1e9:.3f}) Grad/s")
    report(6, "dressed-state doublet", ok, "; ".join(details))


def test_c07_pulse_propagation():
    sys_ = default_system()
    drv = drive_for(sys_, Omega2=1e11)
    L = 30e-6
    sigma = 2.9e-10
    params = PropagationParams.from_system(sys_, drv, L, 120, 1600, 4.8e-9)
    env = gaussian_envelope(params.t_grid, 6 * sigma, sigma,
                            amplitude=complex(drv.Omega1))
    record = propagate_pulse(env, params, drv, sys_)
    delay_ref = L / group_velocity(0.0, sys_, drv)
    att_ref = float(np.exp(-drv.omega1 * chi(0.0, sys_, drv).imag * L / (2 * CONST.c)))
    reference = analytic_envelope(env, params.t_grid, L, drv, sys_)
    l2 = float(np.linalg.norm(record.envelope_out - reference)
               / np.linalg.norm(reference))
    delay_err = abs(record.measured_delay - delay_ref) / delay_ref
    att_err = abs(record.measured_attenuation - att_ref) / att_ref
    ok = delay_err < 0.05 and att_err < 0.05 and l2 < 0.05
    report(7, "pulse propagation", ok,
           f"delay err {delay_err:.3%}, attenuation err {att_err:.3%}, "
           f"L2 deviation {l2:.3%} (limits 5%)")


def test_c08_trace_conservation():
    sys_ = default_system()
    drv = drive_for(sys_, Omega1=1e5, Omega2=2.5e10)
    T = 100.0 / sys_.gamma_ab
    traj = integrate_bloch(DensityMatrixState.ground(), drv, sys_, T,
                           decay_mode="literal",
                           t_eval=np.linspace(0.0, T, 101))
    drift = float(np.max(np.abs(traj.trace - 1.0)))
    report(8, "trace conservation", drift < 1e-9,
           f"max |trace - 1| over T = 100/gamma_ab: {drift:.2e} (limit 1e-9)")


def test_c09_level_algebra():
    eta_dev = max(abs(anisotropy_eta(l, m, 1.0) - 1.0)
                  for l in range(5) for m in range(0, l + 1))
    v_dev = max(abs(stark_coupling(n) - stark_coupling_integral(n))
                / abs(stark_coupling(n)) for n in range(2, 13))
    rng = np.random.default_rng(2718)
    sec_dev = 0.0
    for _ in range(200):
        t1 = complex(rng.normal(), -abs(rng.normal()))
        t2 = complex(rng.normal(), -abs(rng.normal()))
        v = float(rng.normal())
        r = solve_secular(t1, t2, v)
        scale = max(abs(t1), abs(t2), abs(v), 1e-30)
        sec_dev = max(
            sec_dev,
            r.residual(t1, t2, v) / scale**2,
            abs((r.E_plus + r.E_minus) - (t1 + t2)) / scale,
            abs(r.E_plus * r.E_minus - (t1 * t2 - v * v)) / scale**2,
        )
    ok = eta_dev < 1e-10 and v_dev < 1e-8 and sec_dev < 1e-12
    report(9, "level algebra", ok,
           f"eta(gamma=1) dev {eta_dev:.1e} (1e-10); coupling closed-vs-integral "
           f"{v_dev:.1e} (1e-8); secular residual/Vieta {sec_dev:.1e} (1e-12)")


def test_c10_window_width_scaling():
    # The quadratic growth of the window width holds while the window is
    # open but not yet split into the resolved doublet, i.e. for control
    # fields well above sqrt(gamma_ab gamma_bc) and up to about gamma_ab;
    # far above gamma_ab the width crosses over to the linear doublet
    # separation.  The fit is taken across the open-window regime.
    sys_ = default_system()
    grid = np.geomspace(2e10, 5e10, 8)
    widths = np.array([
        window_metrics(sys_, drive_for(sys_, Omega2=v)).width for v in grid])
    slope = float(np.polyfit(np.log(grid), np.log(widths), 1)[0])
    report(10, "window-width scaling", 1.7 <= slope <= 2.3,
           f"fitted exponent {slope:.3f} over Omega2 in [20, 50] Grad/s "
           f"(target 2.0 +- 0.3)")


def test_c11_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("Omega2 = 100 Grad/s\npulse_sigma = 0.29 ns\n"
                   "t_span = 4.8 ns\nz_steps = 40\nt_steps = 512\n"
                   "omega_points = 301\nomega2_points = 41\n")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        for cmd in ("spectrum", "sweep", "levels", "propagate"):
            assert main(["--config", str(cfg), "--out", str(out), cmd]) == 0
        blob = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
        digests.append(hashlib.sha256(blob).hexdigest())
    report(11, "deterministic outputs", digests[0] == digests[1],
           f"sha256 of all emitted files identical across reruns: {digests[0][:16]}...")
