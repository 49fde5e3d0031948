"""Level-model algebra: angular averages, couplings, secular roots."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lpmv

from exciton_eit import (ScenarioConfig, anisotropy_eta,
                         dipole_moment_squared, energy_nlm, level_table,
                         mixed_level, solve_secular, stark_coupling)
from oracles import anisotropy_eta_mp, stark_coupling_integral


def level_params(**kw):
    """The configured Cu2O level parameters, with ``kw`` replaced."""
    return replace(ScenarioConfig().build_level_params(), **kw)


def eta00_closed_form(gamma):
    """Independent closed form of the l=0 angular average.

    With u = cos(theta) the integral reduces to
    int_0^1 du / sqrt(1 - (1 - gamma^2) u^2), which is
    asin(sqrt(1-g^2))/sqrt(1-g^2) for gamma < 1.
    """
    k = 1.0 - gamma**2
    if k == 0:
        return 1.0
    if k > 0:
        return math.asin(math.sqrt(k)) / math.sqrt(k)
    return math.asinh(math.sqrt(-k)) / math.sqrt(-k)


def eta10_closed_form(gamma):
    """Independent closed form for (l, m) = (1, 0): 3 int u^2/sqrt(1-ku^2)."""
    k = 1.0 - gamma**2
    if k == 0:
        return 1.0
    if k > 0:
        rk = math.sqrt(k)
        return 3.0 * (math.asin(rk) / (2.0 * k * rk)
                      - math.sqrt(1.0 - k) / (2.0 * k))
    rk = math.sqrt(-k)
    return 3.0 * (-math.asinh(rk) / (2.0 * (-k) * rk)
                  + math.sqrt(1.0 - k) / (2.0 * (-k)))


def eta_doubling_quadrature(l, m, gamma, tol=1e-12, max_order=3072):
    """Reference: Gauss-Legendre in u = cos(theta) on [0, 1], doubling the
    order until two refinements agree to ``tol`` (fails near gamma -> 0)."""
    am = abs(m)
    norm = (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
    k = 1.0 - gamma**2

    def quad(order):
        x, w = np.polynomial.legendre.leggauss(order)
        u = 0.5 * (x + 1.0)
        p = lpmv(am, l, u)
        return 2.0 * math.pi * float(np.dot(w, norm * p * p / np.sqrt(1.0 - k * u * u)))

    order = 24
    prev = quad(order)
    while order <= max_order:
        order *= 2
        cur = quad(order)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise ArithmeticError(f"reference quadrature did not converge (gamma={gamma})")


class TestAnisotropyEta:
    def test_isotropic_is_one_for_low_l(self):
        for l in range(5):
            for m in range(0, l + 1):
                assert anisotropy_eta(l, m, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_l0_closed_form(self):
        # frozen from the closed form: asin(sqrt(0.75))/sqrt(0.75) = 2 pi / (3 sqrt(3))
        assert anisotropy_eta(0, 0, 0.5) == pytest.approx(1.2091995761561452, abs=1e-10)
        for g in (0.3, 0.8, 1.7, 2.5):
            assert anisotropy_eta(0, 0, g) == pytest.approx(eta00_closed_form(g), abs=1e-10)

    def test_l1_closed_form(self):
        for g in (0.5, 0.7, 1.4):
            assert anisotropy_eta(1, 0, g) == pytest.approx(eta10_closed_form(g), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 20.0, 100.0])
    def test_extreme_anisotropy_matches_closed_forms(self, gamma):
        assert anisotropy_eta(0, 0, gamma) == pytest.approx(eta00_closed_form(gamma), rel=1e-12)
        assert anisotropy_eta(1, 0, gamma) == pytest.approx(eta10_closed_form(gamma), rel=1e-12)

    def test_monotone_decreasing_above_one(self):
        grid = np.linspace(1.0, 4.0, 13)
        vals = [anisotropy_eta(0, 0, g) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_m_matches_positive(self):
        assert anisotropy_eta(2, -1, 0.7) == pytest.approx(anisotropy_eta(2, 1, 0.7), abs=1e-12)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            anisotropy_eta(1, 2, 1.0)
        with pytest.raises(ValueError):
            anisotropy_eta(-1, 0, 1.0)
        with pytest.raises(ValueError):
            anisotropy_eta(0, 0, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(l=st.integers(0, 9), m_frac=st.floats(0.0, 1.0), gamma=st.floats(0.2, 5.0))
def test_eta_matches_doubling_quadrature(l, m_frac, gamma):
    m = round(m_frac * l)
    assert abs(anisotropy_eta(l, m, gamma) - eta_doubling_quadrature(l, m, gamma)) < 1e-12


@pytest.mark.parametrize("gamma", [1e-4, 0.01, 3.0, 100.0, 1e4, 1e6])
def test_eta_matches_the_40_digit_reference(gamma):
    # l = 32 is the largest l the config admits at gamma != 1; with one
    # 64-node panel for every l, gamma = 100, 1e4 and 1e6 missed these by up
    # to 1e-3 (the interval in phi grows like ln(2 gamma))
    for l, m in ((20, 5), (32, 12), (32, 32)):
        assert abs(anisotropy_eta(l, m, gamma) - anisotropy_eta_mp(l, m, gamma)) < 1e-10, (l, m)


class TestEnergyNlm:
    def test_hydrogenic_limits(self):
        R = 0.086131
        assert energy_nlm(1, 0, 0, 1.0, R) == pytest.approx(-R, rel=1e-10)
        assert energy_nlm(10, 0, 0, 1.0, R) == pytest.approx(-R / 100.0, rel=1e-10)

    def test_anisotropic_2p(self):
        R = 0.086131
        eta = eta10_closed_form(0.7)
        assert energy_nlm(2, 1, 0, 0.7, R) == pytest.approx(-(eta**2) / 4.0 * R, rel=1e-9)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            energy_nlm(0, 0, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            energy_nlm(2, 2, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            energy_nlm(2, 1, 2, 1.0, 0.1)


class TestStarkCoupling:
    def test_n2_exact(self):
        # -sqrt(12/(4*3)) * C(2,0) * C(3,1) = -3, checked by hand
        assert stark_coupling(2) == pytest.approx(-3.0, rel=1e-12)

    def test_n3_exact(self):
        assert stark_coupling(3) == pytest.approx(-18.0 / math.sqrt(6.0), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_matches_integral(self, n):
        closed = stark_coupling(n)
        integral = stark_coupling_integral(n)
        assert abs(closed - integral) / abs(closed) < 1e-8

    def test_requires_n_ge_2(self):
        with pytest.raises(ValueError):
            stark_coupling(1)
        with pytest.raises(ValueError):
            stark_coupling_integral(1)


class TestSecular:
    def test_decoupled_limit(self):
        r = solve_secular(1.0 + 0j, 2.0 - 0.5j, 0.0)
        assert r.E_plus == pytest.approx(2.0 - 0.5j, abs=1e-15)
        assert r.E_minus == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_symmetric_splitting(self):
        r = solve_secular(1.5 + 0j, 1.5 + 0j, 0.3)
        assert r.E_plus == pytest.approx(1.8, rel=1e-14)
        assert r.E_minus == pytest.approx(1.2, rel=1e-14)

    def test_random_draws_residual_and_vieta(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            t1 = complex(rng.normal(), -abs(rng.normal()))
            t2 = complex(rng.normal(), -abs(rng.normal()))
            v = float(rng.normal())
            r = solve_secular(t1, t2, v)
            scale = max(abs(t1), abs(t2), abs(v), 1e-30)
            assert r.residual(t1, t2, v) <= 1e-12 * scale**2
            assert abs((r.E_plus + r.E_minus) - (t1 + t2)) <= 1e-12 * scale
            assert abs(r.E_plus * r.E_minus - (t1 * t2 - v * v)) <= 1e-12 * scale**2
            assert r.E_plus.real >= r.E_minus.real

    def test_perturbative_limit(self):
        t1, t2 = 1.0 + 0j, 2.0 + 0j
        v = 1e-3
        r = solve_secular(t1, t2, v)
        series = t1 + v**2 / (t1 - t2)
        # next order is O(v^4 / dE^3) = 1e-12
        assert abs(r.E_minus - series) < 5e-12


class TestDipoleMoment:
    def test_r0_scaling(self):
        p = level_params()
        p2 = level_params(r0=2 * p.r0)
        eta = 1.0
        assert dipole_moment_squared(p2, eta) == pytest.approx(
            dipole_moment_squared(p, eta) / 4.0, rel=1e-12)

    def test_isotropic_reduction(self):
        from exciton_eit.constants import CONST
        p = level_params()
        expected = (4 * CONST.eps0 * p.eps_b * p.bohr_radius**3
                    * p.delta_lt * CONST.e_charge
                    / (math.pi * (p.r0 / p.bohr_radius) ** 2))
        assert dipole_moment_squared(p, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_default_set_lands_on_working_dipole(self):
        # order-of-magnitude reproduction of the working |d_ab|^2
        p = level_params()
        eta11 = anisotropy_eta(1, 1, p.gamma_aniso)
        val = dipole_moment_squared(p, eta11)
        assert 0.334e-60 / 3 < val < 0.334e-60 * 3


class TestLevelTable:
    @pytest.mark.parametrize("n_max, l_max", [(1, 0), (10, 1), (3, 5), (4, 3)])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_rows_equal_the_pointwise_eta(self, n_max, l_max, gamma):
        p = level_params(gamma_aniso=gamma)
        rows = level_table(p, n_max=n_max, l_max=l_max)
        bare = [r for r in rows if r.branch == "bare"]
        assert [(r.n, r.l, r.m) for r in bare] == [
            (n, l, m) for n in range(1, n_max + 1)
            for l in range(min(l_max, n - 1) + 1) for m in range(l + 1)]
        for r in rows:
            assert r.eta == anisotropy_eta(r.l, r.m, gamma)
        for r in bare:
            assert r.energy == complex(-(r.eta**2) / r.n**2 * p.rydberg)
        assert [r.energy for r in rows[len(bare):]] == [
            mixed_level(p, 2, "P"), mixed_level(p, 10, "S")]

    def test_each_distinct_eta_is_integrated_once(self):
        # three distinct (l, |m|) for l_max = 1; the mixed rows' thresholds
        # reuse the (0, 0) and (1, 0) values
        anisotropy_eta.cache_clear()
        level_table(level_params(), n_max=10, l_max=1)
        assert anisotropy_eta.cache_info().misses == 3

    def test_hydrogenic_column(self):
        p = level_params(gamma_aniso=1.0)
        rows = level_table(p, n_max=6, l_max=1)
        for r in rows:
            if r.branch == "bare":
                assert r.energy.real == pytest.approx(-p.rydberg / r.n**2, rel=1e-9)

    def test_mixed_rows_present(self):
        rows = level_table(level_params(), n_max=10, l_max=1)
        branches = {r.branch for r in rows}
        assert {"bare", "2P", "10S"} <= branches

    def test_zero_field_returns_thresholds(self):
        p = level_params(F=0.0)
        roots = sorted([mixed_level(p, 2, "P"), mixed_level(p, 2, "S")],
                       key=lambda z: z.real)
        thresholds = sorted([p.threshold(2, 0, 0), p.threshold(2, 1, 0)],
                            key=lambda z: z.real)
        for root, threshold in zip(roots, thresholds):
            assert root == pytest.approx(threshold, rel=1e-14)

    def test_branch_selection(self):
        p = level_params(gamma_aniso=0.8)
        up = mixed_level(p, 10, "P")
        lo = mixed_level(p, 10, "S")
        assert up.real > lo.real
        roots_resid = abs((p.threshold(10, 0, 0) - up) * (p.threshold(10, 1, 0) - up)
                          - p.coupling_energy(10) ** 2)
        assert roots_resid < 1e-12 * max(abs(p.threshold(10, 0, 0)), 1.0) ** 2
