"""Exciton level structure under mass anisotropy and a static electric field.

Covers the ingredients the ladder configuration is built from: the
anisotropy correction eta_lm from an angular average over the
mass-anisotropic kinetic denominator, hydrogen-like level energies
-eta^2/n^2 R*, the closed-form field-coupling matrix element between nS
and nP states (its Laguerre-integral form is the oracle in
tests/oracles.py), the 2x2 secular equation
for the field-mixed levels, and the squared dipole matrix element set by
the longitudinal-transverse splitting and the coherence radius.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .constants import CONST, _square


# the largest l * (panel length in phi) given to one 64-node panel: within
# 1e-10 of a 40-digit quadrature for l <= 32, and one panel (the rule's bits
# unchanged) still covers every gamma <= 10; at gamma = 30 one panel fails
# from l * top = 135 on
_PANEL_SPAN = 100.0


@functools.cache
def _quadrature():
    """numpy, its Legendre series module and one 64-node Gauss-Legendre
    rule, imported on the first anisotropic quadrature: after the
    substitution in anisotropy_eta the integrand is smooth on a finite
    interval for every anisotropy ratio, and equal masses need none."""
    import numpy as np
    from numpy.polynomial import legendre
    return np, legendre, *legendre.leggauss(64)


@functools.cache
def _ylm_series(l: int, am: int):
    """(norm, Legendre series of P_l^(am)) for ``_ylm_sq``, built once per (l, |m|)."""
    np, legendre, _, _ = _quadrature()
    norm = (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
    deriv = legendre.legder(np.eye(l + 1)[l], am)
    deriv.flags.writeable = False
    return norm, deriv


def _ylm_sq(l: int, m: int, u):
    """|Y_lm|^2 in u = cos(theta), a polynomial: |P_l^m|^2 = (1 - u^2)^|m| (P_l^(|m|))^2."""
    am = abs(m)
    norm, deriv = _ylm_series(l, am)
    return norm * (1.0 - u * u) ** am * _quadrature()[1].legval(u, deriv) ** 2


@functools.lru_cache(maxsize=1024)
def anisotropy_eta(l: int, m: int, gamma_aniso: float) -> float:
    """Angular average of |Y_lm|^2 over 1/sqrt(sin^2 + gamma^2 cos^2).

    The phi integral is done analytically (|Y_lm|^2 carries no phi
    dependence) and the theta integral is reduced by symmetry to
    4 pi int_0^1 |Y_lm(u)|^2 / sqrt(1 - k u^2) du, k = 1 - gamma^2.  The
    substitution u = sin(phi)/sqrt(k) (k > 0) or sinh(phi)/sqrt(-k)
    (k < 0) absorbs the square root into the measure, leaving a smooth
    integrand on a finite interval [0, top], split into equal panels of a
    64-node Gauss-Legendre rule, one per 100 of l * top.  For
    l <= 32 (the range ``ScenarioConfig.validate`` admits at gamma != 1)
    this is within 1e-10 of a 40-digit quadrature for every finite
    gamma > 0.  Past gamma ~ 1.34e154, where gamma^2 overflows, k is taken
    as -inf and sqrt(-k) as sqrt(gamma - 1) sqrt(gamma + 1), so eta stays
    finite (it falls like ln(2 gamma) / gamma).  Equal masses (gamma = 1)
    give exactly 1 for every (l, m).  Results are cached per (l, m, gamma), so the level
    table and the mixed-level thresholds integrate each distinct value once.
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid angular indices (l={l}, m={m})")
    if gamma_aniso <= 0:
        raise ValueError("anisotropy ratio must be positive")

    try:
        k = 1.0 - _square(gamma_aniso)
        root = math.sqrt(abs(k))
    except OverflowError:
        # gamma^2 leaves the float range, sqrt(-k) does not
        k, root = -math.inf, math.sqrt(gamma_aniso - 1.0) * math.sqrt(gamma_aniso + 1.0)
    if k == 0:
        return 1.0
    np, _, nodes, weights = _quadrature()
    top = math.asin(root) if k > 0 else math.asinh(root)
    panels = max(1, math.ceil(l * top / _PANEL_SPAN))
    width = top / panels
    # every panel's nodes in one evaluation, one row per panel; the rows
    # are summed panel by panel, in order
    phi = width * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))
    values = _ylm_sq(l, m, (np.sin(phi) if k > 0 else np.sinh(phi)) / root)
    total = 0.0
    for row in values:
        total += float(np.dot(weights, row))
    return 2.0 * math.pi * width / root * total


def energy_nlm(n: int, l: int, m: int, gamma_aniso: float, rydberg_ev: float) -> float:
    """Anisotropy-corrected binding energy -eta_lm^2 / n^2 * R* in eV."""
    if n < 1:
        raise ValueError("principal index n must be >= 1")
    if not (0 <= l <= n - 1):
        raise ValueError(f"orbital index l={l} out of range for n={n}")
    if abs(m) > l:
        raise ValueError(f"magnetic index m={m} out of range for l={l}")
    eta = anisotropy_eta(l, m, gamma_aniso)
    return -(eta * eta) / n**2 * rydberg_ev


def stark_coupling(n: int) -> float:
    """nS <-> nP field-coupling coefficient, closed form, in units e F a*.

    Equals -sqrt(12 / (n^2 (n^2 - 1))) C(n, n-2) C(n+1, n-1); defined for
    n >= 2 only.
    """
    if n < 2:
        raise ValueError("coupling coefficient requires n >= 2")
    return (-math.sqrt(12.0 / (n**2 * (n**2 - 1)))
            * math.comb(n, n - 2) * math.comb(n + 1, n - 1))


class SecularRoots(NamedTuple):
    """Both roots of the 2x2 mixing quadratic, ordered by real part."""

    E_plus: complex
    E_minus: complex

    def residual(self, E_T1: complex, E_T2: complex, V: float) -> float:
        """Largest back-substitution residual of the defining quadratic."""
        v2 = _square(V)
        return max(
            abs((E_T1 - self.E_plus) * (E_T2 - self.E_plus) - v2),
            abs((E_T1 - self.E_minus) * (E_T2 - self.E_minus) - v2),
        )


def solve_secular(E_T1: complex, E_T2: complex, V: float) -> SecularRoots:
    """Roots E of (E_T1 - E)(E_T2 - E) - V^2 = 0.

    State dampings enter through the imaginary parts of the complex
    thresholds.  Roots are computed with the cancellation-safe quadratic
    formula and ordered by real part (ties broken toward the larger
    imaginary part); callers pick the branch their mixed state follows.
    """
    s, v2 = E_T1 + E_T2, _square(V)
    disc = cmath.sqrt(complex((E_T1 - E_T2) ** 2 + 4.0 * v2))
    if (s.conjugate() * disc).real < 0:
        disc = -disc
    r1 = 0.5 * (s + disc)  # |r1| >= |r2| by construction
    prod = E_T1 * E_T2 - v2
    r2 = prod / r1 if r1 != 0 else 0.5 * (s - disc)
    lo, hi = sorted((complex(r1), complex(r2)), key=lambda z: (z.real, z.imag))
    return SecularRoots(E_plus=hi, E_minus=lo)


class _LevelFields(NamedTuple):
    """The fields of :class:`LevelModelParams`, which checks them."""

    E_gap: float          # eV
    rydberg: float        # eV
    bohr_radius: float    # m
    gamma_aniso: float
    eps_b: float
    delta_lt: float       # eV
    r0: float             # m
    F: float              # V/m
    damping_ev: dict


class LevelModelParams(_LevelFields):
    """Inputs for the level model.

    The material constants here (gap, effective Rydberg, Bohr radius,
    background dielectric constant, longitudinal-transverse splitting,
    coherence radius) are config inputs whose Cu2O defaults live in
    ``ScenarioConfig``; only the applied field and the anisotropy ratio
    change the mixing structure.  ``damping_ev`` holds per-state
    linewidths keyed by (n, l, m); missing states are treated as undamped.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.gamma_aniso <= 0:
            raise ValueError("gamma_aniso must be positive")
        if self.bohr_radius <= 0 or self.rydberg <= 0 or self.r0 <= 0:
            raise ValueError("bohr_radius, rydberg and r0 must be positive")
        return self

    def damping(self, n: int, l: int, m: int) -> float:
        return self.damping_ev.get((n, l, m), 0.0)

    def coupling_energy(self, n: int) -> float:
        """Field coupling for level n in eV: (closed-form coefficient) e F a*."""
        return stark_coupling(n) * self.F * self.bohr_radius

    def threshold(self, n: int, l: int, m: int) -> complex:
        """Complex resonance threshold E_gap + E_nlm - i Gamma_nlm in eV."""
        return (self.E_gap + energy_nlm(n, l, m, self.gamma_aniso, self.rydberg)
                - 1j * self.damping(n, l, m))


def mixed_level(params: LevelModelParams, n: int, branch: str) -> complex:
    """Field-mixed level energy for principal index n, in eV.

    ``branch`` selects which root of the secular pair the state follows:
    the P-like branch takes the larger root, the S-like branch the
    smaller one (real-part comparison).
    """
    roots = solve_secular(
        params.threshold(n, 0, 0),
        params.threshold(n, 1, 0),
        params.coupling_energy(n),
    )
    if branch == "P":
        return roots.E_plus
    if branch == "S":
        return roots.E_minus
    raise ValueError("branch must be 'S' or 'P'")


def dipole_moment_squared(params: LevelModelParams, eta_11: float) -> float:
    """Squared dipole matrix element in C^2 m^2.

    4 eps0 eps_b a*^3 Delta_LT / (pi (r0/a*)^2 eta_11^5), with Delta_LT
    converted from eV to J.  The r0 default is tuned so the default
    parameter set lands on the working |d_ab|^2 of the ladder medium.
    """
    if eta_11 <= 0:
        raise ValueError("eta_11 must be positive")
    a = params.bohr_radius
    delta_j = params.delta_lt * CONST.e_charge
    return (4.0 * CONST.eps0 * params.eps_b * a**3 * delta_j
            / (math.pi * (params.r0 / a) ** 2 * eta_11**5))


class LevelRow(NamedTuple):
    """One row of the exported level table."""

    n: int
    l: int
    m: int
    eta: float
    energy: complex    # eV; binding energy for bare rows, absolute for roots
    branch: str


def level_table(params: LevelModelParams, n_max: int, l_max: int) -> list[LevelRow]:
    """Bare anisotropy-corrected levels plus the two field-mixed roots.

    Bare rows carry binding energies (branch "bare"); the mixed rows carry
    the absolute complex resonance energies of the P-like n=2 branch and
    the S-like n=10 branch.  eta depends on |m| only, so m runs over
    0..l.
    """
    gamma, rydberg = params.gamma_aniso, params.rydberg
    # eta once per (l, m); each energy is energy_nlm's expression
    etas = [[anisotropy_eta(l, m, gamma) for m in range(l + 1)]
            for l in range(min(l_max, n_max - 1) + 1)]
    rows = [LevelRow(n=n, l=l, m=m, eta=eta, energy=complex(-(eta * eta) / n**2 * rydberg),
                     branch="bare")
            for n in range(1, n_max + 1)
            for l in range(0, min(l_max, n - 1) + 1)
            for m, eta in enumerate(etas[l])]
    for n, branch, label in ((2, "P", "2P"), (10, "S", "10S")):
        l = 1 if branch == "P" else 0
        rows.append(LevelRow(
            n=n, l=l, m=0,
            eta=anisotropy_eta(l, 0, gamma),
            energy=mixed_level(params, n, branch),
            branch=label,
        ))
    return rows
