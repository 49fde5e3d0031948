"""Independent reference routes the tests check the package against.

None of these run in the package itself: each recomputes a quantity the
package gets in closed form, by a different method.
"""

import math

import numpy as np

from exciton_eit import CONST, FieldDrive, LadderSystem, chi, group_velocity


def group_index_fd(omega, system: LadderSystem, drive: FieldDrive, rel_step: float = 1e-6):
    """Finite-difference group index, for cross-checking the analytic path."""
    scale = max(system.gamma_ab, system.gamma_bc, abs(drive.Omega2), 1.0)
    h = rel_step * scale
    dre = (np.real(chi(np.asarray(omega) + h, system, drive))
           - np.real(chi(np.asarray(omega) - h, system, drive))) / (2.0 * h)
    return 1.0 + 0.5 * drive.omega1 * dre


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
