"""Time-domain density-matrix dynamics of the driven ladder system.

The state is carried in the rotating frame, so the six slowly varying
components are three real occupations and three complex coherences.  The
equations of motion conserve the total occupation identically.  For a
constant drive they are a constant real 9x9 linear system, so the state
is propagated exactly by the matrix exponential of its generator.

Two decay conventions are provided.  The default ("literal") keeps the
unusual population-damping pattern in which the upper-level loss rate is
Gamma_ab - Gamma_ca while level c is drained at Gamma_ca; the
"standard" mode uses conventional downward relaxation a -> b and a -> c.
Both conserve the trace exactly.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .medium import FieldDrive, LadderSystem
from .susceptibility import EvaluationError


_EPS = sys.float_info.epsilon
_LN_EPS = math.log(_EPS)


class SingularSteadyStateError(ArithmeticError):
    """Raised when the linear steady-state system is degenerate."""


@dataclass
class DensityMatrixState:
    """Slowly varying density-matrix components.

    Occupations are real; sigma_ab, sigma_bc, sigma_ac are the independent
    coherences (their mirror elements follow by conjugation).
    """

    sigma_aa: float = 0.0
    sigma_bb: float = 1.0
    sigma_cc: float = 0.0
    sigma_ab: complex = 0.0
    sigma_bc: complex = 0.0
    sigma_ac: complex = 0.0

    @classmethod
    def ground(cls) -> "DensityMatrixState":
        """All population in the crystal ground state b."""
        return cls()

    @property
    def trace(self) -> float:
        return self.sigma_aa + self.sigma_bb + self.sigma_cc

    def to_vector(self) -> np.ndarray:
        """Pack into 9 reals, the layout the propagator works on."""
        return np.array([
            self.sigma_aa, self.sigma_bb, self.sigma_cc,
            self.sigma_ab.real, self.sigma_ab.imag,
            self.sigma_bc.real, self.sigma_bc.imag,
            self.sigma_ac.real, self.sigma_ac.imag,
        ])

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "DensityMatrixState":
        return cls(
            sigma_aa=float(y[0]), sigma_bb=float(y[1]), sigma_cc=float(y[2]),
            sigma_ab=complex(y[3], y[4]),
            sigma_bc=complex(y[5], y[6]),
            sigma_ac=complex(y[7], y[8]),
        )


def _rhs_vector(y: np.ndarray, drive: FieldDrive, system: LadderSystem,
                decay_mode: str) -> np.ndarray:
    """Time derivative of the packed state ``y``, shape (9,) or (9, k): a
    block of k states gives the k derivatives as the columns."""
    om1 = complex(drive.Omega1)
    om2 = complex(drive.Omega2)
    d1, d2 = drive.delta1, drive.delta2
    gab, gbc, gac = system.gamma_ab, system.gamma_bc, system.gamma_ac
    Gab, Gca = system.Gamma_ab, system.Gamma_ca

    saa, sbb, scc = y[0], y[1], y[2]
    sab = y[3] + 1j * y[4]
    sbc = y[5] + 1j * y[6]
    sac = y[7] + 1j * y[8]

    # shared pump terms so the occupation sum cancels exactly
    pump1 = 2.0 * (om1.conjugate() * sab).imag
    pump2 = 2.0 * (om2.conjugate() * sac).imag

    if decay_mode == "literal":
        daa = pump1 + pump2 - (Gab - Gca) * saa
        dcc = -pump2 - Gca * saa
    elif decay_mode == "standard":
        daa = pump1 + pump2 - (Gab + Gca) * saa
        dcc = -pump2 + Gca * saa
    else:
        raise ValueError("decay_mode must be 'literal' or 'standard'")
    dbb = -pump1 + Gab * saa

    dab = -1j * ((d1 - 1j * gab) * sab - om1 * (sbb - saa) - om2 * sbc.conjugate())
    dbc = -1j * ((d2 - d1 - 1j * gbc) * sbc + om2 * sab.conjugate()
                 - om1.conjugate() * sac)
    dac = -1j * ((d2 - 1j * gac) * sac - om2 * (scc - saa) - om1 * sbc)

    return np.array([
        daa, dbb, dcc,
        dab.real, dab.imag,
        dbc.real, dbc.imag,
        dac.real, dac.imag,
    ])


@dataclass
class BlochTrajectory:
    """Sampled solution of the time integration."""

    t: np.ndarray
    y: np.ndarray  # shape (9, n_samples), packed as in DensityMatrixState

    @property
    def trace(self) -> np.ndarray:
        return self.y[0] + self.y[1] + self.y[2]

    @property
    def sigma_ab(self) -> np.ndarray:
        return self.y[3] + 1j * self.y[4]

    @property
    def sigma_bb(self) -> np.ndarray:
        return self.y[1]


def _expm(a: np.ndarray, T: float) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Moler & Van Loan, SIAM
    Rev. 45, 3 (2003)); for a 1-norm below 1, 18 Taylor terms are exact.

    Only products enter, so a zero row of ``a`` (a conserved coordinate)
    stays exactly the identity's row through the series and the
    squarings, and no roundoff can compound there.  ``a`` is a generator
    times a step of the horizon ``T``; a 1-norm that is not finite raises
    :class:`EvaluationError` naming ``T``.
    """
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        raise EvaluationError(
            f"the propagator over T = {T:.6g} s overflows: the generator times "
            f"the step has a 1-norm of {norm}")
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    a = a * 0.5**squarings     # exact, and finite up to 1024 squarings
    r = term = np.eye(len(a))
    for k in range(1, 19):
        term = a @ term / k
        r = r + term
    for _ in range(squarings):
        r = r @ r
    return r


def _samples(step: np.ndarray, z0: np.ndarray, n: int) -> np.ndarray:
    """The n states step^k z0, k = 0 .. n - 1, as columns.

    They are filled in doubling blocks: with P = step^m, the next m columns
    are P times the first m, and then P is squared, so ceil(log2(n)) block
    products and squarings replace n - 1 matrix-vector products.  A row of
    ``step`` that is the identity's (a conserved coordinate) stays so in
    every power, so that coordinate keeps z0's value exactly.
    """
    z = np.empty((len(z0), n))
    z[:, 0] = z0
    power, filled = step, 1
    while True:
        m = min(filled, n - filled)
        z[:, filled:filled + m] = power @ z[:, :m]
        filled += m
        if filled == n:
            return z
        power = power @ power


def integrate_bloch(initial: DensityMatrixState, drive: FieldDrive,
                    system: LadderSystem, T: float,
                    t_eval=None, decay_mode: str = "literal") -> BlochTrajectory:
    """Propagate the full six-component dynamics from 0 to T.

    The right-hand side is linear in the packed real state, so the 9x9
    generator is read off its action on a basis and the state is advanced
    by its matrix exponential; the trace is a coordinate of its own and
    stays exact for any rate-time product.  ``t_eval`` must be
    ``np.linspace(0, T, n)`` with n >= 2 (``None`` means [0, T]), so one
    exponential over the step T/(n - 1) gives every sample, by repeated
    squaring (``_samples``).  T must be positive and finite.  A drive
    whose generator has a growing mode (possible with the literal
    population damping) can overflow the samples; that raises
    :class:`EvaluationError` naming the growth rate.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"integration time T must be positive and finite, got {T!r}")
    t = np.linspace(0.0, T, 2) if t_eval is None else np.asarray(t_eval, dtype=float)
    if t.size < 2 or not np.array_equal(t, np.linspace(0.0, T, t.size)):
        raise ValueError("t_eval must be np.linspace(0, T, n) with n >= 2")
    # work in coordinates z that replace sigma_bb by the trace, y = S z;
    # the equations conserve the trace, so its row of the generator is 0
    S = np.eye(9)
    S[1, 0] = S[1, 2] = -1.0
    generator = _rhs_vector(S, drive, system, decay_mode)
    generator[1] = 0.0
    z0 = initial.to_vector()
    z0[1] = initial.trace
    # a growing mode that overflows leaves non-finite samples, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        z = _samples(_expm(generator * (T / (t.size - 1)), T), z0, t.size)
    if not np.isfinite(z).all():
        rate = np.linalg.eigvals(generator).real.max()
        raise EvaluationError(
            f"Bloch samples overflow over T = {T:.6g} s: the generator's largest "
            f"real eigenvalue is {rate:+.6g} /s, a mode that grows as exp(rate t)")
    return BlochTrajectory(t=t, y=S @ z)


def _linear_matrix(drive: FieldDrive, system: LadderSystem) -> np.ndarray:
    """Coefficient matrix of the first-order probe response.

    Acting on (sigma_ab, sigma_cb): i d/dt v = M v - (Omega1, 0).
    """
    om2 = complex(drive.Omega2)
    return np.array([
        [drive.delta1 - 1j * system.gamma_ab, -om2],
        [-om2.conjugate(), drive.delta1 - drive.delta2 - 1j * system.gamma_bc],
    ])


def steady_state_linearized(drive: FieldDrive,
                            system: LadderSystem) -> tuple[complex, complex]:
    """Closed-form steady state of the first-order probe equations.

    Returns (sigma_ab, sigma_bc).  The response is linear in Omega1.
    Raises :class:`SingularSteadyStateError` when the two-photon
    denominator (delta1 - i gamma_ab)(delta1 - delta2 - i gamma_bc)
    - |Omega2|^2 vanishes, which needs both dampings to be zero.
    """
    m = _linear_matrix(drive, system)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det == 0:
        raise SingularSteadyStateError(
            "(delta1 - i*gamma_ab)(delta1 - delta2 - i*gamma_bc) = |Omega2|^2: "
            "the steady-state system is degenerate"
        )
    om1 = complex(drive.Omega1)
    sigma_ab = om1 * m[1, 1] / det
    sigma_cb = -m[1, 0] * om1 / det
    return complex(sigma_ab), complex(sigma_cb).conjugate()


@dataclass
class LinearizedTrajectory:
    """End point of the first-order probe response."""

    nfev: int      # matrix exponentials computed: always 1
    final_sigma_ab: complex


def integrate_linearized(drive: FieldDrive, system: LadderSystem,
                         T: float) -> LinearizedTrajectory:
    """Propagate the first-order probe equations from rest, 0 to T.

    The source term is carried as a constant third component, d/dt (v, 1)
    = [[-iM, i b], [0, 0]] (v, 1) with v = (sigma_ab, sigma_cb) and
    b = (Omega1, 0), so one exponential of that 3x3 matrix over T is exact
    whether or not M is singular, and sigma_ab(T) is its (0, 2) entry.
    T must be positive and finite.  An end point that is not finite raises
    :class:`EvaluationError`, and so does one that is roundoff: a mode of
    -iM that has not decayed below eps by T (Re lambda T > ln eps) while
    rounding has lost its phase T Im lambda (T |Im lambda| eps > 1).
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"integration time T must be positive and finite, got {T!r}")
    block = -1j * _linear_matrix(drive, system)
    generator = np.zeros((3, 3), dtype=complex)
    generator[:2, :2] = block
    generator[0, 2] = 1j * complex(drive.Omega1)
    with np.errstate(over="ignore", invalid="ignore"):
        end = complex(_expm(generator * T, T)[0, 2])
    if not np.isfinite(end):
        raise EvaluationError(f"sigma_ab over T = {T:.6g} s is not finite: {end}")
    (a, b), (c, d) = block.tolist()
    root = cmath.sqrt(0.25 * (a - d) * (a - d) + b * c)   # eigenvalues of the 2x2 block
    for rate in (0.5 * (a + d) + root, 0.5 * (a + d) - root):
        if rate.real * T > _LN_EPS and T * abs(rate.imag) * _EPS > 1.0:
            raise EvaluationError(
                f"sigma_ab over T = {T:.6g} s is roundoff: a mode oscillating at "
                f"{abs(rate.imag):.6g} rad/s has not decayed by T, so its phase "
                "there is lost to rounding")
    return LinearizedTrajectory(nfev=1, final_sigma_ab=end)
