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

import math
from dataclasses import dataclass

import numpy as np

from .medium import FieldDrive, LadderSystem
from .susceptibility import EvaluationError


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
    om1 = complex(drive.Omega1)
    om2 = complex(drive.Omega2)
    d1, d2 = drive.delta1, drive.delta2
    gab, gbc, gac = system.gamma_ab, system.gamma_bc, system.gamma_ac
    Gab, Gca = system.Gamma_ab, system.Gamma_ca

    saa, sbb, scc = y[0], y[1], y[2]
    sab = complex(y[3], y[4])
    sbc = complex(y[5], y[6])
    sac = complex(y[7], y[8])

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


def bloch_rhs(state: DensityMatrixState, drive: FieldDrive, system: LadderSystem,
              decay_mode: str = "literal") -> DensityMatrixState:
    """Time derivative of the six density-matrix components."""
    return DensityMatrixState.from_vector(
        _rhs_vector(state.to_vector(), drive, system, decay_mode))


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


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Moler & Van Loan, SIAM
    Rev. 45, 3 (2003)); for a 1-norm below 1, 18 Taylor terms are exact.

    Only products enter, so a zero row of ``a`` (a conserved coordinate)
    stays exactly the identity's row through the series and the
    squarings, and no roundoff can compound there.
    """
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    a = a / 2.0**squarings
    r = term = np.eye(len(a))
    for k in range(1, 19):
        term = a @ term / k
        r = r + term
    for _ in range(squarings):
        r = r @ r
    return r


def _sample(generator: np.ndarray, y0: np.ndarray, T: float, t_eval):
    """Exact samples of dy/dt = generator @ y, y(0) = y0, at ``t_eval``.

    ``t_eval=None`` samples [0, T].  One exponential is computed per
    distinct step between consecutive samples; returns (t, y, count).
    A growing mode that overflows leaves non-finite samples, without
    floating-point warnings; callers check the result.
    """
    if T <= 0:
        raise ValueError("integration time T must be positive")
    t = np.array([0.0, T]) if t_eval is None else np.asarray(t_eval, dtype=float)
    if (t.ndim != 1 or not np.all(np.diff(t) >= 0)
            or (t.size and not (0.0 <= t[0] and t[-1] <= T))):
        raise ValueError("t_eval must be a sorted 1-d grid within [0, T]")
    steps, which = np.unique(np.diff(t, prepend=0.0), return_inverse=True)
    y = np.empty((len(y0), len(t)), dtype=np.result_type(generator, y0))
    with np.errstate(over="ignore", invalid="ignore"):
        propagators = [_expm(generator * h) for h in steps]
        state = y0
        for k, j in enumerate(which):
            state = propagators[j] @ state
            y[:, k] = state
    return t, y, len(steps)


def integrate_bloch(initial: DensityMatrixState, drive: FieldDrive,
                    system: LadderSystem, T: float,
                    t_eval=None, decay_mode: str = "literal") -> BlochTrajectory:
    """Propagate the full six-component dynamics from 0 to T.

    The right-hand side is linear in the packed real state, so the 9x9
    generator is read off its action on a basis and the state is advanced
    by its matrix exponential; the trace is a coordinate of its own and
    stays exact for any rate-time product.  ``t_eval`` (sorted, within
    [0, T]) sets the samples; ``None`` returns [0, T].  A drive whose
    generator has a growing mode (possible with the literal population
    damping) can overflow the samples; that raises
    :class:`EvaluationError` naming the growth rate.
    """
    # work in coordinates z that replace sigma_bb by the trace, y = S z;
    # the equations conserve the trace, so its row of the generator is 0
    S = np.eye(9)
    S[1, 0] = S[1, 2] = -1.0
    generator = np.column_stack([
        _rhs_vector(column, drive, system, decay_mode) for column in S.T])
    generator[1] = 0.0
    z0 = initial.to_vector()
    z0[1] = initial.trace
    t, z, _ = _sample(generator, z0, T, t_eval)
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

    nfev: int      # matrix exponentials computed
    final_sigma_ab: complex


def integrate_linearized(drive: FieldDrive, system: LadderSystem,
                         T: float) -> LinearizedTrajectory:
    """Propagate the first-order probe equations from rest, 0 to T.

    The source term is carried as a constant third component, d/dt (v, 1)
    = [[-iM, i b], [0, 0]] (v, 1) with v = (sigma_ab, sigma_cb) and
    b = (Omega1, 0), so the exponential of that 3x3 matrix is exact
    whether or not M is singular.
    """
    generator = np.zeros((3, 3), dtype=complex)
    generator[:2, :2] = -1j * _linear_matrix(drive, system)
    generator[0, 2] = 1j * complex(drive.Omega1)
    _, v, count = _sample(generator, np.array([0.0, 0.0, 1.0], dtype=complex), T, None)
    return LinearizedTrajectory(nfev=count, final_sigma_ab=complex(v[0, -1]))
