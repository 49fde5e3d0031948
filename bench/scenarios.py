"""Seeded scenario generator for the benchmark workloads.

The seed is the only source of randomness.  Every draw is rendered as a
config text in the package's own unit format, so the package receives
nothing but configs it parses itself and the parameter objects built
from them.

Draws are stratified in blocks of ``BLOCK`` consecutive operations: each
block holds one value from every stratum of every range, in a seeded
order.  A run therefore covers each range evenly whatever its seed and
however many operations fit in it, which keeps run-to-run spread down
without narrowing any range.  The one bound on a draw is physical: a
pulse's slab stops where its transmission would fall below exp(-MAX_DEPTH).
"""

from __future__ import annotations

import numpy as np

BLOCK = 8

# The paper's Cu2O working point with Omega2 at the group-index optimum,
# restated key by key so that a changed package default cannot move the
# benchmark inputs.
DEFAULT = {
    "omega_ab": "3.266576e15 rad/s",
    "omega_ac": "3.1402e13 rad/s",
    "gamma_ab": "4.5573e10 rad/s",
    "gamma_bc": "7.596e9 rad/s",
    "N": "6.2422e25 m^-3",
    "dipole_ab_sq": "0.334e-60 C2m2",
    "Omega1": "1e6 rad/s",
    "Omega2": "2.5e10 rad/s",
    "delta1": "0 rad/s",
    "delta2": "0 rad/s",
    "omega_half_span": "2e11 rad/s",
    "omega_points": "2001",
    "omega2_min": "1e9 rad/s",
    "omega2_max": "1e11 rad/s",
    "omega2_points": "199",
    "spectrum_omega2": "0, 1e10, 2.5e10, 5e10 rad/s",
    "E_gap": "2.17208 eV",
    "rydberg_energy": "0.086131 eV",
    "bohr_radius": "1.1e-9 m",
    "gamma_aniso": "1 dimensionless",
    "eps_b": "7.5 dimensionless",
    "delta_lt": "1.25e-3 eV",
    "r0": "9.04e-9 m",
    "field_strength": "1500 V/m",
    "damping_n2": "10e-6 eV",
    "damping_n10": "60e-6 eV",
    "levels_n_max": "10",
    "levels_l_max": "1",
    "slab_length": "30e-6 m",
    "z_steps": "480",
    "t_steps": "2400",
}

# (key, low, high, log-uniform, unit) for the study-warm draws.  The
# anisotropy range is the one ROADMAP item 4 states; gamma_aniso = 0.01
# is a known failure outside it.
STUDY_RANGES = (
    ("gamma_ab", 0.75 * 4.5573e10, 1.33 * 4.5573e10, False, "rad/s"),
    ("gamma_bc", 0.75 * 7.596e9, 1.33 * 7.596e9, False, "rad/s"),
    ("N", 0.5 * 6.2422e25, 2.0 * 6.2422e25, True, "m^-3"),
    ("Omega2", 15e9, 40e9, False, "rad/s"),
    ("gamma_aniso", 0.2, 5.0, True, "dimensionless"),
)

# Sizes fixed by the study itself: a 2000-point control sweep and the
# level table up to n = 20, l = 2.
STUDY_FIXED = {"omega2_points": "2000", "levels_n_max": "20", "levels_l_max": "2"}

PULSE_RANGES = (
    ("Omega2", 25e9, 100e9, False, "rad/s"),
    ("slab_length", 15e-6, 45e-6, False, "m"),
)

# Deepest slab a pulse draw takes: amplitude transmission at the window
# centre no lower than exp(-MAX_DEPTH).  The sampled input carries
# broadband roundoff near 1e-16 of its peak, which the transparent wings
# pass; once the narrowband transmission nears it (about exp(-34)) the
# exact response of the input array is no delayed pulse, and the package
# rightly flags the run unconverged.  exp(-30) is a little deeper than
# the CLI's default slab (exp(-28.5)), where the half-resolution rerun
# moves the delay by 0.7% of its 1% limit.
MAX_DEPTH = 30.0
_HBAR, _EPS0, _C = 1.054571817e-34, 8.8541878128e-12, 299792458.0


def _value(key: str) -> float:
    return float(DEFAULT[key].split()[0])


def max_slab_length(omega2: float) -> float:
    """Slab length (m) at which the default medium transmits exp(-MAX_DEPTH).

    In closed form, independent of the package: at two-photon resonance
    Im chi = N d^2 / (hbar eps0 (gamma_ab + Omega2^2 / gamma_bc)), and the
    amplitude falls as exp(-omega_ab Im chi L / 2c).
    """
    im_chi = (_value("N") * _value("dipole_ab_sq")
              / (_HBAR * _EPS0 * (_value("gamma_ab") + omega2**2 / _value("gamma_bc"))))
    return 2.0 * MAX_DEPTH * _C / (_value("omega_ab") * im_chi)


_STREAM = {"study-warm": 1, "pulse-warm": 2}


def render(overrides: dict | None = None) -> str:
    """Config text of the default working point with ``overrides`` applied."""
    entries = {**DEFAULT, **(overrides or {})}
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def _block(seed: int, workload: str, index: int, ranges) -> list[dict]:
    """One block of draws, each range's unit interval split into BLOCK strata."""
    rng = np.random.default_rng([seed, _STREAM[workload], index])
    rows = [{} for _ in range(BLOCK)]
    for key, lo, hi, log, _ in ranges:
        u = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
        for row, ui in zip(rows, u.tolist()):
            top = hi
            if key == "slab_length":   # thinner where the control is weak
                top = min(hi, max_slab_length(row["Omega2"]))
            row[key] = (float(np.exp(np.log(lo) + ui * (np.log(top) - np.log(lo)))) if log
                        else lo + ui * (top - lo))
    units = {key: unit for key, *_, unit in ranges}
    return [{key: f"{v!r} {units[key]}" for key, v in row.items()} for row in rows]


def scenario(seed: int, workload: str, index: int) -> str:
    """Config text of operation ``index`` of a warm workload."""
    if workload == "study-warm":
        ranges, fixed = STUDY_RANGES, STUDY_FIXED
    elif workload == "pulse-warm":
        ranges, fixed = PULSE_RANGES, {}
    else:
        raise ValueError(f"no seeded scenarios for workload {workload!r}")
    draw = _block(seed, workload, index // BLOCK, ranges)[index % BLOCK]
    return render({**fixed, **draw})


def warmup(workload: str) -> str:
    """Config text of the untimed warm-up operation: the undrawn default."""
    return render(STUDY_FIXED if workload == "study-warm" else None)


def cli_order(seed: int, round_index: int, commands: tuple[str, ...]) -> tuple[str, ...]:
    """Command order of one cli-cold round.

    Round-robin from a seeded start, shifted by one each round, so slow
    drift over a run lands on every command equally.
    """
    shift = (seed + round_index) % len(commands)
    return commands[shift:] + commands[:shift]
