"""Correctness checks run on every benchmark operation.

Each check returns a list of failure messages; an empty list passes.
Tolerances are the ones the package's tests already set, cited next to
each check, and nothing is compared against golden hashes from another
commit, so exact kernels that move outputs within those tolerances pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from exciton_eit import (FieldDrive, dressed_peaks, group_velocity, parse_config,
                         steady_state_linearized)

# Every ORACLE_STRIDE-th point of each spectrum goes to the oracle.
ORACLE_STRIDE = 50


def chi_oracle(system, drive, table) -> list[str]:
    """Criterion 2: chi equals the linearized steady state within 1e-12."""
    worst = 0.0
    for w, re, im in zip(table.omega_grid[::ORACLE_STRIDE],
                         table.chi_re[::ORACLE_STRIDE],
                         table.chi_im[::ORACLE_STRIDE]):
        shifted = FieldDrive.from_detunings(
            system, Omega1=drive.Omega1, Omega2=drive.Omega2,
            delta1=drive.delta1 - w, delta2=drive.delta2)
        sigma_ab, _ = steady_state_linearized(shifted, system)
        oracle = system.chi_prefactor * sigma_ab / shifted.Omega1
        worst = max(worst, abs(complex(re, im) - oracle) / abs(oracle))
    if not worst < 1e-12:
        return [f"chi deviates from the steady-state oracle by {worst:.2e} (limit 1e-12)"]
    return []


def passive(chi_im, label: str) -> list[str]:
    """Im chi >= 0: the medium absorbs and never amplifies."""
    low = float(np.min(chi_im))
    return [] if low >= 0.0 else [f"{label}: Im chi = {low:.3e} < 0"]


def doublet(system, drives, peaks) -> list[str]:
    """Criterion 6: two peaks, each within gamma_ab^2/Omega2 of delta1 -+ Omega2."""
    failures = []
    for drive, found in zip(drives, peaks):
        predicted = dressed_peaks(system, drive)
        bound = system.gamma_ab**2 / abs(drive.Omega2)
        if len(found) != 2 or max(abs(found[0] - predicted[0]),
                                  abs(found[-1] - predicted[1])) > bound:
            failures.append(f"doublet at Omega2 = {abs(drive.Omega2):.3g}: peaks {found}")
    return failures


def trace_conserved(trajectory, label: str) -> list[str]:
    """Criterion 8: the occupation sum stays 1 within 1e-9."""
    drift = float(np.max(np.abs(trajectory.trace - 1.0)))
    return [] if drift < 1e-9 else [f"{label}: trace drift {drift:.2e} (limit 1e-9)"]


def reaches_steady_state(sol, drive, system) -> list[str]:
    """Criterion 3: the linearized run ends on the closed form within 1e-6."""
    ss, _ = steady_state_linearized(drive, system)
    err = abs(sol.final_sigma_ab - ss) / abs(ss)
    return [] if err < 1e-6 else [f"linearized run misses the steady state by {err:.2e}"]


def secular(level_params, mixed) -> list[str]:
    """Criterion 9: mixed roots solve (E_S - E)(E_P - E) = V^2 within 1e-12."""
    failures = []
    for n, energy in mixed:
        t1 = level_params.threshold(n, 0, 0)
        t2 = level_params.threshold(n, 1, 0)
        v = level_params.coupling_energy(n)
        scale = max(abs(t1), abs(t2), abs(v))
        residual = abs((t1 - energy) * (t2 - energy) - v * v)
        if not residual <= 1e-12 * scale**2:
            failures.append(f"n={n} root leaves secular residual {residual:.2e}")
    return failures


def pulse(record, params, drive, system) -> list[str]:
    """Delay within 10% of L/v_g, converged, and a causal output.

    The 10% tolerance is the deep-window test's; causality is the slab
    test's rule that the output rises no earlier than one step before
    the input.
    """
    failures = []
    expected = params.L / group_velocity(drive.delta1 - drive.delta2, system, drive)
    err = abs(record.measured_delay - expected) / expected
    if not err <= 0.10:
        failures.append(f"delay off L/v_g by {err:.1%} (limit 10%)")
    if not record.converged:
        failures.append(f"unconverged: delay moved {record.convergence_delta:.2%} "
                        "under refinement")
    # an output that never reaches the threshold (a thick slab) cannot rise early
    thresh = 1e-6 * np.max(np.abs(record.envelope_in))
    lead_in = np.flatnonzero(np.abs(record.envelope_in) > thresh)[0]
    above = np.flatnonzero(np.abs(record.envelope_out) > thresh)
    if above.size and above[0] < lead_in - 1:
        failures.append(f"acausal output: rises at step {above[0]}, input at {lead_in}")
    return failures


# ---- cli-cold: checks on the files one launch wrote ----

def digest(out_dir: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cli_outputs(command: str, out_dir: Path, config_text: str) -> list[str]:
    """Physics checks on the JSON files a CLI command wrote."""
    if command == "propagate":
        doc = json.loads((out_dir / "pulse_summary.json").read_text())
        failures = []
        slowdown = float(doc["slowdown_factor"])
        if not 3e3 < slowdown < 3e5:   # test_propagate_slowdown_at_group_index_optimum
            failures.append(f"slowdown factor {slowdown:.3g} outside (3e3, 3e5)")
        if doc["converged"] is not True:
            failures.append("propagate: converged is not set")
        return failures
    if command == "levels":
        doc = json.loads((out_dir / "levels.json").read_text())
        mixed = [(row["n"], complex(float(row["E_real_meV"]), float(row["E_imag_meV"])) / 1e3)
                 for row in doc["rows"] if row["branch"] in ("2P", "10S")]
        if len(mixed) != 2:
            return [f"levels: expected the 2P and 10S rows, found {len(mixed)}"]
        return secular(parse_config(config_text).build_level_params(), mixed)
    if command == "sweep":
        doc = json.loads((out_dir / "sweep.json").read_text())
        argmax = float(doc["argmax_omega2_rad_s"])
        ng_max = float(doc["ng_max"])
        # criterion 4: optimum at 25 Grad/s +- 30%, peak n_g in 3e3..3e5
        if abs(argmax - 2.5e10) <= 0.30 * 2.5e10 and 3e3 <= ng_max <= 3e5:
            return []
        return [f"sweep optimum {argmax:.3g} rad/s, n_g {ng_max:.3g} out of range"]
    if command == "spectrum":
        paths = sorted(out_dir.glob("spectrum_*.json"))
        wanted = len(parse_config(config_text).spectrum_omega2)
        if len(paths) != wanted:
            return [f"spectrum: {len(paths)} JSON files, expected {wanted}"]
        failures = []
        for path in paths:
            doc = json.loads(path.read_text())
            failures += passive(np.array([float(v) for v in doc["chi_im"]]), path.name)
        return failures
    raise ValueError(f"unknown command {command!r}")
