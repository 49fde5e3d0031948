"""Command-line orchestration of spectra, sweeps, level tables and pulses.

Subcommands: spectrum | sweep | levels | propagate | validate.  Outputs
are CSV and/or JSON shaped for external plotting tools, one dependent
variable per column, byte-identical across reruns of the same
configuration.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, ScenarioConfig, parse_config,
                     resolved_params_dict, serialize_config, spectrum_stem)
from .constants import CONST
from .levels import level_table
from .medium import FieldDrive, LadderSystem
from .output import fmt, write_csv, write_json
from .propagation import (ATTENUATION_FLOOR, PropagationParams, gaussian_envelope,
                          propagate_pulse)
from .susceptibility import (EvaluationError, compute_spectrum, sweep_control,
                             window_metrics)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exciton-eit",
        description="EIT and slow-light calculations for a Rydberg-exciton ladder medium",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="configuration file (missing keys take built-in defaults)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both",
                        help="output formats to emit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="probe spectra for each configured control field")
    sub.add_parser("sweep", help="window-center group index and absorption vs control field")
    sub.add_parser("levels", help="level table and field-mixed branch energies")
    sub.add_parser("propagate", help="pulse propagation through the slab")
    sub.add_parser("validate", help="parse the config and echo the resolved values")
    return parser


def _load_config(path: Path | None) -> ScenarioConfig:
    if path is None:
        cfg = ScenarioConfig()
        cfg.validate()
        return cfg
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _formats(args) -> tuple[bool, bool]:
    return args.format in ("csv", "both"), args.format in ("json", "both")


def run_spectrum(cfg: ScenarioConfig, args) -> int:
    system = cfg.build_system()
    csv_on, json_on = _formats(args)
    for om2 in cfg.spectrum_omega2:
        drive = cfg.build_drive(system, Omega2=om2)
        center = drive.delta1 - drive.delta2
        grid = np.linspace(center - cfg.omega_half_span,
                           center + cfg.omega_half_span, cfg.omega_points)
        table = compute_spectrum(system, drive, grid)
        params = {**resolved_params_dict(cfg), "Omega2_this_run": om2}
        stem = spectrum_stem(om2)
        if csv_on:
            rows = zip(table.omega_grid, table.chi_re, table.chi_im, table.n_g)
            write_csv(args.out / f"{stem}.csv",
                      ["omega_rad_s", "chi_re", "chi_im", "n_g"], rows, params)
        if json_on:
            write_json(args.out / f"{stem}.json", {
                "omega_rad_s": list(table.omega_grid),
                "chi_re": list(table.chi_re),
                "chi_im": list(table.chi_im),
                "n_g": list(table.n_g),
            }, params)
        print(f"spectrum: Omega2 = {fmt(om2)} rad/s -> {stem}")
    return 0


def run_sweep(cfg: ScenarioConfig, args) -> int:
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    grid = np.linspace(cfg.omega2_min, cfg.omega2_max, cfg.omega2_points)
    sweep = sweep_control(system, drive, grid)
    params = resolved_params_dict(cfg)
    csv_on, json_on = _formats(args)
    if csv_on:
        rows = zip(sweep.omega2_grid, sweep.ng_center, sweep.chi_im_center)
        write_csv(args.out / "sweep.csv",
                  ["omega2_rad_s", "ng_center", "chi_im_center"], rows, params)
    if json_on:
        write_json(args.out / "sweep.json", {
            "omega2_rad_s": list(sweep.omega2_grid),
            "ng_center": list(sweep.ng_center),
            "chi_im_center": list(sweep.chi_im_center),
            "argmax_omega2_rad_s": sweep.argmax_omega2,
            "ng_max": sweep.ng_max,
        }, params)
    print(f"sweep: argmax Omega2 = {fmt(sweep.argmax_omega2)} rad/s, "
          f"max n_g(center) = {fmt(sweep.ng_max)}")
    return 0


def run_levels(cfg: ScenarioConfig, args) -> int:
    params_model = cfg.build_level_params()
    rows = level_table(params_model, n_max=cfg.levels_n_max, l_max=cfg.levels_l_max)
    params = resolved_params_dict(cfg)
    csv_on, json_on = _formats(args)
    table = [(r.n, r.l, r.m, r.eta,
              r.energy.real * 1e3, r.energy.imag * 1e3, r.branch) for r in rows]
    if csv_on:
        write_csv(args.out / "levels.csv",
                  ["n", "l", "m", "eta", "E_real_meV", "E_imag_meV", "branch"],
                  [(str(n), str(l), str(m), eta, er, ei, br)
                   for n, l, m, eta, er, ei, br in table], params)
    if json_on:
        write_json(args.out / "levels.json", {
            "rows": [{"n": n, "l": l, "m": m, "eta": eta,
                      "E_real_meV": er, "E_imag_meV": ei, "branch": br}
                     for n, l, m, eta, er, ei, br in table],
        }, params)
    mixed = [r for r in rows if r.branch in ("2P", "10S")]
    for r in mixed:
        print(f"levels: {r.branch} branch at {fmt(r.energy.real * 1e3)} meV "
              f"(width {fmt(-2e3 * r.energy.imag)} meV)")
    return 0


def _propagation_setup(cfg: ScenarioConfig, system: LadderSystem,
                       drive: FieldDrive):
    """Pulse sizing: duration defaults to 10x the inverse window width.

    The pulse starts 9 sigma into the grid so the turn-on truncation sits
    far below the transmitted amplitude even for optically thick slabs.
    """
    metrics = window_metrics(system, drive)
    if cfg.pulse_sigma is not None:
        sigma = cfg.pulse_sigma
    elif metrics.width > 0:
        sigma = 10.0 / metrics.width
    else:
        sigma = 10.0 / max(system.gamma_ab, 1.0)
    delay_guess = 0.0
    if system.N > 0:
        delay_guess = cfg.slab_length * max(metrics.ng_center, 1.0) / CONST.c
    span = cfg.t_span if cfg.t_span is not None else 18.0 * sigma + 2.0 * delay_guess
    center = 9.0 * sigma
    return sigma, center, span


def run_propagate(cfg: ScenarioConfig, args) -> int:
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    sigma, center, span = _propagation_setup(cfg, system, drive)
    try:
        params_prop = PropagationParams.from_system(
            system, drive, cfg.slab_length, cfg.z_steps, cfg.t_steps, span)
    except ValueError as exc:  # the grid check, once t_span is known
        raise ConfigError(f"{exc}: lower t_steps, or raise z_steps or t_span") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
        env_in = gaussian_envelope(params_prop.t_grid, center, sigma,
                                   amplitude=complex(drive.Omega1))
        record = propagate_pulse(env_in, params_prop, drive, system)
    if not np.isfinite([record.measured_delay, record.measured_attenuation,
                        record.measured_phase]).all():
        raise EvaluationError(
            f"the pulse is not finite at slab_length = {fmt(cfg.slab_length)} m: the "
            "slab or its time grid leaves floating-point range; lower slab_length")
    slowdown = CONST.c * record.measured_delay / cfg.slab_length if cfg.slab_length else 0.0

    warning = None
    if record.measured_attenuation < ATTENUATION_FLOOR:
        warning = (f"attenuation {fmt(record.measured_attenuation)} is below the "
                   f"{fmt(ATTENUATION_FLOOR)} roundoff floor of the sampled input "
                   "(about e^-32), so the pulse was not measured: lower slab_length")
    elif not record.converged:
        warning = (f"grid too coarse: delay moved {fmt(100 * record.convergence_delta)}% "
                   "under refinement")

    params = {**resolved_params_dict(cfg), **params_prop.params_dict(),
              "pulse_sigma_s": sigma, "pulse_center_s": center, "t_span_s": span}
    csv_on, json_on = _formats(args)
    if csv_on:
        rows = zip(record.t_grid,
                   np.abs(record.envelope_in), np.angle(record.envelope_in),
                   np.abs(record.envelope_out), np.angle(record.envelope_out))
        write_csv(args.out / "pulse.csv",
                  ["t_s", "env_in_abs", "env_in_arg", "env_out_abs", "env_out_arg"],
                  rows, params)
    if json_on:
        payload = {
            "delay_s": record.measured_delay,
            "attenuation": record.measured_attenuation,
            "phase_rad": record.measured_phase,
            "slowdown_factor": slowdown,
            "vg_over_c": 1.0 / slowdown if slowdown > 0 else 1.0,
            "grid": {"z_steps": params_prop.z_steps, "t_steps": params_prop.t_steps,
                     "dt_s": params_prop.dt, "dz_m": params_prop.dz},
            "converged": bool(record.converged),
            "convergence_delta": record.convergence_delta,
        }
        if warning:
            payload["warning"] = warning
        write_json(args.out / "pulse_summary.json", payload, params)
    print(f"propagate: delay = {fmt(record.measured_delay)} s, "
          f"attenuation = {fmt(record.measured_attenuation)}, "
          f"slowdown factor = {fmt(slowdown)}")
    if warning:
        print(f"propagate: WARNING {warning}", file=sys.stderr)
    return 0


def run_validate(cfg: ScenarioConfig, args) -> int:
    sys.stdout.write(serialize_config(cfg))
    return 0


_RUNNERS = {
    "spectrum": run_spectrum,
    "sweep": run_sweep,
    "levels": run_levels,
    "propagate": run_propagate,
    "validate": run_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _RUNNERS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # EvaluationError, SingularSteadyStateError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
