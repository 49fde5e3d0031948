"""Command-line orchestration of spectra, sweeps, level tables and pulses.

One subcommand per entry of ``_COMMANDS``.  Outputs are CSV and/or JSON
shaped for external plotting tools, one dependent variable per column,
byte-identical across reruns of the same configuration, and written only
once every table is computed.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (no file written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import sys
from pathlib import Path

from .config import (ConfigError, ScenarioConfig, parse_config,
                     resolved_params_dict, serialize_config, spectrum_stem)
from .constants import CONST
from .medium import FieldDrive, LadderSystem
from .output import fmt, render, write_csv, write_json

# Each kernel is imported on first use, through the package root, so
# `validate` loads no numerical module, and numpy comes with the first
# kernel route that uses it.  The runners look each kernel up on `_cli` at
# call time, so a wrapper bound here from outside (the benchmark's traced
# launch does so) is the one that runs.
_KERNELS = ("compute_spectrum", "sweep_control", "window_metrics", "level_table",
            "propagate_pulse")
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exciton-eit", description=(
        "EIT and slow-light calculations for a Rydberg-exciton ladder medium"))
    parser.add_argument("--config", type=Path, default=None,
                        help="configuration file (missing keys take built-in defaults)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both",
                        help="output formats to emit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _load_config(path: Path | None) -> ScenarioConfig:
    """The config file at ``path``; without one, the built-in defaults."""
    try:
        text = "" if path is None else path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _write(args, params: dict, files: dict) -> None:
    """Write each of ``files`` (name -> table) whose extension ``--format`` selects."""
    for name, content in files.items():
        kind = name.rpartition(".")[2]
        if args.format in (kind, "both"):
            (write_csv if kind == "csv" else write_json)(args.out / name, content, params)


# the config keys every susceptibility kernel reads
_LADDER_KEYS = ("omega_ab", "gamma_ab", "gamma_bc", "N", "dipole_ab_sq", "delta1", "delta2")


def _numerical(*keys: str):
    """The runner with a kernel's value out of range (``OutOfRangeError``,
    which every kernel raises with one message on either carrier) re-raised
    as an ArithmeticError (exit 3) that names ``keys``, the config keys the
    command's kernel reads.  Any other ``EvaluationError`` (an exact pole,
    say) gives its own message.  Each kernel keeps numpy's fault policy
    itself, so no command sets numpy's error state."""
    def wrap(runner):
        @functools.wraps(runner)
        def strict(cfg: ScenarioConfig, args) -> int:
            from .susceptibility import OutOfRangeError

            try:
                return runner(cfg, args)
            except OutOfRangeError as exc:
                raise ArithmeticError(f"{exc}: bring {', '.join(keys)} back into range") from None
        return strict
    return wrap


def _out_of_range(keys: tuple[str, ...]) -> ArithmeticError:
    return ArithmeticError("a result leaves floating-point range: bring "
                           f"{', '.join(keys)} back into range")


@contextlib.contextmanager
def _naming(*keys: str):
    """Report a Python float overflow (an OverflowError, such as ``x ** 2``
    past the float range) as a numerical failure that names ``keys``."""
    try:
        yield
    except OverflowError:
        raise _out_of_range(keys) from None


def _linspace(lo: float, hi: float, points: int) -> list[float]:
    """``np.linspace(lo, hi, points).tolist()``, bit for bit, in Python floats:
    lo + i step with step = (hi - lo)/(points - 1), or lo + (i/(points - 1))
    (hi - lo) where that step underflows to 0, and the last point hi."""
    span, div = hi - lo, points - 1
    if div <= 0:
        return [lo + 0.0 * span][:points]
    step = span / div
    if step == 0:
        return [lo + (i / div) * span for i in range(div)] + [hi]
    return [lo + i * step for i in range(div)] + [hi]


def _grid(lo: float, hi: float, points: int, keys: tuple[str, ...], floats: bool):
    """``points`` evenly spaced values from ``lo`` to ``hi``: a list by
    ``_linspace`` if ``floats``, else ``np.linspace``'s array, with the same
    bits.  A span that overflows is a numerical failure, and a grid that
    rounding leaves with repeated points a configuration error, each
    naming ``keys``."""
    if not math.isfinite(hi - lo):
        raise _out_of_range(keys)
    if floats:
        grid = _linspace(lo, hi, points)
        distinct = all(a < b for a, b in zip(grid, grid[1:]))
    else:
        import numpy as np

        grid = np.linspace(lo, hi, points)
        distinct = bool((grid[1:] > grid[:-1]).all())
    if not distinct:
        raise ConfigError(f"{', '.join(keys)} give {points} grid points from {fmt(lo)} "
                          f"to {fmt(hi)} rad/s that rounding does not keep distinct", keys=keys)
    return grid


@_numerical(*_LADDER_KEYS, "omega_half_span", "spectrum_omega2")
@_naming("spectrum_omega2")
def run_spectrum(cfg: ScenarioConfig, args) -> int:
    from .susceptibility import in_floats

    system = cfg.build_system()
    center = cfg.delta1 - cfg.delta2   # the two-photon resonance, for every Omega2
    # in Python floats unless the values of all tables, one grid per
    # control field, pass the limit
    grid = _grid(center - cfg.omega_half_span, center + cfg.omega_half_span,
                 cfg.omega_points, ("delta1", "delta2", "omega_half_span", "omega_points"),
                 in_floats(cfg.omega_points * len(cfg.spectrum_omega2)))
    tables = [(om2, _cli.compute_spectrum(system, cfg.build_drive(system, Omega2=om2), grid))
              for om2 in cfg.spectrum_omega2]
    omega = render({"omega_rad_s": grid})   # every table's grid, rendered once
    for om2, table in tables:
        columns = {**omega, **render({"chi_re": table.chi_re, "chi_im": table.chi_im,
                                      "n_g": table.n_g})}
        stem = spectrum_stem(om2)
        _write(args, {**resolved_params_dict(cfg), "Omega2_this_run": om2},
               {f"{stem}.csv": columns, f"{stem}.json": columns})
        print(f"spectrum: Omega2 = {fmt(om2)} rad/s -> {stem}")
    return 0


@_numerical(*_LADDER_KEYS, "omega2_min", "omega2_max")
@_naming("omega2_min", "omega2_max")
def run_sweep(cfg: ScenarioConfig, args) -> int:
    from .susceptibility import in_floats

    system = cfg.build_system()
    grid = _grid(cfg.omega2_min, cfg.omega2_max, cfg.omega2_points,
                 ("omega2_min", "omega2_max", "omega2_points"), in_floats(cfg.omega2_points))
    sweep = _cli.sweep_control(system, cfg.build_drive(system), grid)
    columns = render({"omega2_rad_s": sweep.omega2_grid, "ng_center": sweep.ng_center,
                      "chi_im_center": sweep.chi_im_center})
    _write(args, resolved_params_dict(cfg), {"sweep.csv": columns, "sweep.json": {
        **columns, "argmax_omega2_rad_s": sweep.argmax_omega2, "ng_max": sweep.ng_max}})
    print(f"sweep: argmax Omega2 = {fmt(sweep.argmax_omega2)} rad/s, "
          f"max n_g(center) = {fmt(sweep.ng_max)}")
    return 0


@_naming("E_gap", "rydberg_energy", "bohr_radius", "gamma_aniso", "field_strength",
         "damping_n2", "damping_n10")
def run_levels(cfg: ScenarioConfig, args) -> int:
    params_model = cfg.build_level_params()
    rows = _cli.level_table(params_model, n_max=cfg.levels_n_max, l_max=cfg.levels_l_max)
    if not all(math.isfinite(x) for r in rows
               for x in (r.energy.real * 1e3, -2e3 * r.energy.imag)):
        raise OverflowError("a level energy or width is not finite")
    columns = render({"n": [r.n for r in rows], "l": [r.l for r in rows],
                      "m": [r.m for r in rows], "eta": [r.eta for r in rows],
                      "E_real_meV": [r.energy.real * 1e3 for r in rows],
                      "E_imag_meV": [r.energy.imag * 1e3 for r in rows],
                      "branch": [r.branch for r in rows]})
    _write(args, resolved_params_dict(cfg), {
        "levels.csv": columns,
        "levels.json": {"rows": [dict(zip(columns, row)) for row in zip(*columns.values())]}})
    for r in rows:
        if r.branch in ("2P", "10S"):
            print(f"levels: {r.branch} branch at {fmt(r.energy.real * 1e3)} meV "
                  f"(width {fmt(-2e3 * r.energy.imag)} meV)")
    return 0


def _propagation_setup(cfg: ScenarioConfig, system: LadderSystem, drive: FieldDrive):
    """Pulse sizing: duration defaults to 10x the inverse window width.

    The pulse starts 9 sigma into the grid so the turn-on truncation sits
    far below the transmitted amplitude even for optically thick slabs.
    """
    metrics = _cli.window_metrics(system, drive)
    sigma = cfg.pulse_sigma or 10.0 / (metrics.width if metrics.width > 0
                                       else max(system.gamma_ab, 1.0))
    delay_guess = (cfg.slab_length * max(metrics.ng_center, 1.0) / CONST.c
                   if system.N > 0 else 0.0)
    span = cfg.t_span if cfg.t_span is not None else 18.0 * sigma + 2.0 * delay_guess
    return sigma, 9.0 * sigma, span


@_numerical(*_LADDER_KEYS, "Omega1", "Omega2", "slab_length", "t_steps", "t_span",
            "pulse_sigma")
@_naming("Omega2")
def run_propagate(cfg: ScenarioConfig, args) -> int:
    from .propagation import (ATTENUATION_FLOOR, LEAK_LIMIT, PropagationParams,
                              gaussian_envelope, in_floats)
    from .susceptibility import EvaluationError

    system = cfg.build_system()
    drive = cfg.build_drive(system)
    sigma, center, span = _propagation_setup(cfg, system, drive)
    params_prop = PropagationParams.from_system(
        system, drive, cfg.slab_length, cfg.z_steps, cfg.t_steps, span)
    # on lists, so the pulse runs in Python floats, at delta2 = 0 (off it the
    # window's quartic has loaded numpy) while the padded FFT is within the limit
    floats = cfg.delta2 == 0 and in_floats(cfg.t_steps)
    try:
        env_in = gaussian_envelope(params_prop.t_list if floats else params_prop.t_grid,
                                   center, sigma, amplitude=complex(drive.Omega1))
        record = _cli.propagate_pulse(env_in, params_prop, drive, system)
        observables = (record.measured_delay, record.measured_attenuation,
                       record.measured_phase)
    except (OverflowError, ZeroDivisionError):   # in Python floats; numpy gives inf or nan
        observables = (math.nan,)
    if not all(map(math.isfinite, (center, *observables))):   # 9 sigma may overflow
        raise EvaluationError(
            f"the pulse is not finite at slab_length = {fmt(cfg.slab_length)} m: the "
            "slab or its time grid leaves floating-point range; lower slab_length, "
            "or bring t_span, t_steps and pulse_sigma back into range")
    slowdown = CONST.c * record.measured_delay / cfg.slab_length if cfg.slab_length else 0.0

    warning = None
    if record.measured_attenuation < ATTENUATION_FLOOR:
        warning = (f"attenuation {fmt(record.measured_attenuation)} is below the "
                   f"{fmt(ATTENUATION_FLOOR)} roundoff floor of the sampled input "
                   "(about e^-32), so the pulse was not measured: lower slab_length")
    elif not record.converged:
        leaks = [(record.band_share, "of the input or output spectrum lies above "
                  "half the Nyquist frequency: raise t_steps or pulse_sigma"),
                 (record.spill_share, "of the output runs past the window's end: "
                  "raise t_span")]
        warning = "grid too coarse: " + "; ".join(
            f"{fmt(100 * share)}% {what}" for share, what in leaks if share > LEAK_LIMIT)

    params = {**resolved_params_dict(cfg), **params_prop.params_dict(),
              "pulse_sigma_s": sigma, "pulse_center_s": center, "t_span_s": span}
    summary = {
        "delay_s": record.measured_delay,
        "attenuation": record.measured_attenuation,
        "phase_rad": record.measured_phase,
        "slowdown_factor": slowdown,
        "vg_over_c": 1.0 / (1.0 + slowdown) if slowdown != -1.0 else math.inf,
        "grid": {"z_steps": params_prop.z_steps, "t_steps": params_prop.t_steps,
                 "dt_s": params_prop.dt},
        "converged": bool(record.converged),
        "convergence_delta": record.convergence_delta,
        **({"warning": warning} if warning else {}),
    }
    columns = {"t_s": record.t_grid}
    if not floats:
        import numpy as np
    for name, envelope in (("env_in", record.envelope_in), ("env_out", record.envelope_out)):
        columns[f"{name}_abs"], columns[f"{name}_arg"] = (
            (list(map(abs, envelope)), list(map(cmath.phase, envelope))) if floats
            else (np.abs(envelope), np.angle(envelope)))
    _write(args, params, {"pulse.csv": columns, "pulse_summary.json": summary})
    print(f"propagate: delay = {fmt(record.measured_delay)} s, "
          f"attenuation = {fmt(record.measured_attenuation)}, "
          f"slowdown factor = {fmt(slowdown)}")
    if warning:
        print(f"propagate: WARNING {warning}", file=sys.stderr)
    return 0


def run_validate(cfg: ScenarioConfig, args) -> int:
    sys.stdout.write(serialize_config(cfg))
    return 0


# command -> (runner, help text), in the order --help lists them
_COMMANDS = {
    "spectrum": (run_spectrum, "probe spectra for each configured control field"),
    "sweep": (run_sweep, "window-center group index and absorption vs control field"),
    "levels": (run_levels, "level table and field-mixed branch energies"),
    "propagate": (run_propagate, "pulse propagation through the slab"),
    "validate": (run_validate, "parse the config and echo the resolved values"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_load_config(args.config), args)
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
