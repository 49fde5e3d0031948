"""Scenario configuration: a strict line-oriented key = value unit format.

Grammar (one entry per line, '#' starts a comment):

    key = number unit
    key = number, number, ... unit     (list-valued keys)
    key = integer                      (grid-size counts, no unit)
    key = word                         (enumerated string keys)

Every physical quantity must carry an explicit unit token; bare numbers
are rejected for physical keys.  Unknown keys, malformed numbers and
wrong-dimension units are parse errors naming the line and column.
Missing keys fall back to the built-in defaults, which reproduce the
working Cu2O parameter set exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .constants import ev_to_angular_frequency
from .medium import FieldDrive, LadderSystem
from .output import fmt

if TYPE_CHECKING:
    from .levels import LevelModelParams


class ConfigError(ValueError):
    """Configuration parse or validation failure.

    ``keys`` names the config keys a validation check read, so that the
    parser can point at the line that set them.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 keys: tuple[str, ...] = ()):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column
        self.keys = keys


# unit token -> (dimension, factor to canonical); each dimension's
# canonical unit is the one with factor 1.0
_UNITS = {
    "rad/s": ("frequency", 1.0),
    "krad/s": ("frequency", 1e3),
    "Mrad/s": ("frequency", 1e6),
    "Grad/s": ("frequency", 1e9),
    "Trad/s": ("frequency", 1e12),
    "eV": ("energy", 1.0),
    "meV": ("energy", 1e-3),
    "ueV": ("energy", 1e-6),
    "m": ("length", 1.0),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "ps": ("time", 1e-12),
    "m^-3": ("density", 1.0),
    "cm^-3": ("density", 1e6),
    "V/m": ("field", 1.0),
    "V/cm": ("field", 1e2),
    "C2m2": ("dipole_sq", 1.0),
    "dimensionless": ("dimensionless", 1.0),
}
_CANONICAL_UNIT = {kind: unit for unit, (kind, factor) in _UNITS.items() if factor == 1.0}


def _convert(value: float, unit: str, dimension: str) -> float:
    kind, factor = _UNITS[unit]
    if kind == dimension:
        return value * factor
    if dimension == "frequency" and kind == "energy":  # E/hbar
        return ev_to_angular_frequency(value * factor)
    raise KeyError(unit)


def _key(default, dimension: str | None = None, name: str | None = None):
    """A config key: its default in canonical units, the dimension its
    unit must measure (None for unit-less integer counts) and, when it
    differs from the attribute, its name in config files."""
    return field(default=default, metadata={"dimension": dimension, "name": name})


@dataclass
class ScenarioConfig:
    """Fully resolved scenario parameters in canonical units.

    The field order is the key order of ``serialize_config`` and of the
    provenance written beside every output.
    """

    # medium
    omega_ab: float = _key(3.266576e15, "frequency")
    omega_ac: float = _key(3.1402e13, "frequency")
    gamma_ab: float = _key(4.5573e10, "frequency")
    gamma_bc: float = _key(7.596e9, "frequency")
    gamma_ac: float | None = _key(None, "frequency")   # None = gamma_ab + gamma_bc
    density: float = _key(6.2422e25, "density", name="N")
    dipole_ab_sq: float = _key(0.334e-60, "dipole_sq")
    # drive
    Omega1: float = _key(1e6, "frequency")
    Omega2: float = _key(2.5e10, "frequency")
    delta1: float = _key(0.0, "frequency")
    delta2: float = _key(0.0, "frequency")
    # spectrum / sweep grids
    omega_half_span: float = _key(2e11, "frequency")
    omega_points: int = _key(2001)
    omega2_min: float = _key(1e9, "frequency")
    omega2_max: float = _key(1e11, "frequency")
    omega2_points: int = _key(199)
    spectrum_omega2: tuple = _key((0.0, 1e10, 2.5e10, 5e10), "frequency")
    # level model (Cu2O)
    E_gap: float = _key(2.17208, "energy")
    rydberg_energy: float = _key(0.086131, "energy")
    bohr_radius: float = _key(1.1e-9, "length")
    gamma_aniso: float = _key(1.0, "dimensionless")
    eps_b: float = _key(7.5, "dimensionless")
    delta_lt: float = _key(1.25e-3, "energy")
    r0: float = _key(9.04e-9, "length")
    field_strength: float = _key(1500.0, "field")
    damping_n2: float = _key(10e-6, "energy")
    damping_n10: float = _key(60e-6, "energy")
    levels_n_max: int = _key(10)
    levels_l_max: int = _key(1)
    # propagation; the slab is applied exactly in frequency space, so
    # t_steps is the only resolution.  z_steps is parsed, validated and
    # echoed but does not change the envelope; it stays because the
    # benchmark's config text sets it and its calls pass it on
    slab_length: float = _key(30e-6, "length")
    z_steps: int = _key(480)
    t_steps: int = _key(2400)
    pulse_sigma: float | None = _key(None, "time")   # None = 10 / window width
    t_span: float | None = _key(None, "time")        # None = sized from the pulse

    def build_system(self) -> LadderSystem:
        return LadderSystem.from_frequencies(
            omega_ab=self.omega_ab,
            omega_ac=self.omega_ac,
            gamma_ab=self.gamma_ab,
            gamma_bc=self.gamma_bc,
            N=self.density,
            dipole_ab_sq=self.dipole_ab_sq,
            gamma_ac=self.gamma_ac,
        )

    def build_drive(self, system: LadderSystem, Omega2: float | None = None) -> FieldDrive:
        return FieldDrive.from_detunings(
            system,
            Omega1=self.Omega1,
            Omega2=self.Omega2 if Omega2 is None else Omega2,
            delta1=self.delta1,
            delta2=self.delta2,
        )

    def build_level_params(self) -> LevelModelParams:
        from .levels import LevelModelParams   # only `levels` reads the level model
        return LevelModelParams(
            E_gap=self.E_gap,
            rydberg=self.rydberg_energy,
            bohr_radius=self.bohr_radius,
            gamma_aniso=self.gamma_aniso,
            eps_b=self.eps_b,
            delta_lt=self.delta_lt,
            r0=self.r0,
            F=self.field_strength,
            damping_ev={
                (2, 0, 0): self.damping_n2, (2, 1, 0): self.damping_n2,
                (10, 0, 0): self.damping_n10, (10, 1, 0): self.damping_n10,
            },
        )

    def validate(self) -> None:
        """Reject out-of-range values; each error names the config keys checked."""
        if self.omega2_max <= self.omega2_min:
            raise ConfigError("omega2 grid must be increasing (omega2_min < omega2_max)",
                              keys=("omega2_min", "omega2_max"))
        for key in ("omega_points", "omega2_points", "z_steps", "levels_n_max"):
            if getattr(self, _KEYS[key][1]) < 1:
                raise ConfigError(f"{key} must be >= 1", keys=(key,))
        if self.t_steps < 8:
            raise ConfigError("t_steps must be >= 8", keys=("t_steps",))
        # the pulse kernel keeps ~330 B per step, and a table ~300 B per row
        for key in ("t_steps", "omega_points", "omega2_points"):
            if getattr(self, _KEYS[key][1]) > 2**20:
                raise ConfigError(f"{key} must be <= 1048576", keys=(key,))
        if self.levels_l_max < 0:
            raise ConfigError("levels_l_max must be >= 0", keys=("levels_l_max",))
        if _level_rows(self.levels_n_max, self.levels_l_max) > 2**20:
            raise ConfigError("levels_n_max and levels_l_max give a level table of more "
                              "than 1048576 rows", keys=("levels_n_max", "levels_l_max"))
        for key in ("N", "gamma_ab", "gamma_bc", "gamma_ac", "dipole_ab_sq", "slab_length"):
            value = getattr(self, _KEYS[key][1])
            if value is not None and value < 0:
                raise ConfigError(f"{key} must be non-negative", keys=(key,))
        if not 0 < self.omega_ac < self.omega_ab:
            raise ConfigError("omega_ac must lie in (0, omega_ab): the ladder "
                              "needs E_a > E_c > E_b", keys=("omega_ab", "omega_ac"))
        for key in ("gamma_aniso", "bohr_radius", "rydberg_energy", "r0",
                    "omega_half_span", "pulse_sigma", "t_span"):
            value = getattr(self, _KEYS[key][1])
            if value is not None and value <= 0:
                raise ConfigError(f"{key} must be positive", keys=(key,))
        # `levels.anisotropy_eta` is within 1e-10 of a 40-digit quadrature up to l = 32
        if self.gamma_aniso != 1 and min(self.levels_l_max, self.levels_n_max - 1) > 32:
            raise ConfigError("levels_l_max above 32 needs gamma_aniso = 1: the anisotropy "
                              "average is accurate only up to l = 32",
                              keys=("levels_l_max", "gamma_aniso"))
        stems: dict[str, float] = {}
        for om2 in self.spectrum_omega2:
            stem = spectrum_stem(om2)
            if stem in stems:
                raise ConfigError(
                    f"spectrum_omega2 values {stems[stem]:.17g} and {om2:.17g} rad/s "
                    f"would both write '{stem}'", keys=("spectrum_omega2",))
            stems[stem] = om2


def _level_rows(n_max: int, l_max: int) -> int:
    """Bare rows of the level table: (l + 1) values of m for each
    l <= min(l_max, n - 1) and n <= n_max."""
    full = min(n_max, l_max + 1)   # the shells that hold every l < n
    return (full * (full + 1) * (full + 2) // 6
            + (n_max - full) * (l_max + 1) * (l_max + 2) // 2)


def spectrum_stem(omega2: float) -> str:
    """Output file stem of the spectrum at control Rabi frequency ``omega2``."""
    tag = format(omega2 / 1e9, "g").replace("-", "m").replace(".", "p")
    return f"spectrum_om2_{tag}Grads"


# config key -> (dimension, attribute), in field order
_KEYS: dict[str, tuple[str | None, str]] = {
    f.metadata["name"] or f.name: (f.metadata["dimension"], f.name)
    for f in fields(ScenarioConfig)}
_LIST_KEYS = {f.metadata["name"] or f.name
              for f in fields(ScenarioConfig) if isinstance(f.default, tuple)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text; missing keys take the built-in defaults.

    A value that ``validate`` rejects is reported at the line and column
    of its key (the later one, when a check reads two keys).
    """
    values: dict[str, object] = {}
    located: dict[str, tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value unit'", lineno, 1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        key_col = raw.index(key) + 1 if key and key in raw else 1
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno, key_col)
        if key in located:
            raise ConfigError(f"duplicate key '{key}'", lineno, key_col)
        located[key] = (lineno, key_col)
        dimension, attr = _KEYS[key]
        value_col = raw.index("=") + 2
        values[attr] = _parse_value(key, dimension, value_part, lineno, value_col)
    cfg = ScenarioConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        where = [located[key] for key in exc.keys if key in located]
        if not where:
            raise
        raise ConfigError(exc.message, *max(where), keys=exc.keys) from None
    return cfg


def _parse_value(key: str, dimension: str | None, value_part: str,
                 lineno: int, value_col: int):
    """The value of one entry, in canonical units."""
    tokens = value_part.replace(",", " , ").split()
    tokens = [t for t in tokens if t != ","]
    if not tokens:
        raise ConfigError(f"missing value for '{key}'", lineno, value_col)

    if dimension is None:
        if len(tokens) != 1:
            raise ConfigError(f"'{key}' takes a single integer", lineno, value_col)
        try:
            count = int(tokens[0])
        except ValueError:
            raise ConfigError(f"malformed integer '{tokens[0]}' for '{key}'",
                              lineno, _col_of(value_part, tokens, 0, value_col)) from None
        return count

    if len(tokens) < 2:
        raise ConfigError(
            f"'{key}' is a physical quantity and requires a unit suffix",
            lineno, value_col)
    unit = tokens[-1]
    numbers = tokens[:-1]
    if key not in _LIST_KEYS and len(numbers) != 1:
        raise ConfigError(f"'{key}' takes a single value", lineno, value_col)
    if unit not in _UNITS:
        raise ConfigError(f"unknown unit '{unit}' for '{key}'",
                          lineno, _col_of(value_part, tokens, len(numbers), value_col))
    values = []
    for i, tok in enumerate(numbers):
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"malformed number '{tok}' for '{key}'",
                              lineno, _col_of(value_part, tokens, i, value_col)) from None
    try:
        converted = [_convert(v, unit, dimension) for v in values]
    except KeyError:
        raise ConfigError(
            f"unit '{unit}' does not measure a {dimension} (key '{key}')",
            lineno, _col_of(value_part, tokens, len(numbers), value_col)) from None
    for i, value in enumerate(converted):
        if not math.isfinite(value):  # "nan", "inf", or overflow in float() or the unit
            raise ConfigError(f"malformed number '{numbers[i]}' for '{key}': "
                              "values must be finite",
                              lineno, _col_of(value_part, tokens, i, value_col))
    return tuple(converted) if key in _LIST_KEYS else converted[0]


def _col_of(value_part: str, tokens: list[str], index: int, value_col: int) -> int:
    """Column of ``tokens[index]``, found after each token before it, so it
    cannot land in the key or inside an earlier token."""
    end = 0
    for tok in tokens[:index + 1]:
        end = value_part.index(tok, end) + len(tok)
    return value_col + end - len(tokens[index])


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config to text that parses back to an equal configuration."""
    lines = ["# resolved scenario configuration"]
    for key, (dimension, attr) in _KEYS.items():
        value = getattr(cfg, attr)
        if value is None:
            continue
        if dimension is None:
            lines.append(f"{key} = {int(value)}")
        elif key in _LIST_KEYS:
            body = ", ".join(fmt(v) for v in value)
            lines.append(f"{key} = {body} {_CANONICAL_UNIT[dimension]}")
        else:
            lines.append(f"{key} = {fmt(value)} {_CANONICAL_UNIT[dimension]}")
    return "\n".join(lines) + "\n"


def resolved_params_dict(cfg: ScenarioConfig) -> dict:
    """Flat provenance mapping of every resolved parameter."""
    out = {}
    for key, (_, attr) in _KEYS.items():
        value = getattr(cfg, attr)
        if key == "gamma_ac" and value is None:
            value = cfg.build_system().gamma_ac
        if value is not None:
            out[key] = list(value) if key in _LIST_KEYS else value
    return out
