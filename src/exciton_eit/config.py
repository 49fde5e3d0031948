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

from dataclasses import dataclass

from .constants import CONST
from .levels import LevelModelParams
from .medium import FieldDrive, LadderSystem


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


# unit token -> (dimension, factor to canonical)
# canonical units: rad/s, eV, m, s, m^-3, V/m, C^2 m^2, dimensionless
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

# energies are accepted wherever a frequency is expected, via E/hbar
_EV_TO_RADS = CONST.e_charge / CONST.hbar


def _convert(value: float, unit: str, dimension: str) -> float:
    kind, factor = _UNITS[unit]
    if kind == dimension:
        return value * factor
    if dimension == "frequency" and kind == "energy":
        return value * factor * _EV_TO_RADS
    raise KeyError(unit)


@dataclass
class ScenarioConfig:
    """Fully resolved scenario parameters in canonical units."""

    # medium
    omega_ab: float = 3.266576e15
    omega_ac: float = 3.1402e13
    gamma_ab: float = 4.5573e10
    gamma_bc: float = 7.596e9
    gamma_ac: float | None = None       # default gamma_ab + gamma_bc
    density: float = 6.2422e25          # m^-3
    dipole_ab_sq: float = 0.334e-60     # C^2 m^2; raw value, units by convention
    # drive
    Omega1: float = 1e6
    Omega2: float = 2.5e10
    delta1: float = 0.0
    delta2: float = 0.0
    # spectrum / sweep grids
    omega_half_span: float = 2e11
    omega_points: int = 2001
    omega2_min: float = 1e9
    omega2_max: float = 1e11
    omega2_points: int = 199
    spectrum_omega2: tuple = (0.0, 1e10, 2.5e10, 5e10)
    # level model
    E_gap: float = 2.17208              # eV
    rydberg_energy: float = 0.086131    # eV
    bohr_radius: float = 1.1e-9         # m
    gamma_aniso: float = 1.0
    eps_b: float = 7.5
    delta_lt: float = 1.25e-3           # eV
    r0: float = 9.04e-9                 # m
    field_strength: float = 1500.0      # V/m
    damping_n2: float = 10e-6           # eV
    damping_n10: float = 60e-6          # eV
    levels_n_max: int = 10
    levels_l_max: int = 1
    # propagation; the slab is applied exactly in frequency space, so
    # z_steps is parsed, validated and echoed but does not change the
    # envelope, and t_steps is the only resolution
    slab_length: float = 30e-6
    z_steps: int = 480
    t_steps: int = 2400
    pulse_sigma: float | None = None    # s; None = 10 / window width
    t_span: float | None = None         # s; None = sized from the pulse

    def resolved_gamma_ac(self) -> float:
        return self.gamma_ac if self.gamma_ac is not None else self.gamma_ab + self.gamma_bc

    def build_system(self) -> LadderSystem:
        return LadderSystem.from_frequencies(
            omega_ab=self.omega_ab,
            omega_ac=self.omega_ac,
            gamma_ab=self.gamma_ab,
            gamma_bc=self.gamma_bc,
            N=self.density,
            dipole_ab_sq=self.dipole_ab_sq,
            gamma_ac=self.resolved_gamma_ac(),
        )

    def build_drive(self, system: LadderSystem | None = None,
                    Omega2: float | None = None) -> FieldDrive:
        system = system or self.build_system()
        return FieldDrive.from_detunings(
            system,
            Omega1=self.Omega1,
            Omega2=self.Omega2 if Omega2 is None else Omega2,
            delta1=self.delta1,
            delta2=self.delta2,
        )

    def build_level_params(self) -> LevelModelParams:
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
        if self.levels_l_max < 0:
            raise ConfigError("levels_l_max must be >= 0", keys=("levels_l_max",))
        for key in ("N", "gamma_ab", "gamma_bc", "gamma_ac", "dipole_ab_sq", "slab_length"):
            value = getattr(self, _KEYS[key][1])
            if value is not None and value < 0:
                raise ConfigError(f"{key} must be non-negative", keys=(key,))
        if not 0 < self.omega_ac < self.omega_ab:
            raise ConfigError("omega_ac must lie in (0, omega_ab): the ladder "
                              "needs E_a > E_c > E_b", keys=("omega_ab", "omega_ac"))
        for key in ("gamma_aniso", "bohr_radius", "rydberg_energy", "r0",
                    "pulse_sigma", "t_span"):
            value = getattr(self, _KEYS[key][1])
            if value is not None and value <= 0:
                raise ConfigError(f"{key} must be positive", keys=(key,))
        stems: dict[str, float] = {}
        for om2 in self.spectrum_omega2:
            stem = spectrum_stem(om2)
            if stem in stems:
                raise ConfigError(
                    f"spectrum_omega2 values {stems[stem]:.17g} and {om2:.17g} rad/s "
                    f"would both write '{stem}'", keys=("spectrum_omega2",))
            stems[stem] = om2


def spectrum_stem(omega2: float) -> str:
    """Output file stem of the spectrum at control Rabi frequency ``omega2``."""
    tag = format(omega2 / 1e9, "g").replace("-", "m").replace(".", "p")
    return f"spectrum_om2_{tag}Grads"


# key -> (dimension, attribute); dimension None marks unit-less integer keys
_KEYS: dict[str, tuple[str | None, str]] = {
    "omega_ab": ("frequency", "omega_ab"),
    "omega_ac": ("frequency", "omega_ac"),
    "gamma_ab": ("frequency", "gamma_ab"),
    "gamma_bc": ("frequency", "gamma_bc"),
    "gamma_ac": ("frequency", "gamma_ac"),
    "N": ("density", "density"),
    "dipole_ab_sq": ("dipole_sq", "dipole_ab_sq"),
    "Omega1": ("frequency", "Omega1"),
    "Omega2": ("frequency", "Omega2"),
    "delta1": ("frequency", "delta1"),
    "delta2": ("frequency", "delta2"),
    "omega_half_span": ("frequency", "omega_half_span"),
    "omega_points": (None, "omega_points"),
    "omega2_min": ("frequency", "omega2_min"),
    "omega2_max": ("frequency", "omega2_max"),
    "omega2_points": (None, "omega2_points"),
    "spectrum_omega2": ("frequency", "spectrum_omega2"),
    "E_gap": ("energy", "E_gap"),
    "rydberg_energy": ("energy", "rydberg_energy"),
    "bohr_radius": ("length", "bohr_radius"),
    "gamma_aniso": ("dimensionless", "gamma_aniso"),
    "eps_b": ("dimensionless", "eps_b"),
    "delta_lt": ("energy", "delta_lt"),
    "r0": ("length", "r0"),
    "field_strength": ("field", "field_strength"),
    "damping_n2": ("energy", "damping_n2"),
    "damping_n10": ("energy", "damping_n10"),
    "levels_n_max": (None, "levels_n_max"),
    "levels_l_max": (None, "levels_l_max"),
    "slab_length": ("length", "slab_length"),
    "z_steps": (None, "z_steps"),
    "t_steps": (None, "t_steps"),
    "pulse_sigma": ("time", "pulse_sigma"),
    "t_span": ("time", "t_span"),
}

_LIST_KEYS = {"spectrum_omega2"}


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
        values[attr] = _parse_value(key, dimension, value_part, raw, lineno, value_col)
    cfg = ScenarioConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        where = [located[key] for key in exc.keys if key in located]
        if not where:
            raise
        raise ConfigError(exc.message, *max(where), keys=exc.keys) from None
    return cfg


def _parse_value(key: str, dimension: str | None, value_part: str, raw: str,
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
                              lineno, _col_of(raw, tokens[0], value_col)) from None
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
                          lineno, _col_of(raw, unit, value_col))
    values = []
    for tok in numbers:
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"malformed number '{tok}' for '{key}'",
                              lineno, _col_of(raw, tok, value_col)) from None
    try:
        converted = [_convert(v, unit, dimension) for v in values]
    except KeyError:
        raise ConfigError(
            f"unit '{unit}' does not measure a {dimension} (key '{key}')",
            lineno, _col_of(raw, unit, value_col)) from None
    return tuple(converted) if key in _LIST_KEYS else converted[0]


def _col_of(raw: str, token: str, fallback: int) -> int:
    pos = raw.find(token)
    return pos + 1 if pos >= 0 else fallback


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config to text that parses back to an equal configuration."""
    lines = ["# resolved scenario configuration"]

    def num(x: float) -> str:
        return format(float(x), ".17g")

    for key, (dimension, attr) in _KEYS.items():
        value = getattr(cfg, attr)
        if value is None:
            continue
        if dimension is None:
            lines.append(f"{key} = {int(value)}")
        elif key in _LIST_KEYS:
            body = ", ".join(num(v) for v in value)
            lines.append(f"{key} = {body} {_canonical_unit(dimension)}")
        else:
            lines.append(f"{key} = {num(value)} {_canonical_unit(dimension)}")
    return "\n".join(lines) + "\n"


def _canonical_unit(dimension: str) -> str:
    return {
        "frequency": "rad/s",
        "energy": "eV",
        "length": "m",
        "time": "s",
        "density": "m^-3",
        "field": "V/m",
        "dipole_sq": "C2m2",
        "dimensionless": "dimensionless",
    }[dimension]


def resolved_params_dict(cfg: ScenarioConfig) -> dict:
    """Flat provenance mapping of every resolved parameter."""
    out = {}
    for key, (dimension, attr) in _KEYS.items():
        value = getattr(cfg, attr)
        if key == "gamma_ac" and value is None:
            value = cfg.resolved_gamma_ac()
        if value is None:
            continue
        if key in _LIST_KEYS:
            out[key] = list(value)
        else:
            out[key] = value
    return out
