"""The records' contract: every record is an immutable named tuple, the
checked ones check on every construction, and the config's key table
follows its field declarations."""

import pytest

from exciton_eit import (CONST, ScenarioConfig, compute_spectrum, level_table,
                         solve_secular, sweep_control, window_metrics)
from exciton_eit.config import _KEYS
from exciton_eit.levels import LevelModelParams


def records():
    """One of each record the package builds, at the default config."""
    cfg = ScenarioConfig()
    system = cfg.build_system()
    drive = cfg.build_drive(system)
    params = cfg.build_level_params()
    return [CONST, cfg, system, drive, params, window_metrics(system, drive),
            compute_spectrum(system, drive, [-cfg.gamma_ab, cfg.gamma_ab]),
            sweep_control(system, drive, [cfg.omega2_min, cfg.omega2_max]),
            solve_secular(params.E_gap, params.E_gap, params.F),
            level_table(params, cfg.levels_n_max, cfg.levels_l_max)[0]]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_a_record_rejects_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):   # no instance dict either
        record.extra = None


@pytest.mark.parametrize("name", ["gamma_aniso", "bohr_radius", "rydberg", "r0"])
@pytest.mark.parametrize("sign", [0.0, -1.0])
def test_level_params_reject_a_nonpositive_scale(name, sign):
    fields = ScenarioConfig().build_level_params()._asdict()
    fields[name] *= sign
    with pytest.raises(ValueError, match="must be positive"):
        LevelModelParams(**fields)
    with pytest.raises(ValueError, match="must be positive"):
        LevelModelParams(*fields.values())


def test_config_keys_follow_the_field_declarations():
    # one key per field, in field order; a count (int default) alone has no
    # dimension, and only the density is named apart from its attribute
    assert [attr for _, attr in _KEYS.values()] == list(ScenarioConfig._fields)
    defaults = ScenarioConfig._field_defaults
    assert all((dimension is None) == isinstance(defaults[attr], int)
               for dimension, attr in _KEYS.values())
    assert {key: attr for key, (_, attr) in _KEYS.items() if key != attr} == {"N": "density"}
