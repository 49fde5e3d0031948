"""Configuration grammar, defaults and round-tripping."""

import pytest

from exciton_eit import (ConfigError, ScenarioConfig, parse_config,
                         serialize_config)


class TestDefaults:
    def test_empty_text_gives_working_defaults(self):
        cfg = parse_config("")
        assert cfg.omega_ab == 3.266576e15
        assert cfg.omega_ac == 3.1402e13
        assert cfg.gamma_ab == 4.5573e10
        assert cfg.gamma_bc == 7.596e9
        assert cfg.density == 6.2422e25
        assert cfg.dipole_ab_sq == 0.334e-60
        assert cfg.field_strength == 1500.0
        assert cfg.slab_length == 30e-6
        assert cfg.spectrum_omega2 == (0.0, 1e10, 2.5e10, 5e10)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# comment only\n\n   \nOmega2 = 10 Grad/s # inline\n")
        assert cfg.Omega2 == 1e10


class TestUnits:
    def test_energy_units_accepted_for_frequencies(self):
        cfg = parse_config("gamma_ab = 30 ueV\n")
        assert cfg.gamma_ab == pytest.approx(45.58e9, rel=5e-4)

    def test_frequency_prefixes(self):
        assert parse_config("Omega2 = 25 Grad/s\n").Omega2 == 25e9
        assert parse_config("Omega2 = 25000 Mrad/s\n").Omega2 == pytest.approx(25e9)
        assert parse_config("Omega2 = 0.025 Trad/s\n").Omega2 == pytest.approx(25e9)

    def test_density_and_length_and_field(self):
        cfg = parse_config("N = 6.2422e19 cm^-3\nslab_length = 30 um\n"
                           "field_strength = 15 V/cm\n")
        assert cfg.density == pytest.approx(6.2422e25)
        assert cfg.slab_length == pytest.approx(30e-6)
        assert cfg.field_strength == pytest.approx(1500.0)

    def test_dimensionless_requires_token(self):
        assert parse_config("eps_b = 7.5 dimensionless\n").eps_b == 7.5
        with pytest.raises(ConfigError):
            parse_config("eps_b = 7.5\n")

    def test_unknown_unit_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N = 1 banana\n")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not measure"):
            parse_config("N = 1 meV\n")

    def test_unitless_physical_entry_rejected(self):
        with pytest.raises(ConfigError, match="unit suffix"):
            parse_config("gamma_ab = 4.5e10\n")


class TestErrors:
    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("Omega2 = 25 Grad/s\nnonsense_key = 1 eV\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="malformed number"):
            parse_config("Omega2 = twelve Grad/s\n")

    @pytest.mark.parametrize("text, column", [("t_steps = t", 11), ("N = 1 N", 7)])
    def test_error_column_points_past_the_key(self, text, column):
        with pytest.raises(ConfigError, match=f"line 1, column {column}\\)"):
            parse_config(text + "\n")

    def test_malformed_integer(self):
        with pytest.raises(ConfigError, match="malformed integer"):
            parse_config("omega_points = 2.5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("Omega2 25 Grad/s\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("Omega2 = 1 Grad/s\nOmega2 = 2 Grad/s\n")

    def test_reversed_sweep_grid_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config("omega2_min = 50 Grad/s\nomega2_max = 10 Grad/s\n")

    def test_validation_error_points_at_the_later_key(self):
        with pytest.raises(ConfigError, match=r"\(line 3, column 1\)") as info:
            parse_config("omega2_min = 50 Grad/s\n# comment\nomega2_max = 10 Grad/s\n")
        assert info.value.line == 3
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("omega2_max = 10 Grad/s\nomega2_min = 50 Grad/s\n")

    def test_validation_error_locates_the_key_from_the_file(self):
        # omega2_max keeps its default, 100 Grad/s; only omega2_min is in the file
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("omega2_min = 200 Grad/s\n")

    def test_validation_error_without_a_file_has_no_location(self):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(omega2_min=2e11).validate()
        assert info.value.line is None and "line" not in str(info.value)

    def test_validation_error_names_the_config_key(self):
        with pytest.raises(ConfigError, match=r"^N must be non-negative \(line 2, column 3\)$"):
            parse_config("Omega2 = 1 Grad/s\n  N = -1 m^-3\n")

    def test_short_time_grid_rejected(self):
        with pytest.raises(ConfigError, match="t_steps must be >= 8"):
            parse_config("t_steps = 4\n")
        assert parse_config("t_steps = 8\n").t_steps == 8

    @pytest.mark.parametrize("values", ["1e10, 1e10", "1e10, 1.0000001e10"])
    def test_spectrum_file_collision_rejected(self, values):
        with pytest.raises(ConfigError, match="spectrum_om2_10Grads"):
            parse_config(f"spectrum_omega2 = {values} rad/s\n")

    @pytest.mark.parametrize("text, accepted", [
        ("levels_n_max = 34\nlevels_l_max = 33\ngamma_aniso = 3 dimensionless\n", False),
        ("levels_n_max = 200\nlevels_l_max = 70\ngamma_aniso = 0.5 dimensionless\n", False),
        ("levels_n_max = 33\nlevels_l_max = 90\ngamma_aniso = 3 dimensionless\n", True),
        ("levels_n_max = 34\nlevels_l_max = 33\n", True),
    ])
    def test_anisotropic_level_table_stops_at_l_32(self, text, accepted):
        # the orbitals the table holds run to min(levels_l_max, levels_n_max - 1);
        # past l = 32 the anisotropy average is not accurate, at gamma != 1 only
        if accepted:
            parse_config(text)
        else:
            with pytest.raises(ConfigError, match=r"levels_l_max above 32 .*\(line 3"):
                parse_config(text)

    def test_distinct_spectrum_stems_accepted(self):
        cfg = parse_config("spectrum_omega2 = -10, 10, 10.0001 Grad/s\n")
        assert len(cfg.spectrum_omega2) == 3


class TestLists:
    def test_spectrum_control_list(self):
        cfg = parse_config("spectrum_omega2 = 0, 10, 25, 50 Grad/s\n")
        assert cfg.spectrum_omega2 == (0.0, 1e10, 2.5e10, 5e10)

    def test_single_entry_list(self):
        cfg = parse_config("spectrum_omega2 = 25 Grad/s\n")
        assert cfg.spectrum_omega2 == (2.5e10,)

    def test_list_on_scalar_key_rejected(self):
        with pytest.raises(ConfigError, match="single value"):
            parse_config("Omega2 = 1, 2 Grad/s\n")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config("Omega2 = 42 Grad/s\ngamma_aniso = 0.7 dimensionless\n"
                           "pulse_sigma = 0.3 ns\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_default_round_trip(self):
        cfg = ScenarioConfig()
        cfg.validate()
        assert parse_config(serialize_config(cfg)) == cfg


class TestBuilders:
    def test_system_and_drive_construction(self):
        cfg = parse_config("")
        sys_ = cfg.build_system()
        drv = cfg.build_drive(sys_)
        assert sys_.gamma_ac == pytest.approx(cfg.gamma_ab + cfg.gamma_bc)
        assert drv.Omega2 == cfg.Omega2
        assert drv.delta1 == 0.0

    def test_level_params_damping_table(self):
        cfg = parse_config("damping_n2 = 12 ueV\ndamping_n10 = 55 ueV\n")
        params = cfg.build_level_params()
        assert params.damping(2, 1, 0) == pytest.approx(12e-6)
        assert params.damping(10, 0, 0) == pytest.approx(55e-6)
        assert params.damping(3, 0, 0) == 0.0
