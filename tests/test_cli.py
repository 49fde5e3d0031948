"""End-to-end CLI runs: files, determinism, exit codes."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from exciton_eit import ScenarioConfig
from exciton_eit.cli import main


def read_csv(path):
    """Parse one of our provenance-headed CSV files into named columns."""
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    data = {name: [] for name in header}
    for row in rows:
        for name, cell in zip(header, row):
            data[name].append(cell)
    return data


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_validate_echoes_resolved_config(tmp_path, capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "omega_ab = 3266576000000000 rad/s" in out
    assert "N = 6.2422e+25 m^-3" in out


def test_spectrum_files_and_window_shape(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), "spectrum"]) == 0
    files = sorted(p.name for p in out.glob("spectrum_*.csv"))
    assert files == [
        "spectrum_om2_0Grads.csv",
        "spectrum_om2_10Grads.csv",
        "spectrum_om2_25Grads.csv",
        "spectrum_om2_50Grads.csv",
    ]
    bare = read_csv(out / "spectrum_om2_0Grads.csv")
    w = np.array([float(x) for x in bare["omega_rad_s"]])
    im = np.array([float(x) for x in bare["chi_im"]])
    # even Lorentzian about resonance, no window
    np.testing.assert_allclose(im, im[::-1], rtol=1e-10)
    assert im[len(im) // 2] == im.max()
    dressed = read_csv(out / "spectrum_om2_50Grads.csv")
    im50 = np.array([float(x) for x in dressed["chi_im"]])
    # a transparency dip at the center, below the bare peak
    assert im50[len(im50) // 2] < 0.2 * im.max()


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["--out", str(out), "spectrum"]) == 0
        assert main(["--out", str(out), "sweep"]) == 0
        assert main(["--out", str(out), "levels"]) == 0
    for name in ("spectrum_om2_25Grads.csv", "spectrum_om2_25Grads.json",
                 "sweep.csv", "sweep.json", "levels.csv", "levels.json"):
        assert digest(a / name) == digest(b / name), name


def test_sweep_argmax_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "sweep"]) == 0
    stdout = capsys.readouterr().out
    assert "argmax" in stdout
    doc = json.loads((out / "sweep.json").read_text())
    argmax = float(doc["argmax_omega2_rad_s"])
    assert 1.75e10 < argmax < 3.25e10  # near the 25 Grad/s optimum
    ng = float(doc["ng_max"])
    assert 3e3 < ng < 3e5


def test_levels_table_hydrogenic_defaults(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), "levels"]) == 0
    table = read_csv(out / "levels.csv")
    rydberg_mev = 86.131
    for n, l, e, branch in zip(table["n"], table["l"], table["E_real_meV"],
                               table["branch"]):
        if branch == "bare":
            assert float(e) == pytest.approx(-rydberg_mev / int(n) ** 2, rel=1e-9)
    assert "2P" in table["branch"]
    assert "10S" in table["branch"]


def test_levels_zero_field_roots_are_thresholds(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("field_strength = 0 V/m\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "levels"]) == 0
    table = read_csv(out / "levels.csv")
    gap_mev = 2172.08
    rows = {b: (float(er), float(ei))
            for b, er, ei in zip(table["branch"], table["E_real_meV"],
                                 table["E_imag_meV"]) if b in ("2P", "10S")}
    # with no field the branches sit exactly on the bare thresholds
    assert rows["2P"][0] == pytest.approx(gap_mev - 86.131 / 4, rel=1e-9)
    assert rows["10S"][0] == pytest.approx(gap_mev - 86.131 / 100, rel=1e-9)
    assert rows["2P"][1] == pytest.approx(-0.01, rel=1e-6)
    assert rows["10S"][1] == pytest.approx(-0.06, rel=1e-6)


def test_levels_roots_satisfy_secular_equation(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), "levels"]) == 0
    table = read_csv(out / "levels.csv")
    params = ScenarioConfig().build_level_params()
    for branch, n in (("2P", 2), ("10S", 10)):
        i = table["branch"].index(branch)
        root = complex(float(table["E_real_meV"][i]) * 1e-3,
                       float(table["E_imag_meV"][i]) * 1e-3)
        t1 = params.threshold(n, 0, 0)
        t2 = params.threshold(n, 1, 0)
        v = params.coupling_energy(n)
        residual = abs((t1 - root) * (t2 - root) - v**2)
        assert residual < 1e-12 * max(abs(t1), abs(t2)) ** 2


def test_propagate_vacuum_medium(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = 0 m^-3\npulse_sigma = 0.3 ns\nt_span = 4 ns\n"
                   "z_steps = 20\nt_steps = 256\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    assert float(doc["delay_s"]) == 0.0
    assert float(doc["attenuation"]) == 1.0


def test_propagate_summary_fields(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("Omega2 = 100 Grad/s\npulse_sigma = 0.29 ns\n"
                   "t_span = 4.8 ns\nz_steps = 60\nt_steps = 800\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    for key in ("delay_s", "attenuation", "phase_rad", "slowdown_factor",
                "grid", "converged", "parameters", "schema_version"):
        assert key in doc
    assert 3e3 * 0.5 < float(doc["slowdown_factor"]) < 3e5


def test_propagate_slowdown_at_group_index_optimum(tmp_path):
    # default control sits at the sweep optimum; the inferred slowdown
    # factor c delay / L lands at the expected order of magnitude even
    # though the slab is optically thick there
    out = tmp_path / "run"
    assert main(["--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    assert 3e3 < float(doc["slowdown_factor"]) < 3e5
    assert json.loads((out / "pulse_summary.json").read_text())["converged"] is True


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = 1 banana\n")
    assert main(["--config", str(cfg), "validate"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["propagate", "validate"])
def test_short_time_grid_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("t_steps = 4\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert "t_steps" in capsys.readouterr().err
    assert not out.exists()


def test_colliding_spectrum_files_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("spectrum_omega2 = 1e10, 1.0000001e10 rad/s\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 2
    assert "spectrum_om2_10Grads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key, command", [
    ("slab_length = -1 um", "slab_length", "propagate"),
    ("t_span = 0 s", "t_span", "propagate"),
    ("t_steps = 100000000", "t_steps", "propagate"),
    ("pulse_sigma = -1 ns", "pulse_sigma", "propagate"),
    ("gamma_ab = -1 Grad/s", "gamma_ab", "spectrum"),
    ("gamma_bc = -1 Grad/s", "gamma_bc", "spectrum"),
    ("gamma_ac = -1 Grad/s", "gamma_ac", "spectrum"),
    ("omega_ac = 4000 Trad/s", "omega_ac", "spectrum"),
    ("omega_ac = -1 Trad/s", "omega_ac", "spectrum"),
    ("dipole_ab_sq = -1e-60 C2m2", "dipole_ab_sq", "spectrum"),
    ("gamma_aniso = 0 dimensionless", "gamma_aniso", "levels"),
    ("bohr_radius = 0 nm", "bohr_radius", "levels"),
    ("rydberg_energy = -1 meV", "rydberg_energy", "levels"),
    ("r0 = 0 nm", "r0", "levels"),
    ("gamma_ab = nan rad/s", "gamma_ab", "propagate"),
    ("Omega2 = inf rad/s", "Omega2", "propagate"),
    ("Omega2 = 1e300 Trad/s", "Omega2", "propagate"),
    ("gamma_aniso = nan dimensionless", "gamma_aniso", "levels"),
    ("t_span = nan s", "t_span", "propagate"),
])
def test_out_of_range_values_exit_code(tmp_path, capsys, text, key, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert "Traceback" not in err
    if key != "t_steps":  # rejected by run_propagate, once the span is known
        assert "line 1" in err


def test_zero_optical_damping_is_a_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma_ab = 0 rad/s\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "propagate"]) == 3
    assert "gamma_ab = 0" in capsys.readouterr().err


def test_huge_slab_is_a_numerical_failure(tmp_path, capsys):
    # the sized time grid reaches ~1e296 s, where the envelope and the
    # transfer exponent leave floating-point range
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("slab_length = 1e300 m\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "slab_length" in err
    assert not (out / "pulse_summary.json").exists()


def propagate_below_the_floor(tmp_path, capsys, length):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"slab_length = {length}\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    assert doc["converged"] is False
    assert float(doc["attenuation"]) < 1e-14
    assert "roundoff floor" in doc["warning"] and "slab_length" in doc["warning"]
    assert "WARNING" in capsys.readouterr().err


def test_propagate_flags_zero_transmission(tmp_path, capsys):
    propagate_below_the_floor(tmp_path, capsys, "1 m")


def test_propagate_flags_a_thick_slab_below_the_roundoff_floor(tmp_path, capsys):
    # at 180 um the centre transmission is about e^-171: the output is the
    # input's roundoff, whose delay (6.25 ns, against about 13.1 ns for the
    # true pulse) the half-resolution rerun repeats, so only the floor
    # check can flag it
    propagate_below_the_floor(tmp_path, capsys, "180 um")


def test_sweep_at_subnormal_two_photon_detuning(tmp_path, capsys):
    # gamma_bc = 0 and a subnormal inner denominator at the window centre:
    # n_g takes its limit 1 + omega1 pref / (2 |Omega2|^2), with no warning
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma_bc = 0 rad/s\ndelta1 = 1 rad/s\ndelta2 = 1e-300 rad/s\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    ng = np.array([float(x) for x in doc["ng_center"]])
    om2 = np.array([float(x) for x in doc["omega2_rad_s"]])
    sys_ = ScenarioConfig().build_system()
    expected = 1.0 + 0.5 * (sys_.omega_ab - 1.0) * sys_.chi_prefactor / om2**2
    np.testing.assert_allclose(ng, expected, rtol=1e-12)
    assert "nan" not in capsys.readouterr().out


def test_levels_at_extreme_anisotropy(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma_aniso = 0.01 dimensionless\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "levels"]) == 0


def test_removed_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sweep"])
    assert exc.value.code == 2


def test_missing_config_file_exit_code(tmp_path):
    assert main(["--config", str(tmp_path / "nope.txt"), "validate"]) == 2


def test_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory\n")
    assert main(["--out", str(target), "sweep"]) == 4
    assert "i/o error" in capsys.readouterr().err
