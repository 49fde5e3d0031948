"""End-to-end CLI runs: files, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exciton_eit import ScenarioConfig, cli, config, propagation
from exciton_eit.cli import main
from oracles import (measure_list_loops, measure_trapezoid, plain_transfer,
                     plain_transfer_list)


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


# sha256 of every file and of stdout for the default configuration, taken
# before the CSV/JSON writers were rewritten around column mappings.
# `propagate` was pinned when its default run moved to Python floats: its
# bits depend only on IEEE basic operations (each correctly rounded) and
# the platform libm's exp, cos and sin, so these digests hold wherever
# those agree.  Its observables sit at the FFT roundoff floor, where the
# last printed digits move under any reordering of the route's steps:
# against numpy's route `attenuation` moved by 2.3e-5 and `delay_s` by
# 1.3e-8 relative.  It was re-pinned when the FFT's padding went from 4x
# to 2x the grid, which moved `attenuation` by 5.5e-5 and `delay_s` by
# 3.5e-9 relative.  The spectrum files were re-pinned when chi and n_g
# moved to one real closed form: every value comes from IEEE basic
# operations only (+, -, *, /, each correctly rounded, with no fused
# multiply-add), so these digests hold on any CPU, and on the list and the
# array route alike.  Against the complex product form they replace, each
# chi moved by at most 6.4e-16 of |chi| and each n_g by at most 6.2e-16 of
# max |n_g - 1|.  `sweep` and `propagate` were re-pinned when the window
# center, the sweep and the pulse's transfer moved to that same form: in
# `sweep.json` 107 of the 199 `chi_im_center` values moved, by at most
# 4.3e-16 relative, and 29 of the `ng_center` values, by at most 6.5e-16;
# in `pulse_summary.json` `attenuation` moved by -3.6e-16 and `delay_s` by
# +3.8e-16 relative.
DEFAULT_DIGESTS = {
    "spectrum": {
        "spectrum_om2_0Grads.csv": "8f06b4b517058f5f63df876bce3af2802fb9a0fdcb91c3161287c687b9a62833",
        "spectrum_om2_0Grads.json": "e0b6f403859b86585078a84cf8b4c43222a8812e7c1f8eb3ff42c5b6d1c992cb",
        "spectrum_om2_10Grads.csv": "a06f4110826decf93c2d03ceb654976647d8f7f896a6da17fea21922399d51d0",
        "spectrum_om2_10Grads.json": "585d7b94f6aca3209813cacfd20505a17a4227f717a130fd2fcc16398339615d",
        "spectrum_om2_25Grads.csv": "008ebc4060ad8c7a60a1a3447325037bc905e85a16be0b20a90ddd7aded7a7a9",
        "spectrum_om2_25Grads.json": "1b63bbb7f21fb718dce7bd01035c1874059b392f1dac84e7fd31667876edd3d1",
        "spectrum_om2_50Grads.csv": "9ec3d7f467956de6f3f253a8985589aedada4f096350ccddb6e6a3935365900b",
        "spectrum_om2_50Grads.json": "bf6e7cae7e17a72f9440dac6e31c63b751871de1f97b27c0c454cfe183c998a8",
        "stdout": "b459efb0c5fe2c0d7919a24b5091de11d1c02457f1bdcee8cb1f8fa168e409b4",
    },
    "sweep": {
        "sweep.csv": "afc8938700acb3c96b9729fdd685a80573881007b9244d261ae76ac8a9445cfb",
        "sweep.json": "d29e56b9bc264ee5ce2b041b4b3feb7c0a493812d9cf675a1c1fae1028c10fb2",
        "stdout": "ad6a4aec9726f5a058bdcc8898e33d114ec2721df785d779e180c39b40a0a346",
    },
    "propagate": {
        "pulse.csv": "3270e360e4dba601e84c5ec31eef028d63d6aad6d159b44f81a9ccc4275349bf",
        "pulse_summary.json": "122187ba693f074b31cfa6a3d6026044530b3acb320f88d1a51e23e05ae296cc",
        "stdout": "83924049d3f2d80924e0cf15f887ac76b1ff0558db1f219d79cf0150e9df7e68",
    },
    "levels": {
        "levels.csv": "9da207d57acde5d292a3baacfe2528ea7944aed6f76832d0a8a8be8a6349c3f4",
        "levels.json": "3214559182360526237cd8ed5936c5b350bbbb39da9471b673e807d1e383c6c6",
        "stdout": "97f808ef41358eec79a99d450168af62d66832dcde4a994a47a73719e30e30db",
    },
    "validate": {
        "stdout": "d5b99922bcaeac8fb157120bc0f00514a0b9f3e42668b7a25a33d6f86aaea476",
    },
}


@pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
def test_default_outputs_match_stored_digests(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main(["--out", str(out), command]) == 0
    got = {p.name: digest(p) for p in out.iterdir()} if out.exists() else {}
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == DEFAULT_DIGESTS[command]


PROPAGATE_CONFIGS = {
    "default": "",
    "gamma_bc 0": "gamma_bc = 0 rad/s\n",
    "15 um": "slab_length = 15 um\nOmega2 = 60 Grad/s\n",
    "detuned": "delta1 = -2 Grad/s\ndelta2 = -3 Grad/s\n",
    "detuned t_steps 10": "delta1 = 5 Grad/s\nt_steps = 10\n",
    "resonant t_steps 9000": "t_steps = 9000\n",
}
# the cases that run in numpy: off two-photon resonance, or with a padded
# length past propagation.in_floats' limit (t_steps 9000 pads to 18432)
ARRAY_CASES = {"detuned", "resonant t_steps 9000"}


def propagate_outputs(text):
    """Exit code, stdout, stderr and the bytes of every written file of one
    `propagate` run on the config ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.txt"
        cfg.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(cfg), "--out", str(Path(tmp) / "run"), "propagate"])
        files = {p.name: p.read_bytes() for p in sorted((Path(tmp) / "run").iterdir())}
    return code, out.getvalue(), err.getvalue(), files


@pytest.mark.parametrize("case", PROPAGATE_CONFIGS)
def test_propagate_bytes_match_the_full_grid_transfer(monkeypatch, case):
    # `propagate`'s bytes are held to out-of-place forms of the steps its
    # route takes, on whatever machine the test runs: on the list carrier
    # (at delta2 = 0, within in_floats' limit), the transfer one offset at a
    # time and the observables by explicit loops; on the numpy carrier, the
    # transfer formed out of place on the one-sided frequencies and
    # np.trapezoid.  Off resonant drive the transfer is taken at both
    # signs; t_steps 10 pads to 24.  Each run must call the oracles of the
    # carrier it takes, with that carrier
    text = PROPAGATE_CONFIGS[case]
    fast = propagate_outputs(text)
    listed = case not in ARRAY_CASES
    if listed:   # the list oracle takes the offsets -2 pi f
        oracles = {"_transfer": lambda freq, *args: plain_transfer_list(
                       [-2.0 * math.pi * f for f in freq], *args),
                   "_measure": measure_list_loops}
    else:
        oracles = {"_transfer": plain_transfer, "_measure": measure_trapezoid}
    called = set()

    def counted(name, oracle):
        def run(*args):   # the step's arguments, the carrier last
            called.add((name, args[-1] is propagation._LISTS))
            return oracle(*args[:-1])
        return run

    for name, oracle in oracles.items():
        monkeypatch.setattr(propagation, name, counted(name, oracle))
    assert propagate_outputs(text) == fast
    assert fast[0] == 0 and sorted(fast[3]) == ["pulse.csv", "pulse_summary.json"]
    assert called == {("_transfer", listed), ("_measure", listed)}


def pulse_run(tmp_path, text=""):
    """The numeric columns of ``pulse.csv`` and the summary of a
    `propagate` run on the config ``text`` (by default, the defaults)."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    columns = {name: [float(x) for x in cells]
               for name, cells in read_csv(out / "pulse.csv").items()}
    return columns, json.loads((out / "pulse_summary.json").read_text())


@pytest.mark.parametrize("text", [
    "",
    "delta2 = 1 Grad/s\nslab_length = 15 um\nOmega2 = 60 Grad/s\n",
], ids=["default", "detuned 15 um"])
def test_attenuation_is_the_ratio_of_the_printed_peaks(tmp_path, text):
    # the peaks are read off the array abs that pulse.csv prints; the
    # scalar abs of a complex peak can differ from it in the last bit
    columns, summary = pulse_run(tmp_path, text)
    assert (float(summary["attenuation"])
            == max(columns["env_out_abs"]) / max(columns["env_in_abs"]))


def test_resonant_phase_is_exactly_zero(tmp_path):
    # chi is purely imaginary at the symmetric window centre, and the real
    # route leaves no imaginary roundoff to read as a phase
    columns, summary = pulse_run(tmp_path)
    assert float(summary["phase_rad"]) == 0.0
    assert set(columns["env_out_arg"]) <= {0.0, np.pi}


@pytest.mark.parametrize("command", ["spectrum", "sweep", "levels", "propagate"])
def test_each_format_writes_its_own_files_only(tmp_path, capsys, command):
    # --format csv and --format json each write exactly their half of the
    # --format both run, byte for byte, and print the same stdout
    both = tmp_path / "both"
    assert main(["--out", str(both), command]) == 0
    stdout = capsys.readouterr().out
    for kind in ("csv", "json"):
        out = tmp_path / kind
        assert main(["--format", kind, "--out", str(out), command]) == 0
        assert capsys.readouterr().out == stdout
        expected = sorted(p.name for p in both.glob(f"*.{kind}"))
        assert expected and sorted(p.name for p in out.iterdir()) == expected
        for name in expected:
            assert (out / name).read_bytes() == (both / name).read_bytes(), name


# `levels` away from equal masses, where the anisotropy quadrature runs
ANISOTROPIC_LEVELS_DIGESTS = {
    "0.5": {
        "levels.csv": "528e7a78bef614f301934748b88bb285d3fff6fac03a55299b0f80dc2bb8c730",
        "levels.json": "895e4496a08c53155248a35e797bb5ee18e020a0cf4f0c3608b02b7a3510b0f5",
        "stdout": "732027ae99af06d8dde5973f2bc5f3aec22ba6ec34783d2db75189d309b6be48",
    },
    "3": {
        "levels.csv": "e2771b3a199173fd6827f87f06b92517aa12f97be77177de011a87dfbe19cbd2",
        "levels.json": "26411a7b9cc120a8527eb223453bcbb1e2aaf66bad7b83845f9e028e48d3f3bd",
        "stdout": "632fab5f5c124f7467c91148c6965141e06a80fbf2cdc55ad04b2c451efb9e5a",
    },
}


@pytest.mark.parametrize("gamma_aniso", sorted(ANISOTROPIC_LEVELS_DIGESTS))
def test_anisotropic_levels_match_stored_digests(tmp_path, capsys, gamma_aniso):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"gamma_aniso = {gamma_aniso} dimensionless\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "levels"]) == 0
    got = {p.name: digest(p) for p in out.iterdir()}
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == ANISOTROPIC_LEVELS_DIGESTS[gamma_aniso]


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


def test_vg_over_c_inverts_the_transit_time(tmp_path):
    # the slab delays the pulse by L/v_g - L/c, and slowdown_factor = c delay / L
    out = tmp_path / "run"
    assert main(["--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    product = float(doc["vg_over_c"]) * (1.0 + float(doc["slowdown_factor"]))
    assert product == pytest.approx(1.0, rel=1e-15)


def test_vg_over_c_of_a_negative_group_index(tmp_path):
    # with no control field the centre sits on the absorption line, where
    # n_g = -17558: the pulse leaves before a vacuum transit would
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("Omega2 = 0 rad/s\nslab_length = 5e-9 m\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    slowdown, vg_over_c = float(doc["slowdown_factor"]), float(doc["vg_over_c"])
    assert slowdown < -1.0
    assert vg_over_c < 0.0
    assert vg_over_c * (1.0 + slowdown) == pytest.approx(1.0, rel=1e-15)
    assert 1.0 / vg_over_c == pytest.approx(-17558, rel=0.05)


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
    ("t_steps = 20000000", "t_steps", "propagate"),
    ("t_steps = 20000000", "t_steps", "validate"),
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
    ("omega_half_span = 0 rad/s", "omega_half_span", "spectrum"),
    ("omega_half_span = -2 rad/s", "omega_half_span", "spectrum"),
    ("omega_points = 1048577", "omega_points", "spectrum"),
    ("omega2_points = 1048577", "omega2_points", "sweep"),
    ("levels_n_max = 600000", "levels_n_max", "levels"),
    ("levels_n_max = 2000000", "levels_n_max", "validate"),
])
def test_out_of_range_values_exit_code(tmp_path, capsys, text, key, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert "Traceback" not in err
    assert "line 1" in err


@pytest.mark.parametrize("text, command", [
    ("delta1 = 1e10 rad/s\nomega_half_span = 1e-10 rad/s\n", "spectrum"),
    ("omega2_min = 1e10 rad/s\nomega2_max = 1.000000000000001e10 rad/s\n", "sweep"),
    # past FLOAT_POINTS values the grid is np.linspace's array, checked there
    ("delta1 = 1e10 rad/s\nomega_half_span = 1e-10 rad/s\nomega_points = 25001\n",
     "spectrum"),
    ("omega2_min = 1e10 rad/s\nomega2_max = 1.000000000000001e10 rad/s\n"
     "omega2_points = 100001\n", "sweep"),
])
def test_grid_that_rounding_collapses_is_a_config_error(text, command):
    code, err = run_config(command, text)
    assert code == 2
    assert err.startswith("config error:") and "rounding does not keep distinct" in err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lo=st.floats(-1e300, 1e300),
       offset=st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                        st.integers(-600, 600)),
       points=st.integers(1, 400))
# numpy's step == 0 branch: the step underflows, so each point is lo + (i/div) span
@example(lo=0.0, offset=1, points=3)
@example(lo=-5e-324, offset=2, points=5)
# one point, which takes the sign of zero of lo + 0 * span
@example(lo=-0.0, offset=1.0, points=1)
@example(lo=-0.0, offset=-1.0, points=1)
# the sweep grid that rounding collapses (see the test above)
@example(lo=1e10, offset=5, points=199)
def test_python_linspace_has_numpys_bits(lo, offset, points):
    # offset is a span, or an int count of ulps of lo
    hi = lo + (offset * math.ulp(lo) if isinstance(offset, int) else offset)
    assume(math.isfinite(hi - lo))
    assert np.array(cli._linspace(lo, hi, points)).tobytes() == (
        np.linspace(lo, hi, points).tobytes())


@pytest.mark.parametrize("command", ["spectrum", "sweep", "propagate"])
def test_overflowing_kernel_is_a_numerical_failure(command):
    # an overflow is raised, not warned, and the run exits 3
    code, err = run_config(command, "gamma_bc = 1.7e308 rad/s\n")
    assert code == 3
    assert err.startswith("numerical failure: overflow") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "levels", "spectrum", "sweep", "propagate"])
def test_overflowing_default_gamma_ac_is_a_config_error(command):
    # gamma_ac defaults to gamma_ab + gamma_bc; `levels` once wrote it as "inf"
    code, err = run_config(command, "gamma_ab = 1.7e308 rad/s\ngamma_bc = 1.7e308 rad/s\n")
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(key in err for key in ("gamma_ab", "gamma_bc", "gamma_ac"))


@pytest.mark.parametrize("text, command, key", [
    ("E_gap = 1e300 eV", "levels", "E_gap"),                 # was exit 0, 2P row inf
    ("rydberg_energy = 1e300 eV", "levels", "rydberg_energy"),   # was exit 0, 10S row -inf
    ("damping_n10 = 1.7e308 eV", "levels", "damping_n10"),
    ("field_strength = 1e300 V/m", "levels", "field_strength"),
    ("bohr_radius = 1e300 m", "levels", "bohr_radius"),
    ("spectrum_omega2 = 1e160 rad/s", "spectrum", "spectrum_omega2"),
    # the second table overflows: the first is neither written nor announced
    ("spectrum_omega2 = 0, 1e150 Grad/s", "spectrum", "spectrum_omega2"),
    ("Omega2 = 1e160 rad/s", "propagate", "Omega2"),
    ("omega2_max = 1e160 rad/s", "sweep", "omega2_max"),       # Omega2^2 overflows
    ("omega2_min = -1.7e308 rad/s\nomega2_max = 1.7e308 rad/s", "sweep", "omega2_min"),  # span
])
def test_out_of_range_result_names_its_keys(tmp_path, capsys, text, command, key):
    # a Python float overflow, or a level row that is not finite, exits 3
    # with one line naming the keys to change, and writes no file
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: a result leaves floating-point range")
    assert key in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


FLOAT_OVERFLOWS = [
    "dipole_ab_sq = 1e270 C2m2",                   # the chi prefactor overflows
    "N = 1e300 m^-3\ndipole_ab_sq = 1e-10 C2m2",   # and with it Im chi
    "gamma_bc = 1.7e308 rad/s",                    # P overflows
]
FLOAT_ROUTES = {
    "sweep": ("overflow at the window center", "omega2_min, omega2_max"),
    "spectrum": ("overflow in the spectrum", "omega_half_span, spectrum_omega2"),
}


# the sweep's cases keep their bare ids
@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=text if command == "sweep" else f"{command}-{text}")
    for command in FLOAT_ROUTES for text in FLOAT_OVERFLOWS])
def test_float_sweep_overflow_names_the_keys_the_kernel_reads(tmp_path, capsys, command, text):
    # a sweep at delta2 = 0 and a spectrum run in Python floats; a value
    # out of range exits 3 with one line naming every key the kernel reads,
    # as numpy's faults do on the other routes, and writes no file
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 3
    err = capsys.readouterr().err
    start, keys = FLOAT_ROUTES[command]
    assert err.startswith(f"numerical failure: {start}")
    assert err.endswith(": bring omega_ab, gamma_ab, gamma_bc, N, dipole_ab_sq, delta1, "
                        f"delta2, {keys} back into range\n")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("text", FLOAT_OVERFLOWS + [
    "N = 1e300 m^-3\ndipole_ab_sq = 1e-10 C2m2\ndelta2 = 1 Grad/s\nomega2_min = 0 rad/s",
    "gamma_bc = 1.7e308 rad/s\nomega2_max = 1e160 rad/s"])   # a center before a square
def test_sweep_overflow_is_one_line_on_either_carrier(text):
    # 199 points run in Python floats and 200001 in one numpy broadcast,
    # at any delta2 and with the bare line on the grid: a center out of
    # range gives the same line on both, naming the first Omega2 it fails at
    runs = [run_config("sweep", f"{text}\nomega2_points = {points}\n")
            for points in (199, 200001)]
    assert runs[0] == runs[1]
    code, err = runs[0]
    assert code == 3 and err.startswith("numerical failure: overflow at the window center")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["omega2_max = 1e160 rad/s", "omega2_min = -1e160 rad/s"])
def test_sweep_square_overflow_is_one_line_on_either_carrier(text):
    # 199 points run in Python floats and 200001 in one numpy broadcast: an
    # Omega2 whose square leaves the range gives the same line on both, not
    # numpy's "overflow encountered in square"
    runs = [run_config("sweep", f"{text}\nomega2_points = {points}\n")
            for points in (199, 200001)]
    assert runs == [(3, "numerical failure: a result leaves floating-point range: "
                        "bring omega2_min, omega2_max back into range\n")] * 2


@pytest.mark.parametrize("text", FLOAT_OVERFLOWS)
def test_spectrum_overflow_is_one_line_on_either_route(text):
    # four tables of 2001 points run in Python floats, of 25001 in one numpy
    # broadcast under a local errstate: a value out of range gives the float
    # route's line on both, not numpy's "overflow encountered in multiply"
    runs = [run_config("spectrum", f"{text}\nomega_points = {points}\n")
            for points in (2001, 25001)]
    assert runs[0] == runs[1]
    code, err = runs[0]
    assert code == 3 and err.startswith("numerical failure: overflow in the spectrum at")
    assert err.count("\n") == 1


@pytest.mark.parametrize("points", [2001, 25001])
def test_an_exact_pole_gives_one_message_on_either_route(points):
    # gamma_ab = gamma_bc = 0: the bare line's pole sits on the centre of
    # the grid.  Four tables of 2001 points run in Python floats, of 25001
    # in numpy; a pole is no value out of range, so neither route asks to
    # bring keys back into range
    code, err = run_config("spectrum", "gamma_ab = 0 rad/s\ngamma_bc = 0 rad/s\n"
                                       f"omega_points = {points}\n")
    assert (code, err) == (3, "numerical failure: susceptibility evaluated exactly on a pole\n")


@pytest.mark.parametrize("command", ["spectrum", "sweep", "propagate"])
def test_numpy_overflow_names_the_keys_the_kernel_reads(command):
    code, err = run_config(command, "gamma_bc = 1.7e308 rad/s\n")
    assert code == 3
    assert err.startswith("numerical failure: overflow") and err.count("\n") == 1
    assert "gamma_bc" in err


@pytest.mark.parametrize("gamma_aniso", ["1e300", "1.7976931348623157e308"])
def test_levels_past_the_squared_anisotropy_overflow(gamma_aniso):
    # gamma_aniso^2 overflows from about 1.34e154, but eta stays finite
    found = []
    code, err = run_config("levels", f"gamma_aniso = {gamma_aniso} dimensionless\n",
                           lambda out: found.extend(non_finite_numbers(out)))
    assert (code, err, found) == (0, "", [])


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


@pytest.mark.parametrize("text, key", [
    ("t_steps = 8", "t_steps"),
    ("t_steps = 20", "t_steps"),
    ("t_span = 1.2 ns", "t_span"),
])
def test_propagate_names_the_key_that_fixes_a_coarse_grid(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "propagate"]) == 0
    doc = json.loads((out / "pulse_summary.json").read_text())
    assert doc["converged"] is False
    assert float(doc["convergence_delta"]) > 0.01
    assert doc["warning"].startswith("grid too coarse") and f"raise {key}" in doc["warning"]
    assert "WARNING grid too coarse" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["pulse_sigma = 1e-300 s", "t_span = 1e-300 s"])
def test_vanishing_time_scales_warn_or_fail_cleanly(tmp_path, capsys, text):
    # 1e-300 s squared underflows; the run either measures and warns, or
    # stops as a numerical failure, and either way names a key to change
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "propagate"])
    err = capsys.readouterr().err
    if code == 0:
        assert "WARNING grid too coarse" in err
    else:
        assert code == 3
        assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert text.split()[0] in err


def run_config(command, text, written=None):
    """Exit code and stderr of one CLI run, with every warning an error;
    ``written``, if given, is called with the output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.txt"
        cfg.write_text(text)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("error")
            code = main(["--config", str(cfg), "--out", str(Path(tmp) / "run"), command])
        if written:
            written(Path(tmp) / "run")
    return code, err.getvalue()


NON_FINITE = re.compile(r"(?<![\w.+-])[+-]?(?:inf|nan)\b")


def non_finite_numbers(out):
    """Each non-finite number in the files under ``out``, less the documented
    vg_over_c = inf of a pulse whose slowdown factor is exactly -1."""
    found = []
    for path in sorted(out.glob("*")) if out.exists() else ():
        text = path.read_text(encoding="utf-8")
        if path.name == "pulse_summary.json" and json.loads(text)["slowdown_factor"] == "-1":
            text = text.replace('"vg_over_c": "inf"', "")
        found += [(path.name, match.group()) for match in NON_FINITE.finditer(text)]
    return found


log_seconds = st.floats(-300.0, 3.0).map(lambda e: 10.0**e)
slab_lengths = st.just(0.0) | st.floats(-300.0, 0.0).map(lambda e: 10.0**e)


def exits_cleanly(command, t_span, pulse_sigma, slab_length, t_steps):
    code, err = run_config(command, f"t_span = {t_span!r} s\npulse_sigma = {pulse_sigma!r} s\n"
                                    f"slab_length = {slab_length!r} m\nt_steps = {t_steps}\n")
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.count("\n") == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t_span=log_seconds, pulse_sigma=log_seconds, slab_length=slab_lengths,
       t_steps=st.integers(8, 4096))
@example(t_span=1e-300, pulse_sigma=1e-9, slab_length=3e-5, t_steps=2400)  # exit 3
def test_propagate_exits_cleanly_on_any_grid(t_span, pulse_sigma, slab_length, t_steps):
    exits_cleanly("propagate", t_span, pulse_sigma, slab_length, t_steps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t_span=log_seconds, pulse_sigma=log_seconds, slab_length=slab_lengths,
       t_steps=st.integers(8, 2**62))
def test_validate_exits_cleanly_on_any_grid(t_span, pulse_sigma, slab_length, t_steps):
    exits_cleanly("validate", t_span, pulse_sigma, slab_length, t_steps)


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
    # input's roundoff, whose delay (2.17 ns, against about 13.1 ns for the
    # true pulse) means nothing; the floor check flags it and its warning
    # names slab_length
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


# Config fuzz: whole configs, mostly well formed, with values from decades
# around each default out to the ends of the float range, and typos.
# Counts run to 64, which bounds the test's time, and past the 2^20 caps;
# at gamma_aniso != 1 the level table stops at l = 32.
CONFIG_KEYS = sorted(config._KEYS)
UNITS_OF = {dimension: sorted(u for u, (kind, _) in config._UNITS.items()
                              if kind == dimension or (dimension, kind) == ("frequency", "energy"))
            for dimension, _ in config._KEYS.values() if dimension is not None}
TYPICAL = {"frequency": 1e10, "time": 1e-9, "length": 1e-6}


@st.composite
def config_lines(draw):
    key = draw(st.sampled_from(CONFIG_KEYS))
    dimension, attr = config._KEYS[key]
    if dimension is None:
        value = draw(st.integers(1, 64) | st.integers(1, 64) | st.integers(-2, 0)
                     | st.integers(2**20 + 1, 2**64))
        line = f"{key} = {value}"
    else:
        default = getattr(ScenarioConfig(), attr)
        scale = abs((default[-1] if isinstance(default, tuple) else default)
                    or TYPICAL.get(dimension, 1.0))
        near = (st.tuples(st.sampled_from([1.0] * 6 + [-1.0, 0.0]), st.floats(-6.0, 6.0))
                .map(lambda t: t[0] * scale * 10.0 ** t[1]))
        number = st.one_of(near, near, near,
                           st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]))
        numbers = draw(st.lists(number, min_size=1, max_size=3 if key == "spectrum_omega2" else 1))
        unit = draw(st.sampled_from(UNITS_OF[dimension]))
        line = f"{key} = {', '.join(map(repr, numbers))} {unit}"
    typo = draw(st.sampled_from([None] * 16 + ["key", "unit", "number", "equals"]))
    if typo == "key":
        return line.replace(key, key[:-1], 1)
    if typo == "unit":
        return f"{line} {draw(st.sampled_from(sorted(config._UNITS)))}"
    if typo == "number":
        return line.replace("= ", f"= {draw(st.sampled_from(['nan', '-inf', '1e999', 'x', '']))}", 1)
    if typo == "equals":
        return line.replace("=", "", 1)
    return line


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lines=st.lists(config_lines(), max_size=5))
@example(lines=["omega_half_span = 0.0 rad/s"])     # was a ValueError traceback
@example(lines=["gamma_bc = 1.7e308 rad/s"])        # was an overflow RuntimeWarning
@example(lines=["levels_n_max = 3000", "levels_l_max = 900"])   # 1e9 rows: out of memory
@example(lines=["E_gap = 1e300 eV"])                # was exit 0 with an inf row
@example(lines=["bohr_radius = 1e300 m"])           # was "(34, 'Numerical result ...')"
@example(lines=["spectrum_omega2 = 0, 1e150 Grad/s"])   # was a file written, then exit 3
@example(lines=["gamma_ab = 1.7e308 rad/s", "gamma_bc = 1.7e308 rad/s"])  # gamma_ac was inf
@example(lines=["levels_n_max = 71", "levels_l_max = 70",
                "gamma_aniso = 3 dimensionless"])   # was eta(70, 0) = 0.5048, not 0.5366
@example(lines=["omega2_max = 1e160 rad/s"])        # Omega2^2 overflows in Python floats
@example(lines=["omega2_min = -1.7e308 rad/s", "omega2_max = 1.7e308 rad/s"])  # the span does
@example(lines=["delta2 = 1e300 rad/s", "gamma_bc = 0 rad/s"])   # was a LinAlgError traceback
@example(lines=["pulse_sigma = 1.7976931348623157e308 s", "t_span = 1e-300 s"])  # center inf
# the window's quartic meets inf, and t_steps 9000 runs the pulse in numpy
@example(lines=["delta2 = 1e-300 rad/s", "gamma_ab = 1e-300 rad/s", "t_steps = 9000"])
def test_any_config_exits_cleanly(lines):
    # every command exits 0, 2 or 3; a RuntimeWarning is an error here; a
    # failure is one line that is not a bare errno tuple, and a success
    # writes only finite numbers
    text = "\n".join(lines) + "\n"
    for command in ("validate", "levels", "sweep", "spectrum", "propagate"):
        found = []
        code, err = run_config(command, text, lambda out: found.extend(non_finite_numbers(out)))
        assert code in (0, 2, 3), (command, err)
        assert "Traceback" not in err and not err.startswith("numerical failure: (")
        assert code == 0 or err.count("\n") == 1, (command, err)
        assert code != 0 or not found, (command, found)
