"""Smoke tests of the benchmark's generator, checks, statistics and tracing.

Run with the package importable: PYTHONPATH=src python -m pytest bench
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import scenarios
import tracing
import warm
from exciton_eit import parse_config
import speed
from run import at_nominal, tail

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", ["study-warm", "pulse-warm"])
def test_generator_is_seeded_and_stays_in_range(workload):
    texts = [scenarios.scenario(7, workload, i) for i in range(2 * scenarios.BLOCK)]
    assert texts == [scenarios.scenario(7, workload, i) for i in range(2 * scenarios.BLOCK)]
    assert texts != [scenarios.scenario(8, workload, i) for i in range(2 * scenarios.BLOCK)]
    ranges = scenarios.STUDY_RANGES if workload == "study-warm" else scenarios.PULSE_RANGES
    attrs = {"N": "density"}
    configs = [parse_config(t) for t in texts]
    for key, lo, hi, log, _ in ranges:
        values = np.array([getattr(c, attrs.get(key, key)) for c in configs])
        if key == "slab_length":
            hi = np.minimum(hi, [scenarios.max_slab_length(c.Omega2) for c in configs])
        assert np.all((lo <= values) & (values <= hi))
        # stratified: each block holds one value per eighth of the range
        u = (np.log(values / lo) / np.log(hi / lo)) if log else (values - lo) / (hi - lo)
        for block in (u[:scenarios.BLOCK], u[scenarios.BLOCK:]):
            strata = np.floor(block * scenarios.BLOCK).astype(int)
            assert sorted(strata) == list(range(scenarios.BLOCK))


def test_cli_order_rotates_every_command_through_every_slot():
    orders = [scenarios.cli_order(3, r, ("a", "b", "c", "d")) for r in range(4)]
    assert all(sorted(o) == ["a", "b", "c", "d"] for o in orders)
    assert {o[0] for o in orders} == {"a", "b", "c", "d"}


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0, 5.0, 4.0])[0] == 3.0   # few samples: the median


def test_nominal_speed_scales_times_and_rates_only():
    k = speed.factor([speed.NOMINAL_S * 2] * 3)   # the machine ran at half speed
    assert k == 0.5
    assert (at_nominal(4.0, "s", k), at_nominal(3.0, "1/s", k), at_nominal(7.0, "MB", k)) == (2.0, 6.0, 7.0)


def test_steady_takes_out_a_slow_stretch_only():
    probes = [1.0] * 20 + [2.0] * 10 + [1.0] * 20   # the machine halves its speed
    times = [3.0] * 20 + [6.0] * 10 + [3.0] * 20
    times[5], times[40] = None, 9.0                 # a failure and a slow operation
    steady = speed.steady(times, probes)
    assert steady[5] is None and steady[40] == 9.0
    assert all(t == 3.0 for i, t in enumerate(steady) if i not in (5, 40))


def test_self_time_subtracts_children():
    spans = [{"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
             {"id": 1, "name": "a.f", "parent": 0, "start": 1.0, "end": 5.0, "counts": {}},
             {"id": 2, "name": "b.g", "parent": 1, "start": 2.0, "end": 3.0,
              "counts": {"points": 7, "b.rows": 2}}]
    assert tracing.self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0}
    assert tracing.layer_totals(spans) == {"a.f_s": 3.0, "a.f_calls": 1, "b.g_s": 1.0,
                                           "b.g_calls": 1, "b.g_points": 7, "b.rows": 2}


def test_study_checks_pass_and_catch_corruption():
    r = warm.study(warm.package_api(),
                   scenarios.scenario(1, "study-warm", 0))
    assert warm.check_study(r) == []
    _, table = r.spectra[1]
    table.chi_im[checks.ORACLE_STRIDE] *= -1.0
    assert any("oracle" in f for f in warm.check_study(r))
    assert any("Im chi" in f for f in warm.check_study(r))
    shifted = [d.with_control(1.1 * abs(d.Omega2)) for d in r.peak_drives]
    assert checks.doublet(r.system, shifted, r.peaks)
    row = next(x for x in r.levels if x.branch == "2P")
    assert checks.secular(r.level_params, [(2, row.energy * (1 + 1e-9))])


def test_pulse_checks_pass_and_catch_corruption():
    r = warm.pulse(warm.package_api(),
                   scenarios.render({"Omega2": "60 Grad/s"}))
    assert warm.check_pulse(r) == []
    bad = dataclasses.replace(r.record, converged=False,
                              measured_delay=1.5 * r.record.measured_delay)
    assert len(checks.pulse(bad, r.params, r.drive, r.system)) == 2


def test_deepest_pulse_draw_passes_the_checks():
    # weakest control at its longest slab: transmission exp(-MAX_DEPTH)
    length = scenarios.max_slab_length(25e9)
    assert 15e-6 < length < 45e-6
    r = warm.pulse(warm.package_api(),
                   scenarios.render({"Omega2": "25e9 rad/s", "slab_length": f"{length!r} m"}))
    assert r.record.measured_attenuation == pytest.approx(np.exp(-scenarios.MAX_DEPTH), rel=0.5)
    assert warm.check_pulse(r) == []


def test_refuses_to_run_without_the_package_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "study-warm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
